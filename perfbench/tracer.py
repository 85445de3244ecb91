"""Per-layer tracing from outside the package.

``Tracer.install()`` wraps the public functions of every layer module, and
the public methods, arithmetic dunders and properties of the classes those
modules define.  A wrapper replaces every attribute of every
``heckesphere.*`` module that *is* the original function, so calls between
sibling modules (``lightleaf.decorate``, ``verify.build_sll``) are counted
as well.  Private helpers are not wrapped: their time belongs to the public
function that called them.

Time is charged to whatever sits on top of the call stack between two
events, so layer self times plus ``bench`` add up to the traced wall time
exactly.  ``bench`` is everything outside the package: the benchmark's own
code and the tracer's bookkeeping.  Spans are kept for calls that cross a
layer boundary, except into ``laurent`` and ``linear``, which see millions
of calls and keep aggregated counters only.  Span ids follow the order in
which calls start, and only the first MAX_SPANS ids are kept, so the kept
spans always form whole call trees.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

from heckesphere.laurent import LaurentPoly

# Bound before install() wraps it, so the counting hook is not counted.
_LAURENT_TERMS = LaurentPoly.terms

LAYERS = ("coxeter", "laurent", "linear", "hecke", "spherical", "strolls",
          "lightleaf", "verify", "cli")
AGGREGATE_ONLY = ("laurent", "linear")
MAX_SPANS = 50000
INCLUSIVE = ("spherical.pairing",)  # functions whose inclusive time is reported
_MISSING = object()

# Dunders that do the work of a class; the rest (repr, setattr, ...) are not
# wrapped.
DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__neg__", "__pow__", "__eq__", "__hash__", "__bool__",
           "__getitem__", "__str__")

# Sub-layers of coxeter, by public function name.
COXETER_QUERY = {"right_mult", "left_mult", "normalize", "element", "mult", "inverse",
                 "right_descents", "left_descents", "is_mcr", "bruhat_leq",
                 "coset_decompose", "wall_cross"}
COXETER_REX = {"find_rex", "rex_path", "reduced_words", "rex_graph"}

clock = time.perf_counter


def _short(name: str) -> str:
    return name.strip("_")


def _category(layer: str, name: str, owner: str | None) -> str:
    if layer != "coxeter":
        return layer
    if owner == "CoxeterSystem" and name == "__init__":
        return "coxeter.build"
    if name in COXETER_QUERY:
        return "coxeter.query"
    if name in COXETER_REX:
        return "coxeter.rex"
    return "coxeter.other"


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)  # category -> seconds
        self.calls: Counter = Counter()  # "layer.name" -> calls
        self.counts: Counter = Counter()  # derived counters (term products, ...)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.stack: list[str] = ["bench"]
        self.last = clock()
        self.request = -1
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.span_stack: list[int] = [-1]
        self.next_sid = 0  # ids are taken when a span opens, so parents precede children
        self.spans_dropped = 0
        self._originals: dict[int, tuple] = {}  # id -> (original, wrapper)
        self._undo: list[tuple] = []  # (target, key, old value)
        self.stdout_start = 0

    # -- accounting ---------------------------------------------------------------

    def reset(self):
        """Start a fresh accounting period (the request phase)."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.inclusive_s.clear()
        self.spans.clear()
        self.next_sid = 0
        self.spans_dropped = 0
        self.last = clock()

    def stop(self) -> float:
        now = clock()
        self.self_s[self.stack[-1]] += now - self.last
        self.last = now
        return now

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for cat, t in self.self_s.items():
            out[cat.split(".")[0]] += t
        return out

    # -- wrapping ---------------------------------------------------------------------

    def _wrap(self, fn, layer: str, owner: str | None):
        key = f"{layer}.{_short(fn.__name__)}"
        cat = _category(layer, fn.__name__, owner)
        inclusive = cat if cat == "coxeter.build" else key if key in INCLUSIVE else None
        spans = layer not in AGGREGATE_ONLY
        pre, post = PRE_HOOKS.get(key), POST_HOOKS.get(key)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            stack = tr.stack
            top = stack[-1]
            tr.self_s[top] += t0 - tr.last
            tr.last = t0
            if top == "coxeter.build" and layer == "coxeter":
                # Queries made while building belong to the build.
                return fn(*args, **kwargs)
            tr.calls[key] += 1
            tr.calls[cat] += 1
            if pre is not None:
                pre(tr, args)
            span = spans and top.split(".")[0] != layer
            if span:
                sid = tr.next_sid
                tr.next_sid += 1
                parent = tr.span_stack[-1]
                tr.span_stack.append(sid)
            stack.append(cat)
            bench_before = tr.self_s["bench"]
            result = _MISSING
            t1 = clock()
            tr.self_s["bench"] += t1 - t0
            tr.last = t1
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                tr.self_s[stack.pop()] += t2 - tr.last
                if inclusive is not None:
                    nested = tr.self_s["bench"] - bench_before - (t1 - t0)
                    tr.inclusive_s[inclusive] += t2 - t1 - nested
                if span:
                    tr.span_stack.pop()
                    if sid < MAX_SPANS:  # then its parent, with a smaller id, is kept too
                        tr.spans.append((sid, parent, tr.request, key, t1, t2))
                    else:
                        tr.spans_dropped += 1
                if post is not None and result is not _MISSING:
                    post(tr, result)
                t3 = clock()
                tr.self_s["bench"] += t3 - t2
                tr.last = t3
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every layer; returns the number of functions wrapped."""
        for layer in LAYERS:
            mod = importlib.import_module(f"heckesphere.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif callable(obj) and id(obj) not in self._originals:
                    self._originals[id(obj)] = (obj, self._wrap(obj, layer, None))
        # Replace the originals wherever a package module holds them, also
        # inside module-level tables such as verify.SUITES.
        for name, mod in list(sys.modules.items()):
            if name == "heckesphere" or name.startswith("heckesphere."):
                for attr, obj in list(vars(mod).items()):
                    if not attr.startswith("__"):
                        self._replace(mod, attr, obj)
        return len(self._originals)

    def uninstall(self):
        """Put every original back."""
        while self._undo:
            target, key, old = self._undo.pop()
            self._set(target, key, old, record=False)

    def _set(self, target, key, value, record=True):
        if isinstance(target, (dict, list)):
            old = target[key]
            target[key] = value
        else:
            old = vars(target)[key]
            setattr(target, key, value)
        if record:
            self._undo.append((target, key, old))

    def _replace(self, target, key, obj, depth: int = 0):
        new = self._swap(obj, depth)
        if new is not obj:
            self._set(target, key, new)

    def _swap(self, obj, depth: int):
        got = self._originals.get(id(obj))
        if got is not None and got[0] is obj:
            return got[1]
        if depth < 3:
            if isinstance(obj, dict):
                for k, v in list(obj.items()):
                    self._replace(obj, k, v, depth + 1)
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    self._replace(obj, i, v, depth + 1)
            elif isinstance(obj, tuple):
                new = tuple(self._swap(v, depth + 1) for v in obj)
                if any(a is not b for a, b in zip(new, obj)):
                    return new
        return obj

    def _wrap_class(self, cls, layer: str):
        done: dict[int, object] = {}
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(obj, property) and obj.fget is not None:
                new = property(self._wrap(obj.fget, layer, cls.__name__))
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, layer, cls.__name__))
            elif isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(obj.__func__, layer, cls.__name__))
            elif callable(obj) and not isinstance(obj, type):
                if id(obj) not in done:  # aliases such as __radd__ = __add__
                    done[id(obj)] = self._wrap(obj, layer, cls.__name__)
                new = done[id(obj)]
            else:
                continue
            self._set(cls, attr, new)
            self._originals[id(obj)] = (obj, new)

    # -- output ---------------------------------------------------------------------------

    def spans_json(self) -> dict:
        return {
            "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped": self.spans_dropped,
        }


# Derived counters, read through the public API.  Hooks run as tracer
# bookkeeping, so their cost is charged to bench; they must not call wrapped
# functions.


def _n_terms(x) -> int:
    if isinstance(x, int):
        return 1 if x else 0
    return sum(1 for _ in _LAURENT_TERMS(x))


def _laurent_mul(tr, args):
    tr.counts["laurent.mul.term_products"] += _n_terms(args[0]) * _n_terms(args[1])


def _hecke_multiply(tr, args):
    tr.counts["hecke.multiply.term_pairs"] += len(args[1].support) * len(args[2].support)


def _captured() -> str:
    """What the workload has captured of stdout so far ("" if not captured)."""
    return getattr(sys.stdout, "getvalue", str)()


def _cli_main(tr, args):
    tr.stdout_start = len(_captured())


def _cli_main_post(tr, result):
    tr.counts["cli.stdout_bytes"] += len(_captured()[tr.stdout_start:].encode())


def _recipe_post(tr, recipe):
    tr.counts["lightleaf.recipes"] += 1
    tr.counts["lightleaf.braid_apps"] += sum(
        len(st.pre_rex.applications) + len(st.post_rex.applications) for st in recipe.steps)


PRE_HOOKS = {
    "laurent.mul": _laurent_mul,
    "hecke.multiply": _hecke_multiply,
    "cli.main": _cli_main,
}
POST_HOOKS = {
    "cli.main": _cli_main_post,
    "lightleaf.build_sll": _recipe_post,
    "lightleaf.build_nsll": _recipe_post,
}
