"""Command-line front end.

Subcommands:
    kl        print the Kazhdan-Lusztig basis element b_x
    act       expand 1 (x) b_{x_} in the spherical standard basis
    rank      graded rank polynomial for a pair of expressions
    stroll    coset strolls / decorations of subexpressions
    localize  multiset of subexpression products
    sll       spherical light-leaf recipe
    sdl       double-leaf recipe
    nsll      non-spherical light-leaf recipe
    verify    run the identity-verification suites, one line per check:
              PASS, FAIL (with counterexamples) or EMPTY (no case covered)

--format: kl, act, stroll and localize print text, json or csv; rank, sll,
sdl and nsll print text or json; verify prints text.  Any other value, and
any unknown --suite, exits 2, as does sll without exactly one of --bits and
--all, nsll without --bits, and sdl without --bits and --bits2.  Every
subcommand builds its text and, where it accepts json or csv, its JSON
document or its rows, and `_emit` prints the one --format asks for.

Exit codes: 0 success (an EMPTY check is not a failure), 1 verification
failure, 2 parse/configuration error, 3 length budget exceeded, 4 endpoint
mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog, lightleaf, strolls, verify
from .coxeter import CoxeterMatrix, CoxeterSystem
from .errors import BudgetExceeded, EndpointMismatch, HeckesphereError
from .hecke import HeckeAlgebra
from .spherical import SphericalModule

# The --format values a subcommand really produces; argparse rejects the rest.
WITH_CSV = ("text", "json", "csv")
NO_CSV = ("text", "json")


def _load_system(args) -> CoxeterSystem:
    name = args.system
    if name in catalog.BUILTIN:
        matrix = catalog.BUILTIN[name]
    else:
        matrix = CoxeterMatrix.load(name)
    return CoxeterSystem(matrix, args.budget)


def _parse_bits(spec: str, n: int, flag: str) -> tuple[int, ...]:
    spec = spec.strip()
    if len(spec) != n or any(ch not in "01" for ch in spec):
        raise HeckesphereError(f"{flag} must be a 0/1 string of length {n}")
    return tuple(int(ch) for ch in spec)


def _emit(args, doc, text: str, rows: list[dict] | None = None, indent: int | None = 2) -> int:
    """Print a result in its --format: `doc` as JSON, `rows` as CSV with a
    header from the first row's keys, or `text`.  The one reader of --format."""
    if args.format == "json":
        print(json.dumps(doc, indent=indent))
    elif args.format == "csv":
        if rows:
            import csv  # here, so that only CSV output pays for its import

            writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    else:
        print(text)
    return 0


def _element_rows(system: CoxeterSystem, elt) -> list[dict]:
    return [{"elt": system.format_word(w) or "e", "coeff": str(c)} for w, c in elt.items()]


def cmd_kl(args, system: CoxeterSystem) -> int:
    alg = HeckeAlgebra(system)
    b = alg.kl_basis(system.element(system.parse_word(args.x)))
    return _emit(args, b.to_json(system), alg.format(b), _element_rows(system, b))


def cmd_act(args, system: CoxeterSystem) -> int:
    mod = SphericalModule(HeckeAlgebra(system), frozenset(system.parse_word(args.J)))
    m = mod.expand_expression(system.parse_word(args.x))
    return _emit(args, mod.to_json(m), mod.format(m), _element_rows(system, m))


def cmd_rank(args, system: CoxeterSystem) -> int:
    J = frozenset(system.parse_word(args.J))
    poly = strolls.rank_poly(system, J, system.parse_word(args.x), system.parse_word(args.y))
    return _emit(args, poly.to_json(), str(poly), indent=None)


def cmd_stroll(args, system: CoxeterSystem) -> int:
    J = frozenset(system.parse_word(args.J))
    word = system.parse_word(args.x)
    if args.bits is not None:
        decs = [strolls.decorate(system, J, word, _parse_bits(args.bits, len(word), "--bits"))]
    else:
        decs = strolls.decorations(system, J, word)
    doc = [strolls.decoration_json(system, dec) for dec in decs]
    rows = [
        {
            "bits": "".join(map(str, r["bits"])),
            "labels": " ".join(r["labels"]),
            "stroll": " ".join(z or "e" for z in r["stroll"]),
            "endpoint": r["endpoint"] or "e",
            "sdef": r["sdef"],
        }
        for r in doc
    ]
    text = "\n".join(
        f"bits={''.join(map(str, r['bits']))} labels={','.join(r['labels'])} "
        f"stroll={','.join(z or 'e' for z in r['stroll'])} sdef={r['sdef']}"
        for r in doc
    )
    return _emit(args, doc, text, rows)


def cmd_localize(args, system: CoxeterSystem) -> int:
    counts = strolls.localized_summands(system, system.parse_word(args.x))
    rows = [{"elt": system.format_word(w) or "e", "multiplicity": n}
            for w, n in sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    text = "\n".join(f"{r['elt']}: {r['multiplicity']}" for r in rows)
    return _emit(args, rows, text, rows)


def cmd_sll(args, system: CoxeterSystem) -> int:
    J = frozenset(system.parse_word(args.J))
    word = system.parse_word(args.x)
    if args.all:
        bit_lists = list(strolls.subexpressions(len(word)))
    else:
        bit_lists = [_parse_bits(args.bits, len(word), "--bits")]
    recipes = [lightleaf.build_sll(system, J, word, bits) for bits in bit_lists]
    docs = [lightleaf.recipe_to_json(system, r) for r in recipes]
    text = "\n\n".join(lightleaf.render(system, r) for r in recipes)
    return _emit(args, docs if args.all else docs[0], text)


def cmd_sdl(args, system: CoxeterSystem) -> int:
    J = frozenset(system.parse_word(args.J))
    x = system.parse_word(args.x)
    y = system.parse_word(args.y)
    e = _parse_bits(args.bits, len(x), "--bits")
    f = _parse_bits(args.bits2, len(y), "--bits2")
    dl = lightleaf.build_sdl(system, J, x, e, y, f)
    return _emit(args, lightleaf.double_leaf_to_json(system, dl), lightleaf.render(system, dl))


def cmd_nsll(args, system: CoxeterSystem) -> int:
    J = frozenset(system.parse_word(args.J))
    word = system.parse_word(args.x)
    recipe = lightleaf.build_nsll(system, J, word, _parse_bits(args.bits, len(word), "--bits"))
    return _emit(args, lightleaf.recipe_to_json(system, recipe), lightleaf.render(system, recipe))


def cmd_verify(args, system: CoxeterSystem) -> int:
    names = list(verify.SUITES) if "all" in args.suite else args.suite
    results = verify.run_suites(system, names)
    lines = []
    for res in results:
        lines.append(f"{res.status} {res.suite}/{res.name}")
        if res.status == "FAIL":
            lines += [f"  counterexample: {msg}" for msg in res.failures[:5]]
            if len(res.failures) > 5:
                lines.append(f"  ... and {len(res.failures) - 5} more")
    _emit(args, None, "\n".join(lines))
    return 1 if any(res.status == "FAIL" for res in results) else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call; each
    parse_args call returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="heckesphere",
        description="Exact Hecke-algebra and spherical-module computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, formats, needs_J=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--system", required=True,
                       help="Coxeter matrix JSON file or a built-in name "
                            f"({', '.join(sorted(catalog.BUILTIN))})")
        p.add_argument("--budget", type=int, default=12,
                       help="length budget for group enumeration (default 12)")
        p.add_argument("--format", choices=formats, default="text")
        if needs_J:
            p.add_argument("--J", default="",
                           help="generator names, as a word is written: e.g. 's', 's,t' "
                                "or, when every name is one character, 'st'")
        return p

    p = command("kl", cmd_kl, "Kazhdan-Lusztig basis element", WITH_CSV, needs_J=False)
    p.add_argument("-x", required=True, help="group element as a word")

    p = command("act", cmd_act, "expand 1 (x) b_expr in the spherical module", WITH_CSV)
    p.add_argument("-x", required=True, help="expression (word)")

    p = command("rank", cmd_rank, "graded rank polynomial", NO_CSV)
    p.add_argument("-x", required=True)
    p.add_argument("-y", required=True)

    p = command("stroll", cmd_stroll, "coset strolls and decorations", WITH_CSV)
    p.add_argument("-x", required=True)
    p.add_argument("--bits", help="single subexpression (default: all)")

    p = command("localize", cmd_localize, "subexpression product multiset", WITH_CSV,
                needs_J=False)
    p.add_argument("-x", required=True)

    p = command("sll", cmd_sll, "spherical light-leaf recipe", NO_CSV)
    p.add_argument("-x", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--bits", help="single subexpression")
    which.add_argument("--all", action="store_true", help="all subexpressions")

    p = command("sdl", cmd_sdl, "double-leaf recipe", NO_CSV)
    p.add_argument("-x", required=True)
    p.add_argument("-y", required=True)
    p.add_argument("--bits", required=True, help="bits for -x")
    p.add_argument("--bits2", required=True, help="bits for -y")

    p = command("nsll", cmd_nsll, "non-spherical light-leaf recipe", NO_CSV)
    p.add_argument("-x", required=True)
    p.add_argument("--bits", required=True)

    p = command("verify", cmd_verify, "run identity-verification suites", ("text",),
                needs_J=False)
    p.add_argument("--suite", action="append", required=True,
                   choices=(*verify.SUITES, "all"),
                   help="suite to run, or all (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, _load_system(args))
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except EndpointMismatch as exc:
        print(f"endpoint mismatch: {exc}", file=sys.stderr)
        return 4
    except (HeckesphereError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
