"""The record contract: every record of the package is an immutable,
hashable NamedTuple, built positionally, compared by value and shown as
Name(field=value, ...)."""

import os
import subprocess
import sys

import pytest

import heckesphere
from heckesphere import catalog, lightleaf, strolls, verify
from heckesphere.coxeter import CoxeterMatrix, CoxeterSystem
from heckesphere.errors import InvalidMatrix

S, T = 0, 1
A2 = CoxeterSystem(catalog.A2, 10)
J = frozenset({S})
WORD, BITS = (T, S, T), (1, 1, 1)  # labels U1 U1 X1: a wall plug-in

# One instance of each record, as the package builds it.
RECORDS = {
    "CoxeterMatrix": lambda: catalog.B3,
    "ParabolicData": lambda: A2.parabolic({S, T}),
    "RexMove": lambda: A2.rex_path((S, T, S), (T, S, T)),
    "Decoration": lambda: strolls.decorate(A2, J, WORD, BITS),
    "DoubleLeafPair": lambda: strolls.double_leaf_index(A2, J, WORD, WORD)[-1],
    "LLStep": lambda: lightleaf.build_sll(A2, J, WORD, BITS).steps[-1],
    "NSStep": lambda: lightleaf.build_nsll(A2, J, WORD, BITS).steps[-1],
    "LLRecipe": lambda: lightleaf.build_sll(A2, J, WORD, BITS),
    "DoubleLeafRecipe": lambda: lightleaf.glue(*[lightleaf.build_sll(A2, J, WORD, BITS)] * 2),
    "CheckResult": lambda: verify.CheckResult("hecke", "kl-wellformed", ("a failure",), 3, 0),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    rec = RECORDS[request.param]()
    assert type(rec).__name__ == request.param
    return rec


def test_fields_cannot_be_set(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equal_fields_give_equal_objects_and_hashes(record):
    again = type(record)(*record)
    assert again is not record
    assert again == record and hash(again) == hash(record)
    assert tuple(again) == tuple(record) and len(again) == len(record._fields)


def test_repr_names_every_field(record):
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_an_llstep_never_equals_an_nsstep():
    ll = lightleaf.build_sll(A2, J, WORD, BITS).steps[0]
    ns = lightleaf.build_nsll(A2, J, WORD, BITS).steps[0]
    assert tuple(ns[: len(ll)]) == tuple(ll)  # the same step, seen twice
    assert ll != ns and ns != ll and len({ll, ns}) == 2
    assert isinstance(ns, lightleaf.NSStep) and not isinstance(ll, lightleaf.NSStep)


def test_replace_flipped_keeps_every_other_field():
    recipe = lightleaf.build_sll(A2, J, WORD, BITS)
    flipped = recipe._replace(flipped=True)
    assert flipped.flipped and not recipe.flipped
    for field in recipe._fields:
        if field != "flipped":
            assert getattr(flipped, field) is getattr(recipe, field)
    assert lightleaf.glue(recipe, recipe).upper == flipped


@pytest.mark.parametrize("gens,m", [
    pytest.param((), (), id="no-generators"),
    pytest.param(("s", "t"), ((1, 3),), id="too-few-rows"),
    pytest.param(("s", "t"), ((1, 3), (3, 1), (2, 2)), id="too-many-rows"),
    pytest.param(("s", "t"), ((1, 3), (3,)), id="short-row"),
    pytest.param(("s", "t"), ((1, 3, 2), (3, 1)), id="long-row"),
])
def test_positional_matrix_rejects_malformed_shapes(gens, m):
    # The entry checks (diagonal, symmetry, bonds) are in test_coxeter.TestMatrix.
    with pytest.raises(InvalidMatrix):
        CoxeterMatrix(gens, m)


def test_replace_and_make_check_the_matrix_too():
    with pytest.raises(InvalidMatrix, match="diagonal"):
        catalog.A2._replace(m=((2, 3), (3, 1)))
    with pytest.raises(InvalidMatrix, match="shape"):
        CoxeterMatrix._make([("s", "t"), ((1, 3),)])
    b2 = catalog.A2._replace(m=((1, 4), (4, 1)))
    assert type(b2) is CoxeterMatrix and b2 == catalog.B2
    assert CoxeterMatrix._make(catalog.B3) == catalog.B3


def test_import_loads_neither_dataclasses_nor_csv():
    src = os.path.dirname(os.path.dirname(heckesphere.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import heckesphere.cli, heckesphere.verify, heckesphere.lightleaf; "
        "print(sorted({'dataclasses', 'csv'} & set(sys.modules)))"
    )
    # -S: no site module, so nothing but the package decides what is loaded.
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
