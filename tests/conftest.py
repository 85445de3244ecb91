import contextlib
import sys

import pytest

from heckesphere import catalog
from heckesphere.coxeter import CoxeterMatrix, CoxeterSystem
from heckesphere.hecke import HeckeAlgebra


# Groups for the tests only: an entry in `catalog` would also be a CLI
# --system value.
AFFINE_A2 = CoxeterMatrix(("s", "t", "u"), ((1, 3, 3), (3, 1, 3), (3, 3, 1)))
H4 = CoxeterMatrix(("s", "t", "u", "v"),
                   ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)))
F4 = CoxeterMatrix(("s", "t", "u", "v"),
                   ((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1)))
B4 = CoxeterMatrix(("s", "t", "u", "v"),
                   ((1, 4, 2, 2), (4, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)))
D4 = CoxeterMatrix(("s", "t", "u", "v"),
                   ((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1)))


@contextlib.contextmanager
def shallow_stack(headroom=100):
    """Run the block with the recursion limit `headroom` frames above the
    caller's stack depth, so that a call recursing once per letter of a long
    word raises RecursionError; the old limit is restored afterwards."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# (system fixture, longest word): the domain on which each stored degree is
# checked against its definition, every finitary J included.
DEGREE_COVER = [("a2", 4), ("b2", 4), ("a3", 3), ("b3", 3), ("h3", 3)]


@pytest.fixture(scope="session")
def affine_a2():
    return CoxeterSystem(AFFINE_A2, 8)


@pytest.fixture(scope="session")
def h4():
    return CoxeterSystem(H4, 60)


@pytest.fixture(scope="session")
def f4():
    return CoxeterSystem(F4, 24)


@pytest.fixture(scope="session")
def a2():
    return CoxeterSystem(catalog.A2, 10)


@pytest.fixture(scope="session")
def b2():
    return CoxeterSystem(catalog.B2, 10)


@pytest.fixture(scope="session")
def a3():
    return CoxeterSystem(catalog.A3, 12)


@pytest.fixture(scope="session")
def b3():
    return CoxeterSystem(catalog.B3, 12)


@pytest.fixture(scope="session")
def h3():
    return CoxeterSystem(catalog.H3, 18)


@pytest.fixture(scope="session")
def i2_7():
    return CoxeterSystem(catalog.I2_7, 10)


@pytest.fixture(scope="session")
def inf_dihedral():
    return CoxeterSystem(catalog.INF_DIHEDRAL, 8)


@pytest.fixture(scope="session")
def a2_algebra(a2):
    return HeckeAlgebra(a2)


@pytest.fixture(scope="session")
def b2_algebra(b2):
    return HeckeAlgebra(b2)
