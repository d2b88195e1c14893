"""Shared fixtures: cached algebras and Stiefel spaces (expensive builds)."""

import os

import pytest
from hypothesis import settings

from go_metric_lab import decomp, isotropy, lie_core, stiefel

settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("dev", max_examples=10, deadline=None)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "ci"))

_ALGEBRAS = {}
_SPACES = {}


def get_un(n: int) -> lie_core.MatrixLieAlgebra:
    if n not in _ALGEBRAS:
        _ALGEBRAS[n] = lie_core.build_un(n)
    return _ALGEBRAS[n]


def get_space(n: int, k: int) -> stiefel.StiefelSpace:
    if (n, k) not in _SPACES:
        _SPACES[(n, k)] = stiefel.build_stiefel(n, k)
    return _SPACES[(n, k)]


@pytest.fixture(scope="session")
def un():
    return get_un


@pytest.fixture(scope="session")
def space():
    return get_space


def build_two_torus() -> isotropy.IsotypicalDecomposition:
    """u(4) over the 2-torus span{eb_1_1 + eb_2_2, eb_3_3 + eb_4_4}, built
    afresh: S0 = su(2) (+) su(2), two simple ideals and no center."""
    g = lie_core.build_un(4)
    h = decomp.subalgebra(g, [g.vector(("eb_1_1", 1), ("eb_2_2", 1)),
                              g.vector(("eb_3_3", 1), ("eb_4_4", 1))])
    return isotropy.decompose_isotypic(
        isotropy.isotropy_action(decomp.reductive_split(g, h)))


@pytest.fixture(scope="session")
def two_torus():
    return build_two_torus
