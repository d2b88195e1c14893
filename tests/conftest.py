"""Shared fixtures: cached algebras and Stiefel spaces (expensive builds)."""

import os

import pytest
from hypothesis import settings

from go_metric_lab import decomp, go, isotropy, lie_core, linalg, stiefel

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


@pytest.fixture
def accept_first_draws(monkeypatch):
    """accept_first_draws(k): from then on each `go._random_points` call
    accepts its first k positive definite draws and rejects every later
    one, so a scan draws k samples however many it asks for."""
    def patch(accepted: int) -> None:
        random_points = go._random_points
        pd_check = linalg.sym_positive_definite

        def short(*args):
            taken = []

            def first_few(ga):
                ok = len(taken) < accepted and pd_check(ga)
                taken.extend([ga] if ok else [])
                return ok

            with monkeypatch.context() as m:
                m.setattr(linalg, "sym_positive_definite", first_few)
                return random_points(*args)

        monkeypatch.setattr(go, "_random_points", short)
    return patch
