"""Frame geometry against index-by-index loops.

The library computes R, h and the Jacobi check as matrix products over its
sparse-tensor primitives; the oracles in tests/oracles.py sum the defining
formulas one index at a time.  Both must agree exactly on random 3-d
models, on random 5-d bracket tables with a dense random phi (Lie and
non-Lie, so that the first failing Jacobi triple is compared as well), and
on the Heisenberg models H^5 and H^7.
"""

import itertools
import random

import pytest

from nkt.frame_geometry import (
    InvalidModel,
    build_model,
    curvature,
    validate_structure,
)
from helpers import heisenberg_model, random_fraction, random_model, with_phi
from oracles import first_jacobi_failure, h_loop, riemann_loop


def _assert_matches_loops(model):
    dim, c = model.dim, model.structure
    failure = first_jacobi_failure(c, dim)
    if failure is not None:
        i, j, k = failure
        with pytest.raises(InvalidModel) as info:
            validate_structure(model)
        assert str(info.value) == f"Jacobi identity fails on (e_{i+1}, e_{j+1}, e_{k+1})"
        return False
    curv = curvature(model)
    riemann, h = riemann_loop(c, dim), h_loop(c, model.xi_index, model.phi, dim)
    for i, j, k, l in itertools.product(range(dim), repeat=4):
        assert curv.riemann.get((i, j, k, l), 0) == riemann[i][j][k][l]
    for i, j in itertools.product(range(dim), repeat=2):
        assert curv.h.get((i, j), 0) == h[i][j]
    assert curvature(model).h == curv.h
    return True


def _dense_phi(rng, dim):
    return [[random_fraction(rng) for _ in range(dim)] for _ in range(dim)]


def _random_table_5d(rng, entries):
    """A random antisymmetric 5-d table: almost never a Lie algebra."""
    brackets = {}
    for _ in range(entries):
        i, j = sorted(rng.sample(range(5), 2))
        brackets[(i, j, rng.randrange(5))] = random_fraction(rng, allow_zero=False)
    return [(i, j, k, value) for (i, j, k), value in brackets.items()]


def _semidirect_5d(rng):
    """R x_D R^4: [e_i, e_5] = D e_i on an abelian ideal, a Lie algebra for
    every matrix D, so its curvature is compared too."""
    return [(i, 4, k, random_fraction(rng)) for i in range(4) for k in range(4)]


def test_geometry_matches_loops_on_random_3d_models():
    rng = random.Random(31337)
    for _ in range(30):
        model = random_model(rng)
        assert _assert_matches_loops(model)
        assert _assert_matches_loops(with_phi(model, _dense_phi(rng, 3)))


def test_geometry_matches_loops_on_random_5d_tables():
    rng = random.Random(4711)
    outcomes = set()
    for trial in range(24):
        brackets = _semidirect_5d(rng) if trial % 2 else _random_table_5d(rng, 1 + trial % 7)
        model = build_model(5, brackets, rng.randrange(5), _dense_phi(rng, 5))
        outcomes.add(_assert_matches_loops(model))
    # both the curvature and the InvalidModel message were compared
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [2, 3])
def test_geometry_matches_loops_on_heisenberg(n):
    assert _assert_matches_loops(heisenberg_model(n))
