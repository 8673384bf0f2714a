"""Derivation operators against an independently coded brute force.

The oracle in tests/oracles.py expands the four-term derivation of the
curvature tensor and the two-slot action on the Ricci tensor directly, with
its own tensor-application code; the library must agree componentwise on
randomized (model, preset) pairs, in exact arithmetic.
"""

import random
from fractions import Fraction

from nkt.frame_geometry import curvature
from nkt.t_tensor import ConditionKind, condition_components, t_dot_ricci, t_dot_riemann
from helpers import random_model, random_preset_at_n1
from oracles import t_dot_riemann_bruteforce, t_dot_ricci_bruteforce


def _pairs(count=20, seed=424242):
    rng = random.Random(seed)
    for _ in range(count):
        model = random_model(rng)
        name, numeric = random_preset_at_n1(rng)
        yield model, name, numeric


def test_t_dot_riemann_matches_bruteforce_componentwise():
    for model, name, numeric in _pairs():
        curv = curvature(model)
        expected = t_dot_riemann_bruteforce(model, curv, numeric)
        got = condition_components(curv, numeric, ConditionKind.T_DOT_R)
        dim = model.dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        cell = tuple(got.get((i, j, k, l, m), 0) for m in range(dim))
                        assert cell == expected[(i, j, k, l)], (name, i, j, k, l)
        assert t_dot_riemann(curv, numeric) == max(
            (abs(x) for cell in expected.values() for x in cell),
            default=Fraction(0),
        )


def test_t_dot_riemann_printed_variant_matches_bruteforce():
    for model, name, numeric in _pairs(count=8, seed=5):
        curv = curvature(model)
        expected = t_dot_riemann_bruteforce(model, curv, numeric, variant="printed")
        got = condition_components(curv, numeric, ConditionKind.T_DOT_R, variant="printed")
        dim = model.dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        cell = tuple(got.get((i, j, k, l, m), 0) for m in range(dim))
                        assert cell == expected[(i, j, k, l)]


def test_t_dot_ricci_matches_bruteforce_componentwise():
    for model, name, numeric in _pairs(seed=777):
        curv = curvature(model)
        expected = t_dot_ricci_bruteforce(model, curv, numeric)
        got = condition_components(curv, numeric, ConditionKind.T_DOT_S)
        dim = model.dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    assert got.get((i, j, k), 0) == expected[(i, j, k)], (name, i, j, k)
        assert t_dot_ricci(curv, numeric) == max(
            (abs(v) for v in expected.values()), default=Fraction(0)
        )


def test_variants_differ_only_in_fourth_term_slots():
    # on a model with R(e_i,e_j)-dependence the two variants genuinely
    # disagree somewhere, which pins that both are implemented
    rng = random.Random(31)
    seen_difference = False
    for _ in range(10):
        model = random_model(rng)
        _, numeric = random_preset_at_n1(rng)
        curv, kind = curvature(model), ConditionKind.T_DOT_R
        std = condition_components(curv, numeric, kind)
        prt = condition_components(curv, numeric, kind, variant="printed")
        if std != prt:
            seen_difference = True
            break
    assert seen_difference
