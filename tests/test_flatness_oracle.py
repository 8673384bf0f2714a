"""Flatness residuals against an independently coded brute force.

The oracle in tests/oracles.py inserts phi e_i and xi into T by hand,
expanding the eight-term formula multilinearly; the library must give the
same max-abs residual for every kind, in exact arithmetic, on randomized
3-dimensional (model, preset) pairs, on the same with a dense random phi
matrix (so that no slot or transpose slip hides behind a signed
permutation), and on the 5-dimensional Heisenberg model.
"""

import random

from nkt.frame_geometry import contact_audit, curvature
from nkt.t_tensor import ConditionKind, PresetName, flatness_residual, preset
from helpers import heisenberg_model, random_fraction, random_model, random_preset_at_n1
from oracles import flatness_bruteforce

_FLATNESS = (
    ConditionKind.T_FLAT,
    ConditionKind.XI_T_FLAT,
    ConditionKind.QUASI_T_FLAT,
    ConditionKind.PHI_T_FLAT,
)


def _assert_matches(model, name, numeric):
    curv = curvature(model)
    for kind in _FLATNESS:
        expected = flatness_bruteforce(model, curv, numeric, kind.value)
        assert flatness_residual(curv, numeric, kind) == expected, (name, kind)
    expected = flatness_bruteforce(model, curv, numeric, "xi-flat", strict=True)
    assert flatness_residual(curv, numeric, ConditionKind.XI_T_FLAT, strict=True) == expected


def test_flatness_matches_bruteforce_on_random_3d_pairs():
    rng = random.Random(20240)
    nonzero = set()
    for _ in range(20):
        model = random_model(rng)
        name, numeric = random_preset_at_n1(rng)
        _assert_matches(model, name, numeric)
        for kind in (ConditionKind.QUASI_T_FLAT, ConditionKind.PHI_T_FLAT):
            if flatness_residual(curvature(model), numeric, kind):
                nonzero.add(kind)
    # the phi insertions are exercised where they do not vanish
    assert nonzero == {ConditionKind.QUASI_T_FLAT, ConditionKind.PHI_T_FLAT}


def test_flatness_matches_bruteforce_with_dense_phi():
    rng = random.Random(8086)
    for _ in range(6):
        model = random_model(rng)
        phi = tuple(tuple(random_fraction(rng) for _ in range(3)) for _ in range(3))
        name, numeric = random_preset_at_n1(rng)
        _assert_matches(model.replace(phi=phi), name, numeric)


def test_flatness_matches_bruteforce_on_heisenberg_5d():
    model = heisenberg_model(2)
    assert contact_audit(model).passed
    rng = random.Random(55)
    for name in (PresetName.C, PresetName.M, PresetName.W2, PresetName.W7, PresetName.C_STAR):
        a0 = random_fraction(rng, allow_zero=False)
        a1 = random_fraction(rng, allow_zero=False)
        _assert_matches(model, name, preset(name).at(model.n, a0=a0, a1=a1))
    _assert_matches(model, "random", tuple(random_fraction(rng) for _ in range(8)))
