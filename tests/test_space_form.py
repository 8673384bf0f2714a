"""A point given by formula rather than by a model: Blair's Sasakian space
form (tests/helpers.py) on the H^(2n+1) frame.  At c = -3 it is the
Heisenberg group's curvature, so the T layer and the nullity fit must give
the model's answers on it; at c = 1 it is the round sphere."""

from fractions import Fraction

import pytest

from nkt.frame_geometry import curvature, nullity_fit
from nkt.t_tensor import ConditionKind, PresetName, flatness_residual, preset
from helpers import heisenberg_model, space_form_curvature


@pytest.mark.parametrize("n", [1, 2])
def test_space_form_at_c_minus_3_is_the_heisenberg_curvature(n):
    model = heisenberg_model(n)
    blair, curv = space_form_curvature(model, -3), curvature(model)
    assert blair.riemann == curv.riemann
    assert blair.ricci == curv.ricci
    assert blair.scalar == curv.scalar
    assert nullity_fit(blair) == nullity_fit(curv)


@pytest.mark.parametrize("n", [1, 2])
def test_space_form_residuals_are_the_models(n):
    model = heisenberg_model(n)
    blair, curv = space_form_curvature(model, -3), curvature(model)
    for name in PresetName:
        # the starred presets at fixed free parameters
        numeric = preset(name).at(n, a0=Fraction(3, 2), a1=Fraction(-1, 2))
        for kind in ConditionKind:
            want = flatness_residual(curv, numeric, kind)
            assert flatness_residual(blair, numeric, kind) == want, (name, kind)
        kind = ConditionKind.XI_T_FLAT
        want = flatness_residual(curv, numeric, kind, strict=True)
        assert flatness_residual(blair, numeric, kind, strict=True) == want, name
        kind = ConditionKind.T_DOT_R
        want = flatness_residual(curv, numeric, kind, variant="printed")
        assert flatness_residual(blair, numeric, kind, variant="printed") == want, name


@pytest.mark.parametrize("n", [1, 2])
def test_space_form_at_c_1_has_constant_curvature_1(n):
    # R(X,Y)Z = g(Y,Z)X - g(X,Z)Y
    dim = 2 * n + 1
    want = {}
    for i in range(dim):
        for j in range(dim):
            if i != j:
                want[i, j, j, i], want[i, j, i, j] = Fraction(1), Fraction(-1)
    assert space_form_curvature(heisenberg_model(n), 1).sparse_riemann == want
