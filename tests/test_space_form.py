"""A point given by formula rather than by a model: Blair's Sasakian space
form (tests/helpers.py) on the H^(2n+1) frame.  At c = -3 it is the
Heisenberg group's curvature, so the T layer and the nullity fit must give
the model's answers on it; at c = 1 it is the round sphere."""

from collections import Counter
from fractions import Fraction

import pytest

from nkt.classification import FORM_BUILDERS, t_flat_constraint, t_flat_kappa
from nkt.frame_geometry import CurvatureData, _lincomb, curvature, nullity_fit
from nkt.scalar_algebra import C, DivisionByZero, eval_at, expr
from nkt.t_tensor import ConditionKind, PresetName, condition_components, flatness_residual
from nkt.t_tensor import preset
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
    assert space_form_curvature(heisenberg_model(n), 1).riemann == want


def _c_symbolic_space_form(model):
    """Blair's space form with c an indeterminate: R is affine in c, so it
    is R(-3) + (c+3)/4 (R(1) - R(-3)), with RationalExpr entries."""
    low, high = space_form_curvature(model, -3), space_form_curvature(model, 1)
    weight = (C + 3) / 4
    riemann = _lincomb((1 - weight, weight), (low.riemann, high.riemann))
    return CurvatureData(low.dim, low.xi_index, low.phi, riemann, {})


@pytest.mark.parametrize("n", [1, 2])
def test_condition_components_in_c_specialise_to_the_space_forms(n):
    # every condition's components on the c-symbolic tensor, evaluated at
    # c = -3 and c = 1, are the components on the Fraction tensors there
    model = heisenberg_model(n)
    symbolic = _c_symbolic_space_form(model)
    at_points = {c: space_form_curvature(model, c) for c in (-3, 1)}
    for name in PresetName:
        numeric = preset(name).at(n, a0=Fraction(3, 2), a1=Fraction(-1, 2))
        for kind in ConditionKind:
            components = condition_components(symbolic, numeric, kind)
            for c, curv in at_points.items():
                values = {key: eval_at(expr(v), {"c": c}) for key, v in components.items()}
                want = condition_components(curv, numeric, kind)
                assert {key: v for key, v in values.items() if v} == want, (name, kind, c)


def _sphere_row(curv, n, name, kind, a0=Fraction(3, 2), a1=Fraction(-1, 2)):
    """How a preset x condition row fares on the round sphere S^(2n+1):
    the residual, then table 2's T-flat constraint at kappa = 1 (with a
    contradiction, the kappa the table gives instead) or the eta-Einstein
    form at kappa = 1 and its r; the starred presets at the free parameters
    (a0, a1)."""
    point = {"n": n, "kappa": 1, "r": 2 * n * (2 * n + 1), "a0": a0, "a1": a1}
    numeric = preset(name).at(n, a0=a0, a1=a1)
    if flatness_residual(curv, numeric, kind) != 0:
        return "does not hold", None
    if kind is ConditionKind.T_FLAT:
        # the constraint binds r = 2n(2n-2+kappa), the kappa < 1 value, and
        # keeps kappa = 1 only where it vanishes for every kappa
        if eval_at(t_flat_constraint(preset(name)), point) == 0:
            return "agrees", None
        return "contradicts", eval_at(t_flat_kappa(preset(name)).root, point)
    form = FORM_BUILDERS[kind](preset(name), substitute_r=False)
    if form.is_degenerate:
        return "degenerate", None
    try:
        b = (eval_at(form.b1, point), eval_at(form.b2, point))
    except DivisionByZero:
        return "vanishing denominator", None
    # the sphere is Einstein: S = 2n g
    return ("agrees" if b == (2 * n, 0) else "contradicts"), b


def test_sphere_rows_agree_or_are_pinned_contradictions():
    # every row whose condition holds on the sphere must print S = 2n g at
    # kappa = 1, and table 2 must admit kappa = 1; the rows below print
    # something else, findings of the printed tables 2 and 7, not skips
    counts, found = Counter(), {}
    for n in range(1, 5):
        curv = space_form_curvature(heisenberg_model(n), 1)
        for name in PresetName:
            for kind in ConditionKind:
                verdict, b = _sphere_row(curv, n, name, kind)
                counts[verdict] += 1
                if verdict in ("contradicts", "vanishing denominator"):
                    found[n, name.value, kind.value] = verdict, b
    assert counts == {"does not hold": 196, "degenerate": 100, "vanishing denominator": 2,
                      "agrees": 127, "contradicts": 55}
    contradicted = {"P", "P_star", "W1", "W1_star", "W2", "W5", "W7"}
    t_flat = {"C_star", "V", "P_star", "P", "M", "W0", "W1_star"}
    # C and W2 are T-flat for any kappa; C_star's root (n-1)/n needs
    # a0 + (2n-1) a1 != 0, and at n = 2 the point (3/2, -1/2) is on that
    # line, where the constraint vanishes for every kappa
    assert {key for key, (verdict, _) in found.items() if verdict == "contradicts"} == {
        (n, name, "t-dot-s") for n in range(1, 5) for name in contradicted} | {
        (n, name, "t-flat") for n in range(1, 5) for name in t_flat} - {(2, "C_star", "t-flat")}
    assert all(b == Fraction(n - 1, n) for (n, _, kind), (_, b) in found.items()
               if kind == "t-flat")
    # P_star's quasi/phi denominator vanishes at n = 2 for a0 = 3/2, a1 = -1/2
    assert {key for key, (verdict, _) in found.items() if verdict != "contradicts"} == {
        (2, "P_star", "quasi-flat"), (2, "P_star", "phi-flat")}
    assert found[1, "P", "t-dot-s"][1] == (4, 0)


def test_sphere_rows_of_the_starred_presets_at_a_second_point():
    # at (a0, a1) = (2, 1/3) no denominator vanishes: P_star's quasi/phi
    # zeros at n = 2 belong to the point (3/2, -1/2), and its t-dot-s
    # contradiction, S = 4n^2 g against the sphere's 2n g, does not; nor
    # does table 2's kappa = (n-1)/n, here for C_star at n = 2 as well
    counts, found = Counter(), {}
    for n in range(1, 5):
        curv = space_form_curvature(heisenberg_model(n), 1)
        for name in (PresetName.C_STAR, PresetName.P_STAR):
            for kind in ConditionKind:
                verdict, b = _sphere_row(curv, n, name, kind, Fraction(2), Fraction(1, 3))
                counts[verdict] += 1
                if verdict == "contradicts":
                    found[n, name.value, kind.value] = b
    assert counts == {"agrees": 24, "degenerate": 12, "contradicts": 12}
    assert found == {**{(n, "P_star", "t-dot-s"): (4 * n * n, 0) for n in range(1, 5)},
                     **{(n, name, "t-flat"): Fraction(n - 1, n)
                        for n in range(1, 5) for name in ("C_star", "P_star")}}
