"""A point given by formula rather than by a model: Blair's Sasakian space
form (tests/helpers.py) on the H^(2n+1) frame.  At c = -3 it is the
Heisenberg group's curvature, so the T layer and the nullity fit must give
the model's answers on it; at c = 1 it is the round sphere."""

import contextlib
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from nkt.classification import eta_einstein_form, t_flat_constraint, t_flat_kappa
from nkt.frame_geometry import (
    CurvatureData, _lincomb, build_model, contact_audit, curvature, nk_lie_group_3d,
    nullity_fit)
from nkt.scalar_algebra import C, DivisionByZero, eval_at, expr
from nkt.t_tensor import ConditionKind, PresetName, condition_components, flatness_residual
from nkt.t_tensor import coeffs_from, preset
from helpers import heisenberg_model, kernel, sasakian_over_surfaces, space_form_curvature


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


_KERNEL_KINDS = (ConditionKind.XI_T_FLAT, ConditionKind.QUASI_T_FLAT, ConditionKind.PHI_T_FLAT,
                 ConditionKind.T_DOT_R, ConditionKind.T_DOT_S)


@pytest.mark.parametrize("n, c, dims", [
    (1, 1, (6, 5, 5, 6, 6)), (1, -3, (6, 4, 5, 4, 5)), (1, Fraction(1, 2), (6, 4, 5, 4, 5)),
    (2, 1, (6, 5, 5, 6, 6)), (2, -3, (6, 3, 4, 4, 5)), (2, Fraction(1, 2), (6, 3, 4, 4, 5)),
])
def test_printed_forms_hold_on_the_whole_kernel_of_each_condition(n, c, dims):
    # every condition is linear in (a0, ..., a7): its kernel on the space
    # form is the set of coefficient vectors for which it holds there.  The
    # printed forms give the space form's S = b1 g + b2 eta (x) eta at w and
    # at w + v_i for every basis vector v_i, so A - b1 C and B - b2 C vanish
    # on the whole kernel; the printed t-dot-s form gives it at none of them
    curv = space_form_curvature(heisenberg_model(n), c)
    units = [tuple(Fraction(p == q) for q in range(8)) for p in range(8)]
    b1, b2 = Fraction(n * (c + 3) + c - 1, 2), -Fraction((n + 1) * (c - 1), 2)
    point = {"n": n, "kappa": 1, "r": (2 * n + 1) * b1 + b2}
    for kind, dim in zip(_KERNEL_KINDS, dims):
        basis = kernel([condition_components(curv, unit, kind) for unit in units])
        assert len(basis) == dim, kind
        w = [sum((i + 2) * v[p] for i, v in enumerate(basis)) for p in range(8)]
        for vector in [w] + [[x + y for x, y in zip(w, v)] for v in basis]:
            form, values = eta_einstein_form(kind, coeffs_from(vector)), None
            with contextlib.suppress(DivisionByZero):  # C may vanish at kappa = 1
                if not form.is_degenerate:
                    values = eval_at(form.b1, point), eval_at(form.b2, point)
            assert (values == (b1, b2)) is (kind is not ConditionKind.T_DOT_S), (kind, vector)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2)])
def test_printed_forms_on_the_kernels_of_the_3d_family(lam):
    # the same pin on an N(kappa) group at n = 1, kappa = 1 - lambda^2,
    # where S = 0 g + 2 kappa eta (x) eta.  Some printed forms carry an
    # (n - 1) denominator, so the check is on A - b1 C and B - b2 C with
    # A = form.b1 * C, linear in the coefficients.  The t-dot-s form's b2
    # fails at every checked vector: h != 0 lies outside its Killing
    # hypothesis, so that is information, not a contradiction
    curv = curvature(nk_lie_group_3d(lam))
    kappa = 1 - lam * lam
    fit = nullity_fit(curv)
    assert (fit.kappa, fit.mu, fit.exact) == (kappa, 0, True)
    assert curv.ricci == {(curv.xi_index, curv.xi_index): 2 * kappa}
    assert curv.scalar == 2 * kappa
    units = [tuple(Fraction(p == q) for q in range(8)) for p in range(8)]
    b1, b2 = 0, 2 * kappa
    point = {"n": 1, "kappa": kappa, "r": 2 * kappa}
    for kind, dim in zip((ConditionKind.T_FLAT,) + _KERNEL_KINDS, (1, 6, 6, 7, 4, 6)):
        basis = kernel([condition_components(curv, unit, kind) for unit in units])
        assert len(basis) == dim, kind
        if kind is ConditionKind.T_FLAT:
            assert eval_at(t_flat_constraint(coeffs_from(basis[0])), point) == 0
            continue
        w = [sum((i + 2) * v[p] for i, v in enumerate(basis)) for p in range(8)]
        for vector in [w] + [[x + y for x, y in zip(w, v)] for v in basis]:
            form = eta_einstein_form(kind, coeffs_from(vector))
            c = form.denominator_condition
            holds = (eval_at(form.b1 * c - b1 * c, point) == 0,
                     eval_at(form.b2 * c - b2 * c, point) == 0)
            assert holds == (True, kind is not ConditionKind.T_DOT_S), (kind, vector)


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
    form = eta_einstein_form(kind, preset(name), substitute_r=False)
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


def _group_over_surfaces(n, ks):
    """[e_p, e_(n+p)] = 2 xi + k_p e_(n+p), with H^(2n+1)'s frame and phi."""
    model = heisenberg_model(n)
    dim, xi = model.dim, model.xi_index
    brackets = [(p, n + p, xi, 2) for p in range(n)]
    brackets += [(p, n + p, n + p, k) for p, k in enumerate(ks) if k]
    rows = [[model.phi.get((i, j), 0) for j in range(dim)] for i in range(dim)]
    return build_model(dim, brackets, xi, rows)


@pytest.mark.parametrize("ks", [(1,), (2,), (Fraction(1, 2),), (1, 2), (0, 3),
                                (1, Fraction(1, 3), 2)])
def test_sasakian_over_surfaces_is_the_curvature_of_its_group(ks):
    # a Sasakian group over a product of surfaces of curvature K_p = -k_p^2
    n = len(ks)
    model = _group_over_surfaces(n, ks)
    curv = curvature(model)
    assert contact_audit(model).passed
    assert curv.h == {}
    fit = nullity_fit(curv)
    assert (fit.kappa, fit.mu, fit.exact) == (1, 0, True)
    assert sasakian_over_surfaces(n, [-Fraction(k) ** 2 for k in ks]).riemann == curv.riemann
    r = curv.riemann
    for i, j, k, l in product(range(model.dim), repeat=4):
        assert r.get((i, j, k, l), 0) + r.get((j, k, i, l), 0) + r.get((k, i, j, l), 0) == 0


def test_sasakian_over_one_surface_is_a_space_form():
    # at n = 1 the one plane is the contact distribution: c = K - 3
    model = heisenberg_model(1)
    for big_k in (-1, -4, Fraction(-1, 4), 0, Fraction(5, 2)):
        want = space_form_curvature(model, big_k - 3).riemann
        assert sasakian_over_surfaces(1, [Fraction(big_k)]).riemann == want
        assert sasakian_over_surfaces(1, [expr(big_k)]).riemann == want
    assert sasakian_over_surfaces(1, [C + 3]).riemann == _c_symbolic_space_form(model).riemann
