"""Coefficient presets, tensor components and flatness residuals."""

import random
from fractions import Fraction

import pytest

from nkt.frame_geometry import _max_abs, build_model, curvature, nk_lie_group_3d, nullity_fit
from nkt.scalar_algebra import C, InputError, N, eval_at, expr
from nkt.t_tensor import (
    ConditionKind,
    PresetName,
    UnevaluatedCoefficient,
    catalog,
    condition_components,
    flatness_residual,
    preset,
    preset_as_printed,
    t_components,
    t_dot_ricci,
    t_dot_riemann,
)
from helpers import STANDARD_PHI, heisenberg_model, random_model, random_numeric_coeffs
from helpers import sasakian_over_surfaces, space_form_curvature
from oracles import t_vector

HALF = Fraction(1, 2)
ZERO8 = tuple(Fraction(0) for _ in range(8))


def model_and_curvature(lam=HALF):
    model = nk_lie_group_3d(lam)
    return model, curvature(model)


# ---------------------------------------------------------------------------
# presets


def test_concircular_preset_row():
    row = preset("V").a
    assert row[0] == 1
    assert row[7] == -1 / (2 * N * (2 * N + 1))
    assert all(row[i].is_zero() for i in range(1, 7))


def test_projective_preset_row():
    row = preset("P").a
    assert row[0] == 1
    assert row[1] == -1 / (2 * N)
    assert row[2] == 1 / (2 * N)
    assert all(row[i].is_zero() for i in (3, 4, 5, 6, 7))


def test_riemann_preset_row():
    row = preset(PresetName.RIEMANN).a
    assert row[0] == 1 and all(row[i].is_zero() for i in range(1, 8))


def test_lookup_is_total_and_accepts_star_spelling():
    for name in PresetName:
        assert preset(name) is not None
    assert preset("C*") == preset("C_star")
    assert preset("w7") == preset("W7")
    with pytest.raises(KeyError):
        preset("W10")


def test_reconstructed_rows_are_flagged():
    assert any("reconstructed" in f for f in preset("W4").annotations)
    assert any("reconstructed" in f for f in preset("W0_star").annotations)
    assert any("reconstructed" in f for f in preset("W9").annotations)
    assert any("duplicate" in f for f in preset("W0").annotations)
    # the verbatim rows are retrievable and differ where flagged
    assert preset_as_printed("W0_star").a == preset("W0").a
    assert preset_as_printed("W9").a != preset("W9").a
    assert preset_as_printed("C").a == preset("C").a


def test_free_parameters_and_evaluation():
    starred = preset("C_star")
    assert starred.free_parameters() == {"a0", "a1"}
    with pytest.raises(UnevaluatedCoefficient):
        starred.at(1)
    values = starred.at(1, a0=1, a1=Fraction(1, 2))
    assert values[0] == 1 and values[1] == HALF and values[2] == -HALF
    plain = preset("C").at(2)  # n = 2: 1/(2n-1) = 1/3
    assert plain[1] == Fraction(-1, 3) and plain[7] == Fraction(1, 12)


def test_catalog_export_shape():
    data = catalog()
    assert len(data) == 20
    assert data["V"]["coefficients"][0] == "1"
    assert data["W9"]["flags"]


# ---------------------------------------------------------------------------
# components


def test_riemann_preset_reproduces_curvature():
    model, curv = model_and_curvature()
    riem = preset("Riemann").at(1)
    tv = t_components(curv, riem)
    assert tuple(tv.get((0, 2, 2, m), 0) for m in range(3)) == (Fraction(3, 4), 0, 0)
    rng = random.Random(1234)
    for extra in [model] + [random_model(rng) for _ in range(5)]:
        curv_x = curvature(extra)
        tv = t_components(curv_x, riem)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        assert tv.get((i, j, k, l), 0) == curv_x.riemann.get((i, j, k, l), 0)


def test_symbolic_coefficients_are_evaluated_or_rejected():
    model, curv = model_and_curvature()
    # plain rows evaluate at the model's n
    tv = t_components(curv, preset("V").at(1))
    assert tuple(tv.get((0, 2, 2, m), 0) for m in range(3)) == (HALF, 0, 0)
    with pytest.raises(UnevaluatedCoefficient):
        t_components(curv, preset("C_star").at(1))
    with pytest.raises(UnevaluatedCoefficient):
        t_components(curv, preset("P_star").at(1))


def test_zero_coefficients_give_zero():
    model, curv = model_and_curvature()
    tv = t_components(curv, ZERO8)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert tuple(tv.get((i, j, k, m), 0) for m in range(3)) == (0, 0, 0)
    for kind in ConditionKind:
        assert flatness_residual(curv, ZERO8, kind) == 0


def test_concircular_value_at_n1():
    model, curv = model_and_curvature()
    v = preset("V").at(1)
    # 3/4 - (r/(2n(2n+1))) with r = 3/2 gives 1/2
    tv = t_components(curv, v)
    assert tuple(tv.get((0, 2, 2, m), 0) for m in range(3)) == (HALF, 0, 0)


def test_antisymmetric_slots_of_riemann_part():
    model, curv = model_and_curvature()
    tv = t_components(curv, preset("Riemann").at(1))
    for i in range(3):
        for k in range(3):
            for l in range(3):
                assert tv.get((i, i, k, l), 0) == 0


def test_conharmonic_pinned_value():
    # frozen from the independent eight-term expansion (tests/oracles.py):
    # T(e3,e1,e1,e3) = R(e3,e1,e1,e3) + a4 S(e3,e3) = 3/4 - 3/2
    model, curv = model_and_curvature()
    conharmonic = preset("L").at(1)
    assert t_components(curv, conharmonic).get((2, 0, 0, 2), 0) == Fraction(-3, 4)


def test_two_expansions_agree_on_random_input():
    # the sparse build against the eight-term formula in tests/oracles.py
    rng = random.Random(5150)
    for _ in range(12):
        model = random_model(rng)
        curv = curvature(model)
        coeffs = random_numeric_coeffs(rng)
        tv = t_components(curv, coeffs)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    got = [tv.get((i, j, k, m), 0) for m in range(3)]
                    assert got == t_vector(curv, coeffs, i, j, k)


def test_linearity_in_coefficients():
    rng = random.Random(6021)
    for _ in range(10):
        model = random_model(rng)
        curv = curvature(model)
        a = random_numeric_coeffs(rng)
        b = random_numeric_coeffs(rng)
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        mixed = tuple(alpha * x + beta * y for x, y in zip(a, b))
        ta, tb, tm = (t_components(curv, c) for c in (a, b, mixed))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        key = (i, j, k, l)
                        want = alpha * ta.get(key, 0) + beta * tb.get(key, 0)
                        assert tm.get(key, 0) == want


def test_skew_symmetry_for_curvature_like_patterns():
    # T(X,Y) = -T(Y,X) whenever a1 = -a2, a4 = -a5, a3 = a6 = 0
    rng = random.Random(314)
    for _ in range(10):
        model = random_model(rng)
        curv = curvature(model)
        a0, a1, a4, a7 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        coeffs = (a0, a1, -a1, Fraction(0), a4, -a4, Fraction(0), a7)
        tv = t_components(curv, coeffs)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert all(tv.get((i, j, k, m), 0) == -tv.get((j, i, k, m), 0)
                               for m in range(3))


def test_xi_insertion_identity_on_exact_models():
    # on an exact nullity model, T(e_i, xi, xi, e_l) collapses to
    # a4 S + (a0 k + 2n k a1 + a7 r)(g - eta(x)eta)
    # + 2n k (a1 + a2 + a3 + a5 + a6) eta(x)eta
    rng = random.Random(99)
    for _ in range(8):
        lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        model = nk_lie_group_3d(lam)
        curv = curvature(model)
        fit = nullity_fit(curv)
        assert fit.exact
        kappa, r = fit.kappa, curv.scalar
        a = random_numeric_coeffs(rng)
        tv = t_components(curv, a)
        for i in range(3):
            for l in range(3):
                g_part = Fraction(i == l) - model.eta(i) * model.eta(l)
                eta_part = model.eta(i) * model.eta(l)
                want = (
                    a[4] * curv.ricci.get((i, l), 0)
                    + (a[0] * kappa + 2 * kappa * a[1] + a[7] * r) * g_part
                    + 2 * kappa * (a[1] + a[2] + a[3] + a[5] + a[6]) * eta_part
                )
                assert tv.get((i, 2, 2, l), 0) == want


# ---------------------------------------------------------------------------
# flatness residuals


def test_w7_is_xi_flat_on_the_model():
    _, curv = model_and_curvature()
    w7 = preset("W7").at(1)
    assert flatness_residual(curv, w7, ConditionKind.XI_T_FLAT) == 0
    # the full T(X1,X2)xi = 0 sweep is strictly stronger and fails here
    assert flatness_residual(curv, w7, ConditionKind.XI_T_FLAT, strict=True) > 0


def test_conharmonic_is_not_xi_flat_on_the_model():
    model, curv = model_and_curvature()
    value = flatness_residual(curv, preset("L").at(1), ConditionKind.XI_T_FLAT)
    assert value != 0
    # the residual is a4 times the gap between the model Ricci and the
    # classified eta-Einstein form evaluated at n = 1, kappa = 3/4
    from nkt.classification import xi_flat_form

    form = xi_flat_form(preset("L"), substitute_r=True)
    point = {"n": 1, "kappa": Fraction(3, 4)}
    b1 = eval_at(form.b1, point)
    b2 = eval_at(form.b2, point)
    a4 = preset("L").at(1)[4]
    worst = Fraction(0)
    for i in range(3):
        for l in range(3):
            table_ricci = b1 * Fraction(i == l) + b2 * model.eta(i) * model.eta(l)
            worst = max(worst, abs(a4 * (curv.ricci.get((i, l), 0) - table_ricci)))
    assert value == worst == Fraction(3, 4)


def test_flatness_requires_numeric_coefficients():
    _, curv = model_and_curvature()
    with pytest.raises(UnevaluatedCoefficient):
        flatness_residual(curv, preset("C_star").at(1), ConditionKind.T_FLAT)


def test_an_unevaluated_coefficient_record_is_rejected_by_name():
    # the record of symbolic entries, not its evaluation: a TypeError from
    # as_rational would not say what to call
    _, curv = model_and_curvature()
    for call in (lambda: flatness_residual(curv, preset("W7"), ConditionKind.XI_T_FLAT),
                 lambda: t_dot_riemann(curv, preset("W1"))):
        with pytest.raises(UnevaluatedCoefficient, match=r"\.at\(n, a0, a1\)"):
            call()


def test_constant_expression_coefficients_are_their_numbers():
    # a constant RationalExpr entry is read as the rational it holds; an
    # entry with an indeterminate is named, not a TypeError from as_rational
    _, curv = model_and_curvature()
    numeric = preset("V").at(1)
    as_exprs = tuple(expr(x) for x in numeric)
    for kind in ConditionKind:
        assert flatness_residual(curv, as_exprs, kind) == flatness_residual(curv, numeric, kind)
    for coeffs, names in ((preset("V").a, "n"), (preset("C_star").a, "n, a0, a1"),
                          ((expr("kappa"), *numeric[1:]), "kappa")):
        with pytest.raises(UnevaluatedCoefficient, match=f"need values for {names}$"):
            flatness_residual(curv, coeffs, ConditionKind.XI_T_FLAT)


@pytest.mark.parametrize("n", [1, 2])
def test_residuals_are_the_max_abs_of_the_condition_components(n):
    # every residual reads the one component function: on the Heisenberg
    # group and the space forms at c = -3 and c = 1, every preset (starred at
    # two points) x condition, with strict xi-flat and printed t-dot-r
    model = heisenberg_model(n)
    points = ((Fraction(3, 2), Fraction(-1, 2)), (Fraction(2), Fraction(1, 3)))
    vectors = {preset(name).at(n, a0, a1) for name in PresetName for a0, a1 in points}
    cases = [(kind, {}) for kind in ConditionKind] + [
        (ConditionKind.XI_T_FLAT, {"strict": True}),
        (ConditionKind.T_DOT_R, {"variant": "printed"})]
    curvatures = (curvature(model), *(space_form_curvature(model, c) for c in (-3, 1)))
    for curv in curvatures:
        for numeric in vectors:
            for kind, options in cases:
                want = flatness_residual(curv, numeric, kind, **options)
                assert _max_abs(condition_components(curv, numeric, kind, **options)) == want


def test_residuals_over_a_symbolic_curvature_name_condition_components():
    # the c-symbolic H^3 space form: its components are RationalExprs in c,
    # which have no max-abs; the error names the call that takes them
    symbolic = sasakian_over_surfaces(1, [C + 3])
    numeric = preset("V").at(1)
    assert condition_components(symbolic, numeric, ConditionKind.XI_T_FLAT)
    for call in (lambda: flatness_residual(symbolic, numeric, ConditionKind.XI_T_FLAT),
                 lambda: t_dot_riemann(symbolic, numeric),
                 lambda: t_dot_ricci(symbolic, numeric)):
        with pytest.raises(InputError, match="needs a numeric R; condition_components"):
            call()


def test_quasi_and_phi_sweeps_on_abelian_model():
    flat = build_model(3, [], 2, STANDARD_PHI)
    for kind in (ConditionKind.QUASI_T_FLAT, ConditionKind.PHI_T_FLAT,
                 ConditionKind.T_FLAT, ConditionKind.XI_T_FLAT):
        assert flatness_residual(curvature(flat), preset("Riemann").at(1), kind) == 0


def test_derivation_residual_trivial_cases():
    _, curv = model_and_curvature()
    assert t_dot_riemann(curv, ZERO8) == 0
    assert t_dot_ricci(curv, ZERO8) == 0
    flat = build_model(3, [], 2, STANDARD_PHI)
    rng = random.Random(12)
    assert t_dot_riemann(curvature(flat), (Fraction(3), *([Fraction(0)] * 7))) == 0
    assert t_dot_ricci(curvature(flat), random_numeric_coeffs(rng)) == 0  # Ricci-flat


def test_derivation_residual_pinned_values():
    # frozen from the brute-force expansions in tests/oracles.py
    _, curv = model_and_curvature()
    assert t_dot_riemann(curv, preset("W1").at(1)) == Fraction(9, 4)
    assert t_dot_riemann(curv, preset("W1").at(1), variant="printed") == Fraction(9, 4)
    assert t_dot_ricci(curv, preset("P").at(1)) == Fraction(9, 8)


def test_flatness_residual_forwards_the_derivation_variant():
    # on this vector the two fourth-term variants of T(xi,X).R differ
    _, curv = model_and_curvature()
    coeffs = tuple(Fraction(x) for x in (0, 3, 0, 0, 2, 0, 3, -2))
    standard = t_dot_riemann(curv, coeffs)
    printed = t_dot_riemann(curv, coeffs, variant="printed")
    assert standard != printed
    kind = ConditionKind.T_DOT_R
    assert flatness_residual(curv, coeffs, kind) == standard
    assert flatness_residual(curv, coeffs, kind, variant="printed") == printed
    assert flatness_residual(curv, coeffs, ConditionKind.T_DOT_S) == t_dot_ricci(curv, coeffs)
