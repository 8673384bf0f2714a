"""Symbolic classification derivations, Boeckx invariant, deformations."""

import random
from fractions import Fraction

import pytest

from nkt.classification import (
    FORM_BUILDERS,
    SCALAR_CURVATURE,
    FormTag,
    SasakianInput,
    ZeroDeformation,
    boeckx,
    boeckx_example,
    consistency_kappa,
    d_homothetic,
    load_golden_table,
    phi_flat_form,
    quasi_flat_form,
    t_dot_ricci_form,
    t_dot_riemann_form,
    t_flat_constraint,
    t_flat_kappa,
    xi_flat_form,
)
from nkt.scalar_algebra import A0, A1, KAPPA, N, S, InputError, eval_at, expr, substitute
from nkt.t_tensor import PresetName, coeffs_from, preset

ZERO_COEFFS = coeffs_from([0] * 8)


# ---------------------------------------------------------------------------
# the T-flat constraint and its kappa roots


def test_constraint_vanishes_for_zero_coefficients():
    assert t_flat_constraint(ZERO_COEFFS).is_zero()


def test_constraint_concircular_shape():
    got = t_flat_constraint(preset("V"))
    assert got == (KAPPA * (2 * N + 1) - (2 * N - 2 + KAPPA)) / (2 * N + 1)


def test_constraint_quasi_conformal_factors():
    got = t_flat_constraint(preset("C_star"))
    want = (A0 + (2 * N - 1) * A1) * (2 * N * KAPPA - 2 * N + 2) / (2 * N + 1)
    assert got == want


@pytest.mark.parametrize(
    "name,root",
    [
        ("C_star", (N - 1) / N),
        ("L", 2 - 2 * N),
        ("V", (N - 1) / N),
        ("P_star", (N - 1) / N),
        ("P", (N - 1) / N),
        ("M", (N - 1) / N),
        ("W0", (N - 1) / N),
        ("W0_star", (1 - N) / N),
        ("W1", (1 - N) / N),
        ("W1_star", (N - 1) / N),
        ("W3", expr(0)),
        ("W4", expr(0)),
        ("W5", expr(0)),
        ("W6", (N - 1) / N),
        ("W7", (N - 1) / (2 * N)),
        ("W8", (N - 1) / N),
    ],
)
def test_t_flat_kappa_unique_roots(name, root):
    solution = t_flat_kappa(preset(name))
    assert solution.is_unique and solution.root == root


@pytest.mark.parametrize("name", ["C", "W2", "W9"])
def test_t_flat_kappa_identity_rows(name):
    assert t_flat_kappa(preset(name)).is_identity


def test_side_condition_for_free_parameter_rows():
    sol = t_flat_kappa(preset("C_star"))
    assert sol.side_condition == 2 * N * (A0 + (2 * N - 1) * A1)
    sol = t_flat_kappa(preset("P_star"))
    assert sol.side_condition == 2 * N * (A0 - A1)


# ---------------------------------------------------------------------------
# eta-Einstein forms (the spot anchors of each reference table)


def test_quasi_flat_anchors():
    form = quasi_flat_form(preset("C"), substitute_r=True)
    assert form.b1 == 2 * N - 2
    assert form.b2 == 2 * (N * KAPPA - N + 1)
    assert form.tag is FormTag.ETA_EINSTEIN

    form = quasi_flat_form(preset("P"), substitute_r=True)
    assert form.b1 == 2 * N * KAPPA and form.b2.is_zero()
    assert form.tag is FormTag.EINSTEIN

    form = quasi_flat_form(preset("L"), substitute_r=True)
    assert form.b1 == KAPPA * (2 * N - 1) + 4 * (N - 1) * N
    assert form.b2 == 2 * N * KAPPA + KAPPA


def test_phi_flat_anchors():
    form = phi_flat_form(preset("M"), substitute_r=True)
    assert form.b1 == 2 * N * (KAPPA + N - 1) / (N + 1)
    assert form.b2 == 2 * N * (N * KAPPA - N + 1) / (N + 1)

    form = phi_flat_form(preset("W6"), substitute_r=True)
    assert form.b1 == 2 * N * KAPPA and form.b2.is_zero()


def test_phi_flat_trace_is_forced():
    rng = random.Random(2)
    for _ in range(10):
        entries = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)]
        form = phi_flat_form(coeffs_from(entries), substitute_r=True)
        if form.is_degenerate:
            continue
        assert (form.b1 + form.b2 - 2 * N * KAPPA).is_zero()


def test_xi_flat_anchors():
    form = xi_flat_form(preset("L"), substitute_r=True)
    assert form.b1 == -KAPPA
    assert form.b2 == 2 * N * KAPPA + KAPPA

    form = xi_flat_form(preset("W7"), substitute_r=True)
    assert form.b1.is_zero() and form.b2 == 2 * N * KAPPA

    assert xi_flat_form(preset("V")).is_degenerate  # a4 = 0


def test_quasi_and_phi_share_numerator_and_hypothesis():
    for name in PresetName:
        coeffs = preset(name)
        quasi = quasi_flat_form(coeffs, substitute_r=True)
        phi = phi_flat_form(coeffs, substitute_r=True)
        assert quasi.denominator_condition == phi.denominator_condition
        if not quasi.is_degenerate:
            assert quasi.b1 == phi.b1


def test_forms_built_with_r_bound_equal_the_substituted_symbolic_forms():
    # the reference pipeline: build with the symbol r, then substitute it
    for name in PresetName:
        coeffs = preset(name)
        for condition, build in FORM_BUILDERS.items():
            bound, symbolic = build(coeffs, substitute_r=True), build(coeffs)
            assert bound.denominator_condition == symbolic.denominator_condition
            if symbolic.is_degenerate:
                assert bound.is_degenerate, (name, condition)
                continue
            b1, b2 = (substitute(b, "r", SCALAR_CURVATURE) for b in (symbolic.b1, symbolic.b2))
            tag = FormTag.EINSTEIN if b2.is_zero() else FormTag.ETA_EINSTEIN
            assert (bound.b1, bound.b2, bound.tag) == (b1, b2, tag), (name, condition)


def test_t_dot_riemann_anchors():
    form = t_dot_riemann_form(preset("W1"))
    assert form.b1 == 2 * N * KAPPA and form.b2.is_zero()

    form = t_dot_riemann_form(preset("W4"))
    assert form.b1.is_zero() and form.b2 == 2 * N * KAPPA

    assert t_dot_riemann_form(preset("V")).is_degenerate  # a1 = a5 = 0


def test_t_dot_ricci_anchors():
    form = t_dot_ricci_form(preset("P"), substitute_r=True)
    assert form.b1 == 4 * N ** 2 * KAPPA ** 2 and form.b2.is_zero()

    form = t_dot_ricci_form(preset("W1"), substitute_r=True)
    assert form.b1 == 4 * N * KAPPA * (-N * KAPPA + 2 * N - 2)
    assert form.b2 == 8 * N * KAPPA * (-N + 1 + N * KAPPA)

    assert t_dot_ricci_form(preset("V")).is_degenerate


def test_table_7_rows_miss_the_sasakian_trace():
    # table 7 assumes a Killing Reeb field, which makes an N(kappa) manifold
    # Sasakian: kappa = 1, where S(xi, xi) = b1 + b2 = 2n.  No row gives 2n
    # there, for any r; a finding about the printed table, pinned as found
    off = {}
    for name in load_golden_table(7):
        form = t_dot_ricci_form(preset(name), substitute_r=False)
        off[name.value] = substitute(form.b1 + form.b2, "kappa", 1) - 2 * N
    assert off == {
        **dict.fromkeys(("P", "P_star", "W1", "W1_star", "W6", "W7", "W8"), 4 * N ** 2 - 2 * N),
        **dict.fromkeys(("W2", "W4", "W5"), 4 * N ** 2 - 6 * N),
    }


def test_consistency_kappa_against_flat_classification():
    # the trace constraint applied to the quasi forms recovers the T-flat
    # kappa classification on the anchor rows
    assert consistency_kappa(quasi_flat_form(preset("C"), substitute_r=True)).is_identity
    sol = consistency_kappa(quasi_flat_form(preset("L"), substitute_r=True))
    assert sol.is_unique and sol.root == 2 - 2 * N
    sol = consistency_kappa(quasi_flat_form(preset("V"), substitute_r=True))
    assert sol.is_unique and sol.root == (N - 1) / N


def test_consistency_kappa_requires_substituted_r():
    with pytest.raises(ValueError):
        consistency_kappa(quasi_flat_form(preset("V"), substitute_r=False))
    with pytest.raises(ValueError):
        consistency_kappa(xi_flat_form(preset("V")))


# ---------------------------------------------------------------------------
# Boeckx invariant and deformation


def test_boeckx_rational_points():
    assert boeckx(Fraction(3, 4), 0, Fraction(1, 2)) == expr(2)
    assert boeckx(0, 2, 1).is_zero()
    assert boeckx(Fraction(-3), Fraction(1, 2), 2) == expr(Fraction(3, 8))


def test_boeckx_symbolic_family_value():
    assert boeckx(1 - 1 / N, 0, S / N) == S


def test_boeckx_errors():
    with pytest.raises(SasakianInput):
        boeckx(1, 0, 0)
    with pytest.raises(ValueError):
        boeckx(0, 0, 2)  # 2 does not square to 1 - kappa = 1


def test_d_homothetic_identity_and_examples():
    kappa, mu = d_homothetic(KAPPA, expr("mu"), 1, 1)
    assert kappa == KAPPA and mu == expr("mu")

    c = Fraction(1, 3)
    kappa, mu = d_homothetic(c * (2 - c), -2 * expr(c), 1 + expr(c), c)
    assert kappa == expr(1)  # the Sasakian limit of the example family

    kappa, mu = d_homothetic(0, 0, 2, 1)
    assert (kappa, mu) == (expr(Fraction(3, 2)), expr(0))

    with pytest.raises(ZeroDeformation):
        d_homothetic(0, 0, 0, 1)


def test_boeckx_invariance_along_matched_family():
    # the printed transform preserves the invariant along kappa = 1 - a^2
    # with matched c = a; sampled at exactly computable rational points
    rng = random.Random(8)
    for _ in range(25):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if a in (0, 1):
            continue
        mu = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        kappa = 1 - a * a
        before = boeckx(kappa, mu, abs(a))
        kappa_bar, mu_bar = d_homothetic(kappa, mu, a, a)
        assert kappa_bar.is_zero()
        after = boeckx(kappa_bar, mu_bar, 1)  # kappa_bar = 0
        assert eval_at(after, {}) == eval_at(before, {})


@pytest.mark.parametrize("n", [2, 3, 4, 9, 16])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_boeckx_example_family(n, sign):
    report = boeckx_example(n, sign)
    assert report.ok
    assert report.invariant == S
    # kappa = c(2-c) means 1 - kappa = (1-c)^2 by construction
    assert (1 - report.kappa) == (1 - report.c) ** 2


def test_boeckx_example_specializations():
    minus = boeckx_example(4, "-").specialized()
    assert minus["c"] == expr(Fraction(1, 3))
    assert minus["invariant"] == expr(2)
    plus = boeckx_example(4, "+").specialized()
    assert plus["c"] == expr(3)
    assert plus["invariant"] == expr(2)
    nine = boeckx_example(9, "-").specialized()
    assert nine["c"] == expr(Fraction(1, 2))
    assert nine["invariant"] == expr(3)


def test_boeckx_example_rejects_small_n():
    with pytest.raises(ValueError):
        boeckx_example(1, "+")


def test_boeckx_example_sign_is_plus_or_minus():
    assert boeckx_example(4, 1).sign == 1 and boeckx_example(4, -1).sign == -1
    for sign in ("plus", "minus", "+1", 0):
        with pytest.raises(InputError) as info:
            boeckx_example(4, sign)
        assert str(info.value) == f"sign must be + or -, got {sign!r}"
