"""Frame models: connection, curvature, h-operator, audits, nullity fits."""

import random
from fractions import Fraction

import pytest

from nkt.frame_geometry import (
    _sparse,
    CurvatureData,
    InvalidModel,
    ModelFormatError,
    build_model,
    contact_audit,
    curvature,
    levi_civita,
    nk_lie_group_3d,
    nullity_fit,
    nullity_residual,
    parse_model,
    render_model,
)
from helpers import STANDARD_PHI, random_diagonal_model

HALF = Fraction(1, 2)


def abelian_model():
    return build_model(3, [], xi_index=2, phi=STANDARD_PHI)


# ---------------------------------------------------------------------------
# Levi-Civita connection


def test_abelian_connection_vanishes():
    gamma = levi_civita(abelian_model())
    assert all(x == 0 for plane in gamma for row in plane for x in row)


def test_koszul_hand_value():
    # nabla_{e1} e3 = ((c1 - c2 - c3)/2) e2 with c1 = 1/2, c2 = 3/2, c3 = 2
    gamma = levi_civita(nk_lie_group_3d(HALF))
    assert gamma[0][2][1] == Fraction(-3, 2)
    assert gamma[0][2][0] == 0 and gamma[0][2][2] == 0


def test_koszul_sasakian_values():
    gamma = levi_civita(nk_lie_group_3d(0))
    assert gamma[0][1] == (Fraction(0), Fraction(0), Fraction(1))   # nabla_e1 e2 = e3
    assert gamma[1][0] == (Fraction(0), Fraction(0), Fraction(-1))  # nabla_e2 e1 = -e3


def test_torsion_free_and_metric_compatible():
    model = nk_lie_group_3d(Fraction(3, 5))
    gamma = levi_civita(model)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert gamma[i][j][k] - gamma[j][i][k] == model.structure[i][j][k]
                assert gamma[i][j][k] == -gamma[i][k][j]


def test_invalid_model_rejected():
    bad = build_model(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)], 2, STANDARD_PHI)
    with pytest.raises(InvalidModel):
        levi_civita(bad)


# ---------------------------------------------------------------------------
# curvature


def test_abelian_curvature_vanishes():
    curv = curvature(abelian_model())
    assert all(
        x == 0 for b1 in curv.riemann for b2 in b1 for b3 in b2 for x in b3
    )
    assert all(x == 0 for row in curv.ricci for x in row)
    assert curv.scalar == 0


def test_curvature_oracle_values():
    curv = curvature(nk_lie_group_3d(HALF))
    assert curv.riemann[0][2][2][0] == Fraction(3, 4)
    assert [curv.ricci[i][i] for i in range(3)] == [0, 0, Fraction(3, 2)]
    assert curv.scalar == Fraction(3, 2)
    # scalar curvature identity 2n(2n - 2 + kappa) at n = 1, kappa = 3/4
    assert curv.scalar == 2 * (0 + Fraction(3, 4))


def test_ricci_matches_milnor_on_random_diagonal_models():
    from oracles import milnor_ricci

    rng = random.Random(91)
    for _ in range(25):
        model = random_diagonal_model(rng)
        c1 = model.structure[1][2][0]
        c2 = model.structure[2][0][1]
        c3 = model.structure[0][1][2]
        curv = curvature(model)
        expected = milnor_ricci(c1, c2, c3)
        for i in range(3):
            assert curv.ricci[i][i] == expected[i]
            for j in range(3):
                if i != j:
                    assert curv.ricci[i][j] == 0


# ---------------------------------------------------------------------------
# h-operator


def test_h_eigenvalues_on_family():
    h = curvature(nk_lie_group_3d(HALF)).h
    assert h[0][0] == HALF and h[1][1] == -HALF
    assert all(h[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def test_h_vanishes_for_sasakian_and_abelian():
    assert all(x == 0 for row in curvature(nk_lie_group_3d(0)).h for x in row)
    assert all(x == 0 for row in curvature(abelian_model()).h for x in row)


def test_h_algebraic_identities():
    model = nk_lie_group_3d(Fraction(3, 5))
    h = curvature(model).h
    phi = model.phi
    assert sum(h[i][i] for i in range(3)) == 0
    for i in range(3):
        assert h[i][2] == 0  # h(xi) = 0
        for j in range(3):
            assert h[i][j] == h[j][i]
            anti = sum(h[i][p] * phi[p][j] + phi[i][p] * h[p][j] for p in range(3))
            assert anti == 0  # h phi = -phi h


# ---------------------------------------------------------------------------
# contact audit


@pytest.mark.parametrize("lam", [0, HALF, 1, Fraction(3, 5), Fraction(-2, 7)])
def test_family_passes_audit(lam):
    report = contact_audit(nk_lie_group_3d(lam))
    assert report.passed, report.failures()


def test_zero_phi_fails_phi_square_at_first_component():
    model = build_model(3, [(0, 1, 2, 2)], 2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    report = contact_audit(model)
    failed = {c.name: c for c in report.failures()}
    assert "phi_square" in failed
    assert "(1,1)" in failed["phi_square"].detail


def test_abelian_fails_contact_condition():
    report = contact_audit(abelian_model())
    failed = {c.name for c in report.failures()}
    assert "contact_condition" in failed
    assert "phi_square" not in failed


def _family_brackets(top):
    return [(0, 1, 2, top), (1, 2, 0, HALF), (2, 0, 1, 1 + HALF)]


# one model per audit check, each failing at least that check; model-audit
# prints these details verbatim
_AUDIT_FAILURES = {
    "bracket_structure": (
        build_model(
            5,
            [(0, 2, 4, 2), (1, 3, 4, 2), (1, 3, 0, 1), (0, 4, 1, 1)],
            4,
            [[0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0] * 5],
        ),
        [
            ("bracket_structure", "Jacobi identity fails on (e_1, e_2, e_4)"),
            ("reeb_derivative", "skipped: invalid bracket structure"),
        ],
    ),
    "phi_square": (
        build_model(3, _family_brackets(2), 2, [[0, -1, 1], [1, 0, 0], [0, 0, 0]]),
        [
            ("phi_square", "component (2,3): 1 != 0"),
            ("metric_compatibility", "component (2,3): -1 != 0"),
            ("contact_condition", "d(eta)(e_1,e_3) = 0 != 1"),
            ("reeb_derivative", "nabla_(e_3) xi component 1: 0 != -1/4"),
        ],
    ),
    "metric_compatibility": (
        build_model(3, _family_brackets(2), 2, [[0, -2, 0], [HALF, 0, 0], [0, 0, 0]]),
        [
            ("metric_compatibility", "component (1,1): 1/4 != 1"),
            ("contact_condition", "d(eta)(e_1,e_2) = -1 != -2"),
            ("reeb_derivative", "nabla_(e_1) xi component 2: -3/2 != -19/16"),
        ],
    ),
    "contact_condition": (
        build_model(3, _family_brackets(3), 2, STANDARD_PHI),
        [
            ("contact_condition", "d(eta)(e_1,e_2) = -3/2 != -1"),
            ("reeb_derivative", "nabla_(e_1) xi component 2: -2 != -3/2"),
        ],
    ),
    "reeb_derivative": (
        build_model(3, _family_brackets(-2), 2, STANDARD_PHI),
        [
            ("contact_condition", "d(eta)(e_1,e_2) = 1 != -1"),
            ("reeb_derivative", "nabla_(e_1) xi component 2: 1/2 != -3/2"),
        ],
    ),
}


@pytest.mark.parametrize("check", sorted(_AUDIT_FAILURES))
def test_audit_failure_details_are_pinned(check):
    model, expected = _AUDIT_FAILURES[check]
    failures = [(c.name, c.detail) for c in contact_audit(model).failures()]
    assert failures == expected
    assert check in dict(failures)


# ---------------------------------------------------------------------------
# nullity fit


@pytest.mark.parametrize("lam", [0, HALF, 1, Fraction(3, 5)])
def test_family_nullity(lam):
    lam = Fraction(lam)
    fit = nullity_fit(curvature(nk_lie_group_3d(lam)))
    assert fit.exact
    assert fit.kappa == 1 - lam * lam
    assert fit.mu == 0
    assert fit.max_residual == 0


def test_sasakian_case_is_kappa_one():
    fit = nullity_fit(curvature(nk_lie_group_3d(0)))
    assert fit.exact and fit.kappa == 1


def test_flat_case_lambda_one():
    model = nk_lie_group_3d(1)
    curv = curvature(model)
    assert curv.ricci[2][2] == 0  # S(xi,xi) = 2n kappa = 0
    fit = nullity_fit(curv)
    assert fit.exact and fit.kappa == 0 and fit.mu == 0


def test_abelian_nullity():
    fit = nullity_fit(curvature(abelian_model()))
    assert fit.exact and fit.kappa == 0 and fit.mu == 0


def test_nullity_fit_rejects_inconsistent_ricci():
    # the Ricci checks of an exact fit must survive python -O.  The point:
    # R(X,Y)Z = g(Y,Z)hX - g(X,Z)hY, the nullity tensor of (kappa, mu) =
    # (0, 1), with an h that sends e_1 partly along xi, so the fit is exact
    # but S(e_1, xi) = -1
    h = {(0, 0): Fraction(1), (1, 1): Fraction(-1), (2, 0): Fraction(1)}
    riemann = {}
    for (l, i), value in h.items():
        for j in set(range(3)) - {i}:
            riemann[i, j, j, l], riemann[j, i, j, l] = value, -value
    curv = CurvatureData(3, 2, _sparse(STANDARD_PHI), riemann, h)
    assert nullity_residual(curv, Fraction(0), Fraction(1)) == 0
    with pytest.raises(InvalidModel, match=r"S\(e_1, xi\) = -1 != 0"):
        nullity_fit(curv)


# ---------------------------------------------------------------------------
# model files


def test_model_file_round_trip():
    model = nk_lie_group_3d(HALF)
    again = parse_model(render_model(model))
    assert again == model


def test_parser_rejects_non_antisymmetric():
    text = "\n".join(
        [
            "dim 3",
            "xi 3",
            "phi 0 -1 0",
            "phi 1 0 0",
            "phi 0 0 0",
            "c 1 2 3 : 2",
            "c 2 1 3 : 2",  # should be -2
        ]
    )
    with pytest.raises(ModelFormatError):
        parse_model(text)


def test_parser_rejects_diagonal_bracket():
    text = "dim 3\nxi 3\nphi 0 -1 0\nphi 1 0 0\nphi 0 0 0\nc 1 1 2 : 1\n"
    with pytest.raises(ModelFormatError):
        parse_model(text)


def test_parser_accepts_comments_and_blank_lines():
    text = render_model(nk_lie_group_3d(0)) + "\n# trailing comment\n\n"
    assert parse_model(text) == nk_lie_group_3d(0)
