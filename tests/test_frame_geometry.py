"""Frame models: connection, curvature, h-operator, audits, nullity fits."""

import random
from fractions import Fraction

import pytest

from nkt.frame_geometry import (
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
from helpers import (
    STANDARD_PHI,
    cayley_rotation,
    heisenberg_model,
    random_diagonal_model,
    rotated_model,
)

HALF = Fraction(1, 2)


def abelian_model():
    return build_model(3, [], xi_index=2, phi=STANDARD_PHI)


# ---------------------------------------------------------------------------
# Levi-Civita connection


def test_abelian_connection_vanishes():
    gamma = levi_civita(abelian_model())
    assert all(x == 0 for x in gamma.values())


def test_koszul_hand_value():
    # nabla_{e1} e3 = ((c1 - c2 - c3)/2) e2 with c1 = 1/2, c2 = 3/2, c3 = 2
    gamma = levi_civita(nk_lie_group_3d(HALF))
    assert gamma.get((0, 2, 1), 0) == Fraction(-3, 2)
    assert gamma.get((0, 2, 0), 0) == 0 and gamma.get((0, 2, 2), 0) == 0


def test_koszul_sasakian_values():
    gamma = levi_civita(nk_lie_group_3d(0))
    nabla_e1_e2 = tuple(gamma.get((0, 1, k), 0) for k in range(3))
    nabla_e2_e1 = tuple(gamma.get((1, 0, k), 0) for k in range(3))
    assert nabla_e1_e2 == (Fraction(0), Fraction(0), Fraction(1))   # nabla_e1 e2 = e3
    assert nabla_e2_e1 == (Fraction(0), Fraction(0), Fraction(-1))  # nabla_e2 e1 = -e3


def test_torsion_free_and_metric_compatible():
    model = nk_lie_group_3d(Fraction(3, 5))
    gamma = levi_civita(model)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                torsion = gamma.get((i, j, k), 0) - gamma.get((j, i, k), 0)
                assert torsion == model.structure.get((i, j, k), 0)
                assert gamma.get((i, j, k), 0) == -gamma.get((i, k, j), 0)


def test_invalid_model_rejected():
    bad = build_model(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)], 2, STANDARD_PHI)
    with pytest.raises(InvalidModel):
        levi_civita(bad)


# ---------------------------------------------------------------------------
# curvature


def test_abelian_curvature_vanishes():
    curv = curvature(abelian_model())
    assert all(x == 0 for x in curv.riemann.values())
    assert all(x == 0 for x in curv.ricci.values())
    assert curv.scalar == 0


def test_curvature_oracle_values():
    curv = curvature(nk_lie_group_3d(HALF))
    assert curv.riemann.get((0, 2, 2, 0), 0) == Fraction(3, 4)
    assert [curv.ricci.get((i, i), 0) for i in range(3)] == [0, 0, Fraction(3, 2)]
    assert curv.scalar == Fraction(3, 2)
    # scalar curvature identity 2n(2n - 2 + kappa) at n = 1, kappa = 3/4
    assert curv.scalar == 2 * (0 + Fraction(3, 4))


def test_ricci_matches_milnor_on_random_diagonal_models():
    from oracles import milnor_ricci

    rng = random.Random(91)
    for _ in range(25):
        model = random_diagonal_model(rng)
        c1 = model.structure.get((1, 2, 0), 0)
        c2 = model.structure.get((2, 0, 1), 0)
        c3 = model.structure.get((0, 1, 2), 0)
        curv = curvature(model)
        expected = milnor_ricci(c1, c2, c3)
        for i in range(3):
            assert curv.ricci.get((i, i), 0) == expected[i]
            for j in range(3):
                if i != j:
                    assert curv.ricci.get((i, j), 0) == 0


# ---------------------------------------------------------------------------
# h-operator


def test_h_eigenvalues_on_family():
    h = curvature(nk_lie_group_3d(HALF)).h
    assert h.get((0, 0), 0) == HALF and h.get((1, 1), 0) == -HALF
    assert all(h.get((i, j), 0) == 0 for i in range(3) for j in range(3) if i != j)


def test_h_vanishes_for_sasakian_and_abelian():
    assert all(x == 0 for x in curvature(nk_lie_group_3d(0)).h.values())
    assert all(x == 0 for x in curvature(abelian_model()).h.values())


def test_h_algebraic_identities():
    model = nk_lie_group_3d(Fraction(3, 5))
    h = curvature(model).h
    phi = model.phi
    assert sum(h.get((i, i), 0) for i in range(3)) == 0
    for i in range(3):
        assert h.get((i, 2), 0) == 0  # h(xi) = 0
        for j in range(3):
            assert h.get((i, j), 0) == h.get((j, i), 0)
            anti = sum(h.get((i, p), 0) * phi.get((p, j), 0) + phi.get((i, p), 0) * h.get((p, j), 0)
                       for p in range(3))
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
    assert curv.ricci.get((2, 2), 0) == 0  # S(xi,xi) = 2n kappa = 0
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
    curv = CurvatureData(3, 2, abelian_model().phi, riemann, h)
    assert nullity_residual(curv, Fraction(0), Fraction(1)) == 0
    with pytest.raises(InvalidModel, match=r"S\(e_1, xi\) = -1 != 0"):
        nullity_fit(curv)


# ---------------------------------------------------------------------------
# model files


def _rotated_h5():
    return rotated_model(heisenberg_model(2), cayley_rotation(random.Random(5), 5, 4))


def test_model_file_round_trip():
    models = (nk_lie_group_3d(HALF), nk_lie_group_3d(1), heisenberg_model(2),
              heisenberg_model(3), _rotated_h5())
    for model in models:
        again = parse_model(render_model(model))
        assert again == model


def test_rendered_model_text_is_pinned():
    # lambda = 1 has [e2,e3] = 0: no line for it
    assert "c 2 3" not in render_model(nk_lie_group_3d(1))
    assert render_model(_rotated_h5()) == (
        "dim 5\n"
        "xi 5\n"
        "phi 0 293/303 -386/1515 -2/1515 0\n"
        "phi -293/303 0 2/1515 -386/1515 0\n"
        "phi 386/1515 -2/1515 0 -293/303 0\n"
        "phi 2/1515 386/1515 293/303 0 0\n"
        "phi 0 0 0 0 0\n"
        "c 1 2 5 : -586/303\n"
        "c 1 3 5 : 772/1515\n"
        "c 1 4 5 : 4/1515\n"
        "c 2 3 5 : -4/1515\n"
        "c 2 4 5 : 772/1515\n"
        "c 3 4 5 : 586/303\n"
    )


_HEADER = "dim 3\nphi 0 -1 0\nphi 1 0 0\nphi 0 0 0\n"


@pytest.mark.parametrize("line, message", [
    ("xi 4", "xi index 4 out of range for dim 3"),
    ("xi 0", "xi index 0 out of range for dim 3"),
])
def test_xi_out_of_range_is_named_as_written(line, message):
    with pytest.raises(ModelFormatError) as info:
        parse_model(_HEADER + line + "\n")
    assert str(info.value) == message


@pytest.mark.parametrize("line, message", [
    ("c 1 2 4 : 2", "bracket index (1,2,4) out of range"),
    ("c 0 2 3 : 2", "bracket index (0,2,3) out of range"),
])
def test_bracket_out_of_range_is_named_as_written(line, message):
    with pytest.raises(ModelFormatError) as info:
        parse_model(_HEADER + "xi 3\n" + line + "\n")
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    # a second xi must not move the Reeb vector silently
    (_HEADER + "xi 1\nxi 3\nc 1 2 3 : 2\n", "line 6: duplicate directive 'xi'"),
    # a second dim is named on its line, not later as a phi-row count
    ("dim 3\ndim 5\nxi 3\nphi 0 -1 0\nphi 1 0 0\nphi 0 0 0\n",
     "line 2: duplicate directive 'dim'"),
])
def test_repeated_dim_or_xi_is_rejected_on_its_line(text, message):
    with pytest.raises(ModelFormatError) as info:
        parse_model(text)
    assert str(info.value) == message


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
