"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import random
import time
from fractions import Fraction

from nkt.classification import (
    boeckx_example,
    consistency_kappa,
    d_homothetic,
    load_allowlist,
    quasi_flat_form,
    reproduce_table,
    xi_flat_form,
)
from nkt.frame_geometry import contact_audit, curvature, nk_lie_group_3d, nullity_fit
from nkt.scalar_algebra import KAPPA, N, eval_at, expr
from nkt.t_tensor import (
    ConditionKind,
    PresetName,
    flatness_residual,
    preset,
    t_dot_ricci,
    t_dot_ricci_components,
    t_dot_riemann,
    t_dot_riemann_components,
)
from helpers import random_model, random_preset_at_n1
from oracles import t_dot_ricci_bruteforce, t_dot_riemann_bruteforce


def _report(number, description):
    def decorate(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} ({description}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({description}): PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@_report(1, "flat-classification table, 19 presets, < 1 s")
def test_criterion_1_table2():
    start = time.perf_counter()
    report = reproduce_table(2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    assert len(report.rows) == 19
    for diff in report.rows:
        assert diff.matches is True, (diff.row.preset, diff.mismatches)
    roots = {d.row.preset: d.row.kappa for d in report.rows}
    assert roots[PresetName.V].root == (N - 1) / N
    assert roots[PresetName.L].root == 2 - 2 * N
    assert roots[PresetName.W3].root == expr(0)
    assert roots[PresetName.W7].root == (N - 1) / (2 * N)
    assert roots[PresetName.C].is_identity


@_report(2, "eta-Einstein tables 3-7 vs transcription, exact")
def test_criterion_2_tables_3_to_7():
    allow = load_allowlist()
    for which in range(3, 8):
        report = reproduce_table(which)
        assert report.ok, [
            (d.row.preset.value, d.unexpected) for d in report.rows if d.unexpected
        ]
        for diff in report.rows:
            # every mismatch must be a documented typo
            for field in diff.mismatches:
                assert (which, diff.row.preset, field) in allow
        absent = [d for d in report.rows if d.matches is None]
        if which in (3, 4):
            assert [d.row.preset for d in absent] == [PresetName.W7]
            assert all(
                any("absent" in f for f in d.row.flags) for d in absent
            )
        else:
            assert not absent
    # spot anchors, exactly as printed
    anchors = {
        (3, "C"): ("2*n - 2", "2*n*kappa - 2*n + 2"),
        (3, "P"): ("2*n*kappa", "0"),
        (3, "L"): ("4*n^2 + 2*n*kappa - 4*n - kappa", "2*n*kappa + kappa"),
        (4, "M"): (
            "(2*n^2 + 2*n*kappa - 2*n)/(n + 1)",
            "(2*n^2*kappa - 2*n^2 + 2*n)/(n + 1)",
        ),
        (4, "W6"): ("2*n*kappa", "0"),
        (5, "L"): ("-kappa", "2*n*kappa + kappa"),
        (5, "W7"): ("0", "2*n*kappa"),
        (6, "W1"): ("2*n*kappa", "0"),
        (6, "W4"): ("0", "2*n*kappa"),
        (7, "P"): ("4*n^2*kappa^2", "0"),
        (7, "W1"): (
            "-4*n^2*kappa^2 + 8*n^2*kappa - 8*n*kappa",
            "8*n^2*kappa^2 - 8*n^2*kappa + 8*n*kappa",
        ),
    }
    for (which, name), (b1, b2) in anchors.items():
        rows = {d.row.preset: d.row for d in reproduce_table(which).rows}
        form = rows[PresetName.parse(name)].form
        assert str(form.b1) == b1, (which, name, str(form.b1))
        assert str(form.b2) == b2, (which, name, str(form.b2))


@_report(3, "trace consistency of tables 3 and 4")
def test_criterion_3_trace_consistency():
    for diff in reproduce_table(4).rows:
        form = diff.row.form
        if form.is_degenerate:
            continue
        assert (form.b1 + form.b2 - 2 * N * KAPPA).is_zero(), diff.row.preset
    checks = {
        "C": lambda s: s.is_identity,
        "L": lambda s: s.is_unique and s.root == 2 - 2 * N,
        "V": lambda s: s.is_unique and s.root == (N - 1) / N,
    }
    for name, ok in checks.items():
        solution = consistency_kappa(quasi_flat_form(preset(name), substitute_r=True))
        assert ok(solution), name


@_report(4, "family models: audit, nullity, Ricci, scalar, < 1 s")
def test_criterion_4_model_suite():
    start = time.perf_counter()
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 5)):
        model = nk_lie_group_3d(lam)
        assert contact_audit(model).passed, lam
        curv = curvature(model)
        fit = nullity_fit(curv)
        assert fit.exact and fit.max_residual == 0
        assert fit.kappa == 1 - lam * lam and fit.mu == 0
        kappa = fit.kappa
        n = model.n
        # S = 2(n-1) g + 2(n-1) g(h.,.) + (2n kappa - 2(n-1)) eta(x)eta
        for i in range(3):
            for j in range(3):
                want = (
                    2 * (n - 1) * Fraction(i == j)
                    + 2 * (n - 1) * curv.h.get((i, j), 0)
                    + (2 * n * kappa - 2 * (n - 1)) * model.eta(i) * model.eta(j)
                )
                assert curv.ricci.get((i, j), 0) == want
        assert curv.scalar == 2 * n * (2 * n - 2 + kappa)
        assert curv.ricci.get((2, 2), 0) == 2 * n * kappa
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


@_report(5, "xi-flat cross-check against the table-5 forms")
def test_criterion_5_flatness_cross_check():
    model = nk_lie_group_3d(Fraction(1, 2))
    curv = curvature(model)
    point = {"n": 1, "kappa": Fraction(3, 4)}

    def ricci_gap(name):
        form = xi_flat_form(preset(name), substitute_r=True)
        b1 = eval_at(form.b1, point)
        b2 = eval_at(form.b2, point)
        worst = Fraction(0)
        for i in range(3):
            for j in range(3):
                table = b1 * Fraction(i == j) + b2 * model.eta(i) * model.eta(j)
                worst = max(worst, abs(curv.ricci.get((i, j), 0) - table))
        return worst

    w7 = flatness_residual(curv, preset("W7").at(1), ConditionKind.XI_T_FLAT)
    conharmonic = flatness_residual(curv, preset("L").at(1), ConditionKind.XI_T_FLAT)
    assert w7 == 0
    assert conharmonic != 0
    # vanishing of the residual agrees with the model Ricci matching the form
    assert (w7 == 0) == (ricci_gap("W7") == 0)
    assert (conharmonic == 0) == (ricci_gap("L") == 0)


@_report(6, "frame identities on 50 randomized models")
def test_criterion_6_frame_identities():
    rng = random.Random(60486)
    for _ in range(50):
        model = random_model(rng)
        curv = curvature(model)
        r, ricci = curv.riemann, curv.ricci
        dim, xi, phi = model.dim, model.xi_index, model.phi
        horizontal = [i for i in range(dim) if i != xi]
        assert len(horizontal) == 2 * model.n
        assert (
            sum(sum(phi.get((p, i), 0) ** 2 for p in range(dim)) for i in horizontal)
            == 2 * model.n
        )
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        value = r.get((i, j, k, l), 0)
                        assert value == -r.get((j, i, k, l), 0)
                        assert value == -r.get((i, j, l, k), 0)
                        assert value == r.get((k, l, i, j), 0)
                        assert value + r.get((j, k, i, l), 0) + r.get((k, i, j, l), 0) == 0
        for y in range(dim):
            for x in range(dim):
                total = sum(Fraction(i == x) * ricci.get((y, i), 0) for i in horizontal)
                assert total == ricci.get((y, x), 0) - ricci.get((y, xi), 0) * model.eta(x)
                twisted = sum(
                    sum(phi.get((p, i), 0) * phi.get((p, x), 0) for p in range(dim))
                    * sum(phi.get((q, i), 0) * ricci.get((y, q), 0) for q in range(dim))
                    for i in horizontal
                )
                assert twisted == sum(
                    phi.get((q, x), 0) * ricci.get((y, q), 0) for q in range(dim))


@_report(7, "sqrt(n) family and identity deformation, exact")
def test_criterion_7_example_family():
    for n in (2, 3, 4, 9, 16):
        for sign in ("+", "-"):
            report = boeckx_example(n, sign)
            assert report.ok, (n, sign)
    kappa, mu = d_homothetic(KAPPA, expr("mu"), 1, 1)
    assert kappa == KAPPA and mu == expr("mu")


@_report(8, "derivation operators equal the brute-force oracle")
def test_criterion_8_derivation_oracle():
    rng = random.Random(88)
    for _ in range(20):
        model = random_model(rng)
        _, numeric = random_preset_at_n1(rng)
        curv = curvature(model)
        expected_r = t_dot_riemann_bruteforce(model, curv, numeric)
        got_r = t_dot_riemann_components(curv, numeric)
        dim = model.dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        got = tuple(got_r.get((i, j, k, l, m), 0) for m in range(dim))
                        assert got == expected_r[(i, j, k, l)]
        expected_s = t_dot_ricci_bruteforce(model, curv, numeric)
        got_s = t_dot_ricci_components(curv, numeric)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    assert got_s.get((i, j, k), 0) == expected_s[(i, j, k)]
        assert t_dot_riemann(curv, numeric) == max(
            (abs(x) for cell in expected_r.values() for x in cell),
            default=Fraction(0),
        )
        assert t_dot_ricci(curv, numeric) == max(
            (abs(v) for v in expected_s.values()), default=Fraction(0)
        )
