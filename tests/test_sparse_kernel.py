"""The sparse contraction kernel where nothing is sparse, and over any ring.

Rotating a model by a rational orthogonal matrix that fixes xi (a Cayley
transform) keeps every invariant but fills in the brackets, the connection
and, beyond dimension 3, phi and R, so slot or transpose slips that a
signed-permutation phi hides show up against the brute force in
tests/oracles.py.  The kernel needs only +, *,
unary - and a truth test, so the same contractions on RationalExpr entries
must specialise to the Fraction results.
"""

import random
from fractions import Fraction

import pytest

from nkt.frame_geometry import (
    _act,
    _connection,
    _lincomb,
    _permute,
    _riemann,
    contact_audit,
    curvature,
    nk_lie_group_3d,
    nullity_fit,
)
from nkt.scalar_algebra import C, LAM, eval_at, expr
from nkt.t_tensor import ConditionKind, condition_components, flatness_residual
from nkt.t_tensor import t_dot_ricci, t_dot_riemann
from helpers import cayley_rotation, heisenberg_model, random_numeric_coeffs, rotated_model
from oracles import flatness_bruteforce, t_dot_ricci_bruteforce, t_dot_riemann_bruteforce

_FLATNESS = ("t-flat", "xi-flat", "quasi-flat", "phi-flat")


def _assert_residuals_match(model, numeric):
    curv = curvature(model)
    for kind in _FLATNESS:
        expected = flatness_bruteforce(model, curv, numeric, kind)
        assert flatness_residual(curv, numeric, ConditionKind.parse(kind)) == expected, kind
    expected = flatness_bruteforce(model, curv, numeric, "xi-flat", strict=True)
    assert flatness_residual(curv, numeric, ConditionKind.XI_T_FLAT, strict=True) == expected
    for variant in ("standard", "printed"):
        expected = t_dot_riemann_bruteforce(model, curv, numeric, variant)
        got = condition_components(curv, numeric, ConditionKind.T_DOT_R, variant=variant)
        dim = model.dim
        assert {key: tuple(got.get((*key, m), 0) for m in range(dim))
                for key in expected} == expected
        worst = max((abs(x) for cell in expected.values() for x in cell), default=0)
        assert t_dot_riemann(curv, numeric, variant=variant) == worst
        kind = ConditionKind.T_DOT_R
        assert flatness_residual(curv, numeric, kind, variant=variant) == worst
    expected = t_dot_ricci_bruteforce(model, curv, numeric)
    got = condition_components(curv, numeric, ConditionKind.T_DOT_S)
    assert {key: got.get(key, 0) for key in expected} == expected
    worst = max((abs(v) for v in expected.values()), default=0)
    assert t_dot_ricci(curv, numeric) == worst
    assert flatness_residual(curv, numeric, ConditionKind.T_DOT_S) == worst


@pytest.mark.parametrize(
    "model", [heisenberg_model(2), nk_lie_group_3d(Fraction(1, 2)), nk_lie_group_3d(Fraction(-2))],
    ids=["H5", "lambda=1/2", "lambda=-2"],
)
def test_rotated_models_stay_contact_and_match_the_brute_force(model):
    rng = random.Random(2718 + model.dim)
    rotated = rotated_model(model, cayley_rotation(rng, model.dim, model.xi_index))
    # the rotation filled in the brackets and the connection, and beyond
    # dimension 3 (where it commutes with phi and R) phi and R as well
    assert len(rotated.structure) > len(model.structure)
    assert len(_connection(rotated.structure)) > len(_connection(model.structure))
    if model.dim > 3:
        assert len(rotated.phi) > len(model.phi)
        assert len(curvature(rotated).riemann) > len(curvature(model).riemann)
    assert contact_audit(rotated).passed
    fit, rotated_fit = nullity_fit(curvature(model)), nullity_fit(curvature(rotated))
    assert rotated_fit.exact and (rotated_fit.kappa, rotated_fit.mu) == (fit.kappa, fit.mu)
    _assert_residuals_match(rotated, random_numeric_coeffs(rng))


def _at(tensor, bindings):
    values = {key: eval_at(value, bindings) for key, value in tensor.items()}
    return {key: value for key, value in values.items() if value}


def test_kernel_contracts_rational_expressions():
    # the 3-dimensional family with lambda symbolic, and a weight in c
    one = expr(1)
    brackets = {(0, 1, 2): expr(2), (1, 2, 0): 1 - LAM, (2, 0, 1): 1 + LAM}
    c = {**brackets, **{(j, i, k): -v for (i, j, k), v in brackets.items()}}
    phi = {(1, 0): one, (0, 1): -one}
    gamma = _connection(c)
    riemann = _riemann(c, gamma)
    quasi = _act(_permute(phi, (1, 0)), _act(_permute(phi, (1, 0)), riemann, 0), 3)
    mixed = _lincomb((C, 1 - C), (riemann, quasi))
    for lam, weight in ((Fraction(1, 2), 3), (Fraction(2), Fraction(-1, 4)), (Fraction(-1, 3), 0)):
        curv = curvature(nk_lie_group_3d(lam))
        bindings = {"lambda": lam, "c": weight}
        exact_phi = nk_lie_group_3d(lam).phi
        assert _at(gamma, bindings) == _connection(nk_lie_group_3d(lam).structure)
        assert _at(riemann, bindings) == curv.riemann
        phi_t = _permute(exact_phi, (1, 0))
        exact_quasi = _act(phi_t, _act(phi_t, curv.riemann, 0), 3)
        assert _at(quasi, bindings) == exact_quasi
        want = _lincomb((weight, 1 - weight), (curv.riemann, exact_quasi))
        assert _at(mixed, bindings) == want
