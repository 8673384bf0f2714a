"""Frame-sum and curvature identities on randomized valid 3-dim models.

Fifty randomized models (diagonal unimodular, solvable, and scaled members
of the shipped family - all satisfy Jacobi by construction) are swept for:
the orthonormal frame sums, Riemann symmetries, the first Bianchi identity,
and, on exact nullity models, the characteristic curvature contractions.
"""

import random
from fractions import Fraction

from nkt.frame_geometry import curvature, nk_lie_group_3d, nullity_fit
from helpers import random_model


def _models(count=50):
    rng = random.Random(1404)
    return [random_model(rng) for _ in range(count)]


def test_riemann_symmetries_and_bianchi_on_50_models():
    for model in _models():
        curv = curvature(model)
        r = curv.riemann
        dim = model.dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        value = r.get((i, j, k, l), 0)
                        assert value == -r.get((j, i, k, l), 0)
                        assert value == -r.get((i, j, l, k), 0)
                        assert value == r.get((k, l, i, j), 0)
                        bianchi = value + r.get((j, k, i, l), 0) + r.get((k, i, j, l), 0)
                        assert bianchi == 0
        # ricci symmetric, scalar = trace
        for i in range(dim):
            for j in range(dim):
                assert curv.ricci.get((i, j), 0) == curv.ricci.get((j, i), 0)
        assert curv.scalar == sum(curv.ricci.get((i, i), 0) for i in range(dim))


def test_frame_sums_on_50_models():
    # horizontal frame sums: sum_i g(e_i,e_i) = sum_i g(phi e_i, phi e_i) = 2n,
    # sum_i g(e_i, X) S(Y, e_i) recovers the horizontal part of S(Y, .),
    # and the phi-twisted contraction recovers S(Y, phi X)
    for model in _models():
        curv = curvature(model)
        dim, xi, phi = model.dim, model.xi_index, model.phi
        horizontal = [i for i in range(dim) if i != xi]
        n2 = len(horizontal)
        assert sum(Fraction(1) for _ in horizontal) == n2
        assert (
            sum(
                sum(phi.get((p, i), 0) * phi.get((p, i), 0) for p in range(dim))
                for i in horizontal
            )
            == n2
        )
        ricci = curv.ricci
        for y in range(dim):
            for x in range(dim):
                horizontal_part = ricci.get((y, x), 0) - ricci.get((y, xi), 0) * model.eta(x)
                lhs = sum(Fraction(i == x) * ricci.get((y, i), 0) for i in horizontal)
                assert lhs == horizontal_part
                # same sum expanded over the rotated frame {phi e_i}
                rotated = sum(
                    sum(phi.get((p, i), 0) * Fraction(p == x) for p in range(dim))
                    * sum(phi.get((q, i), 0) * ricci.get((y, q), 0) for q in range(dim))
                    for i in horizontal
                )
                assert rotated == horizontal_part
                # phi-twisted: sum_i g(phi e_i, phi X) S(Y, phi e_i) = S(Y, phi X)
                twisted = sum(
                    sum(phi.get((p, i), 0) * phi.get((p, x), 0) for p in range(dim))
                    * sum(phi.get((q, i), 0) * ricci.get((y, q), 0) for q in range(dim))
                    for i in horizontal
                )
                assert twisted == sum(
                    phi.get((q, x), 0) * ricci.get((y, q), 0) for q in range(dim))


def test_nullity_contractions_on_exact_models():
    # R(X,xi)xi = kappa(X - eta(X)xi), R(X,Y)xi = kappa(eta(Y)X - eta(X)Y),
    # R(X,xi)Y = -kappa(g(X,Y)xi - eta(Y)X) on every exact mu = 0 fit
    rng = random.Random(77)
    models = [nk_lie_group_3d(Fraction(rng.randint(-8, 8), rng.randint(1, 5))) for _ in range(10)]
    for model in models:
        curv = curvature(model)
        fit = nullity_fit(curv)
        assert fit.exact and fit.mu == 0
        kappa = fit.kappa
        dim, xi = model.dim, model.xi_index
        r = curv.riemann
        for i in range(dim):
            for l in range(dim):
                want = kappa * (Fraction(i == l) - model.eta(i) * model.eta(l))
                assert r.get((i, xi, xi, l), 0) == want
                for j in range(dim):
                    want2 = kappa * (
                        model.eta(j) * Fraction(i == l) - model.eta(i) * Fraction(j == l)
                    )
                    assert r.get((i, j, xi, l), 0) == want2
                    want3 = -kappa * (
                        Fraction(i == j) * model.eta(l) - model.eta(j) * Fraction(i == l)
                    )
                    assert r.get((i, xi, j, l), 0) == want3


def test_ricci_and_scalar_formulas_on_family():
    # S = 2(n-1)g + 2(n-1)g(h.,.) + (2n kappa - 2(n-1)) eta(x)eta at n = 1
    # collapses to 2 kappa eta(x)eta; scalar = 2n(2n-2+kappa)
    for lam in (0, Fraction(1, 2), 1, Fraction(3, 5), Fraction(-4, 3)):
        model = nk_lie_group_3d(lam)
        curv = curvature(model)
        fit = nullity_fit(curv)
        kappa = fit.kappa
        for i in range(3):
            for j in range(3):
                want = 2 * kappa * model.eta(i) * model.eta(j)
                assert curv.ricci.get((i, j), 0) == want
        assert curv.scalar == 2 * (0 + kappa)
        assert curv.ricci.get((2, 2), 0) == 2 * kappa  # S(xi,xi) = 2 n kappa
