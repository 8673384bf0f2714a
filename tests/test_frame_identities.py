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
                        assert r[i][j][k][l] == -r[j][i][k][l]
                        assert r[i][j][k][l] == -r[i][j][l][k]
                        assert r[i][j][k][l] == r[k][l][i][j]
                        bianchi = r[i][j][k][l] + r[j][k][i][l] + r[k][i][j][l]
                        assert bianchi == 0
        # ricci symmetric, scalar = trace
        for i in range(dim):
            for j in range(dim):
                assert curv.ricci[i][j] == curv.ricci[j][i]
        assert curv.scalar == sum(curv.ricci[i][i] for i in range(dim))


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
                sum(phi[p][i] * phi[p][i] for p in range(dim))
                for i in horizontal
            )
            == n2
        )
        ricci = curv.ricci
        for y in range(dim):
            for x in range(dim):
                lhs = sum(Fraction(i == x) * ricci[y][i] for i in horizontal)
                assert lhs == ricci[y][x] - ricci[y][xi] * model.eta(x)
                # same sum expanded over the rotated frame {phi e_i}
                rotated = sum(
                    sum(phi[p][i] * Fraction(p == x) for p in range(dim))
                    * sum(phi[q][i] * ricci[y][q] for q in range(dim))
                    for i in horizontal
                )
                assert rotated == ricci[y][x] - ricci[y][xi] * model.eta(x)
                # phi-twisted: sum_i g(phi e_i, phi X) S(Y, phi e_i) = S(Y, phi X)
                twisted = sum(
                    sum(phi[p][i] * phi[p][x] for p in range(dim))
                    * sum(phi[q][i] * ricci[y][q] for q in range(dim))
                    for i in horizontal
                )
                assert twisted == sum(phi[q][x] * ricci[y][q] for q in range(dim))


def test_nullity_contractions_on_exact_models():
    # R(X,xi)xi = kappa(X - eta(X)xi), R(X,Y)xi = kappa(eta(Y)X - eta(X)Y),
    # R(X,xi)Y = -kappa(g(X,Y)xi - eta(Y)X) on every exact mu = 0 fit
    rng = random.Random(77)
    models = [nk_lie_group_3d(Fraction(rng.randint(-8, 8), rng.randint(1, 5))) for _ in range(10)]
    for model in models:
        curv = curvature(model)
        fit = nullity_fit(model, curv)
        assert fit.exact and fit.mu == 0
        kappa = fit.kappa
        dim, xi = model.dim, model.xi_index
        r = curv.riemann
        for i in range(dim):
            for l in range(dim):
                want = kappa * (Fraction(i == l) - model.eta(i) * model.eta(l))
                assert r[i][xi][xi][l] == want
                for j in range(dim):
                    want2 = kappa * (
                        model.eta(j) * Fraction(i == l) - model.eta(i) * Fraction(j == l)
                    )
                    assert r[i][j][xi][l] == want2
                    want3 = -kappa * (
                        Fraction(i == j) * model.eta(l) - model.eta(j) * Fraction(i == l)
                    )
                    assert r[i][xi][j][l] == want3


def test_ricci_and_scalar_formulas_on_family():
    # S = 2(n-1)g + 2(n-1)g(h.,.) + (2n kappa - 2(n-1)) eta(x)eta at n = 1
    # collapses to 2 kappa eta(x)eta; scalar = 2n(2n-2+kappa)
    for lam in (0, Fraction(1, 2), 1, Fraction(3, 5), Fraction(-4, 3)):
        model = nk_lie_group_3d(lam)
        curv = curvature(model)
        fit = nullity_fit(model, curv)
        kappa = fit.kappa
        for i in range(3):
            for j in range(3):
                want = 2 * kappa * model.eta(i) * model.eta(j)
                assert curv.ricci[i][j] == want
        assert curv.scalar == 2 * (0 + kappa)
        assert curv.ricci[2][2] == 2 * kappa  # S(xi,xi) = 2 n kappa
