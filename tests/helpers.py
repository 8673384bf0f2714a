"""Shared generators for randomized model and coefficient tests."""

import itertools
import random
from fractions import Fraction

from nkt.frame_geometry import CurvatureData, FrameModel, build_model, nk_lie_group_3d
from nkt.t_tensor import PresetName, preset

STANDARD_PHI = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]


def random_fraction(rng: random.Random, span: int = 6, allow_zero: bool = True) -> Fraction:
    num = rng.randint(-span, span)
    if not allow_zero:
        while num == 0:
            num = rng.randint(-span, span)
    return Fraction(num, rng.randint(1, 4))


def random_diagonal_model(rng: random.Random) -> FrameModel:
    """[e2,e3] = c1 e1, [e3,e1] = c2 e2, [e1,e2] = c3 e3; Jacobi is automatic."""
    c1, c2, c3 = (random_fraction(rng) for _ in range(3))
    return build_model(
        3,
        [(1, 2, 0, c1), (2, 0, 1, c2), (0, 1, 2, c3)],
        xi_index=2,
        phi=STANDARD_PHI,
    )


def random_solvable_model(rng: random.Random) -> FrameModel:
    """[e1,e3] = p e1 + q e2, [e2,e3] = u e1 + v e2, [e1,e2] = 0."""
    p, q, u, v = (random_fraction(rng) for _ in range(4))
    return build_model(
        3,
        [(0, 2, 0, p), (0, 2, 1, q), (1, 2, 0, u), (1, 2, 1, v)],
        xi_index=2,
        phi=STANDARD_PHI,
    )


def heisenberg_model(n: int) -> FrameModel:
    """H^(2n+1): [e_i, e_(n+i)] = 2 xi with xi = e_(2n+1), phi e_i = e_(n+i)
    and phi e_(n+i) = -e_i."""
    dim = 2 * n + 1
    xi = dim - 1
    phi = [[0] * dim for _ in range(dim)]
    for i in range(n):
        phi[n + i][i] = 1
        phi[i][n + i] = -1
    return build_model(dim, [(i, n + i, xi, 2) for i in range(n)], xi, phi)


def space_form_curvature(model: FrameModel, c) -> CurvatureData:
    """Blair's Sasakian space form of phi-sectional curvature c (Blair,
    Riemannian Geometry of Contact and Symplectic Manifolds, 2010, ch. 7) on
    the model's frame, xi and phi, as a point with h = 0 and no model behind
    its R; with Phi(X,Y) = g(X, phi Y),

        R(X,Y)Z = (c+3)/4 (g(Y,Z)X - g(X,Z)Y)
                + (c-1)/4 (eta(X)eta(Z)Y - eta(Y)eta(Z)X
                           + g(X,Z)eta(Y)xi - g(Y,Z)eta(X)xi
                           + Phi(Z,Y)phi X - Phi(Z,X)phi Y + 2 Phi(X,Y)phi Z).
    """
    dim, xi, p = model.dim, model.xi_index, model.phi
    big, small = (Fraction(c) + 3) / 4, (Fraction(c) - 1) / 4
    g = [[int(x == y) for y in range(dim)] for x in range(dim)]
    eta = g[xi]
    riemann = {}
    for i, j, k, l in itertools.product(range(dim), repeat=4):
        value = big * (g[j][k] * g[i][l] - g[i][k] * g[j][l]) + small * (
            eta[i] * eta[k] * g[j][l] - eta[j] * eta[k] * g[i][l]
            + g[i][k] * eta[j] * eta[l] - g[j][k] * eta[i] * eta[l]
            + p.get((k, j), 0) * p.get((l, i), 0) - p.get((k, i), 0) * p.get((l, j), 0)
            + 2 * p.get((i, j), 0) * p.get((l, k), 0))
        if value:
            riemann[i, j, k, l] = value
    return CurvatureData(dim, xi, p, riemann, {})


def sasakian_over_surfaces(n: int, ks) -> CurvatureData:
    """The space form of c = -3 on H^(2n+1) plus K_p (g(Y,Z)X - g(X,Z)Y) on
    each plane span(e_p, e_(n+p)), for p < n and K_p = ks[p] a Fraction or
    RationalExpr: the curvature of the group [e_p, e_(n+p)] = 2 xi +
    k_p e_(n+p), phi as in ``heisenberg_model``, where K_p = -k_p^2."""
    base = space_form_curvature(heisenberg_model(n), -3)
    planes = {}
    for p, k in enumerate(ks):
        for i, j in itertools.permutations((p, n + p)):
            planes[i, j, j, i], planes[i, j, i, j] = k, -k
    riemann = {key: base.riemann.get(key, 0) + planes.get(key, 0)
               for key in base.riemann.keys() | planes.keys()}
    return base.replace(riemann={key: value for key, value in riemann.items() if value})


def with_phi(model: FrameModel, rows) -> FrameModel:
    """The model with the phi matrix given by rows, through build_model."""
    return model.replace(phi=build_model(model.dim, [], model.xi_index, rows).phi)


def random_nk_model(rng: random.Random) -> FrameModel:
    return nk_lie_group_3d(random_fraction(rng, span=3))


def random_model(rng: random.Random) -> FrameModel:
    return rng.choice(
        (random_diagonal_model, random_solvable_model, random_nk_model)
    )(rng)


def random_numeric_coeffs(rng: random.Random) -> tuple:
    return tuple(random_fraction(rng) for _ in range(8))


def random_preset_at_n1(rng: random.Random) -> tuple:
    """A random preset evaluated at n = 1 (random values for free params)."""
    name = rng.choice(list(PresetName))
    coeffs = preset(name)
    a0 = random_fraction(rng, allow_zero=False)
    a1 = random_fraction(rng, allow_zero=False)
    return name, coeffs.at(1, a0=a0, a1=a1)


def cayley_rotation(rng: random.Random, dim: int, xi: int) -> list:
    """A rational orthogonal matrix fixing e_xi: the Cayley transform
    (I - A)(I + A)^-1 of a random rational skew A with zero xi row and
    column, generically with every other entry nonzero."""
    skew = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            if xi not in (i, j):
                skew[i][j] = random_fraction(rng, span=3, allow_zero=False)
                skew[j][i] = -skew[i][j]
    # I - A and I + A commute, so Q solves (I + A) Q = I - A: Gauss-Jordan
    # on the augmented rows [I + A | I - A]
    left = [[Fraction(i == j) + skew[i][j] for j in range(dim)] for i in range(dim)]
    right = [[Fraction(i == j) - skew[i][j] for j in range(dim)] for i in range(dim)]
    for col in range(dim):
        pivot = next(r for r in range(col, dim) if left[r][col])
        left[col], left[pivot] = left[pivot], left[col]
        right[col], right[pivot] = right[pivot], right[col]
        scale = left[col][col]
        left[col] = [x / scale for x in left[col]]
        right[col] = [x / scale for x in right[col]]
        for r in range(dim):
            if r != col and left[r][col]:
                factor = left[r][col]
                left[r] = [x - factor * y for x, y in zip(left[r], left[col])]
                right[r] = [x - factor * y for x, y in zip(right[r], right[col])]
    return right


def rotated_model(model: FrameModel, q: list) -> FrameModel:
    """The same structure in the frame f_a = sum_i q[i][a] e_i, for q
    orthogonal with q e_xi = e_xi: c'[a][b][c] = sum q_ia q_jb q_kc c[i][j][k]
    and phi' = q^T phi q, summed slot by slot with plain loops."""
    dim, c, r = model.dim, model.structure, range(model.dim)
    one = [[[sum(q[i][a] * c.get((i, j, k), 0) for i in r) for k in r] for j in r] for a in r]
    two = [[[sum(q[j][b] * one[a][j][k] for j in r) for k in r] for b in r] for a in r]
    three = [[[sum(q[k][d] * two[a][b][k] for k in r) for d in r] for b in r] for a in r]
    phi_q = [[sum(model.phi.get((i, j), 0) * q[j][b] for j in r) for b in r] for i in r]
    phi = [[sum(q[i][a] * phi_q[i][b] for i in r) for b in r] for a in r]
    brackets = [
        (a, b, d, three[a][b][d]) for a in r for b in r for d in r if a < b and three[a][b][d]
    ]
    return build_model(dim, brackets, model.xi_index, phi)
