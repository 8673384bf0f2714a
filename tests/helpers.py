"""Shared generators for randomized model and coefficient tests."""

import random
from fractions import Fraction

from nkt.frame_geometry import FrameModel, build_model, nk_lie_group_3d
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
