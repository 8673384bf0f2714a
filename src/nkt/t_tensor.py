"""The eight-parameter curvature tensor family and its flatness residuals.

The family is

    T(X1,X2)X3 = a0 R(X1,X2)X3 + a1 S(X2,X3) X1 + a2 S(X1,X3) X2
               + a3 S(X1,X2) X3 + a4 g(X2,X3) Q X1 + a5 g(X1,X3) Q X2
               + a6 g(X1,X2) Q X3 + a7 r (g(X2,X3) X1 - g(X1,X3) X2)

with the (0,4) form T(X1,X2,X3,X4) = g(T(X1,X2)X3, X4).  Specializing the
coefficient vector reproduces the classical named tensors (conformal,
conharmonic, concircular, projective, M-projective, the W-family, and the
quasi/pseudo variants with free parameters a0, a1).

Three catalog rows cannot be taken at face value from their usual printed
source and are shipped in a corrected form, each flagged on the returned
coefficients (``preset_as_printed`` retains the verbatim rows):

* W4 is printed with its trailing value cut off; the missing value is 0.
* W0* is printed identical to W0; the unique row consistent with the
  classification results flips the sign pair to a1 = -a5 = +1/(2n).
* W9 is printed with a3 = -a4 = -1/(2n); consistency requires +1/(2n).

Residual conventions: residuals are max-abs over frame tuples in exact
arithmetic, so zero means identically zero.  The ``xi-flat`` residual sweeps
T(e_i, xi, xi, e_l) - the insertion the classification actually constrains;
``strict=True`` sweeps the full T(e_i, e_j) xi = 0 condition instead, which
is strictly stronger and fails even on models whose Ricci tensor matches the
classified form.

Numerically, T is built once per call as a dense (1,3) array, and every
condition is that array with a matrix (phi, the projector onto xi, or the
matrix of T(xi, e_i)) contracted into some of its slots by one primitive,
``frame_geometry._act``, the same one the curvature build uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .frame_geometry import CurvatureData, FrameModel, curvature
from .frame_geometry import _act, _lincomb, _max_abs, _transpose
from .scalar_algebra import (
    A0,
    A1,
    N,
    RationalExpr,
    RationalLike,
    as_rational,
    eval_at,
    expr,
)


class UnevaluatedCoefficient(Exception):
    """A numeric operation received coefficients with free indeterminates."""


class PresetName(str, Enum):
    C_STAR = "C_star"
    C = "C"
    L = "L"
    V = "V"
    P_STAR = "P_star"
    P = "P"
    M = "M"
    W0 = "W0"
    W0_STAR = "W0_star"
    W1 = "W1"
    W1_STAR = "W1_star"
    W2 = "W2"
    W3 = "W3"
    W4 = "W4"
    W5 = "W5"
    W6 = "W6"
    W7 = "W7"
    W8 = "W8"
    W9 = "W9"
    RIEMANN = "Riemann"

    @classmethod
    def parse(cls, label: str) -> "PresetName":
        cleaned = label.strip().replace("*", "_star")
        for member in cls:
            if member.value.lower() == cleaned.lower():
                return member
        raise KeyError(f"unknown preset {label!r}")


class ConditionKind(str, Enum):
    T_FLAT = "t-flat"
    XI_T_FLAT = "xi-flat"
    QUASI_T_FLAT = "quasi-flat"
    PHI_T_FLAT = "phi-flat"
    T_DOT_R = "t-dot-r"
    T_DOT_S = "t-dot-s"

    @classmethod
    def parse(cls, label: str) -> "ConditionKind":
        cleaned = label.strip().lower()
        for member in cls:
            if member.value == cleaned:
                return member
        raise KeyError(f"unknown condition {label!r}")


@dataclass(frozen=True)
class TCoeffs:
    """Coefficient vector (a0..a7) of rational functions of n (and the free
    parameters a0, a1 for the starred presets)."""

    a: tuple
    annotations: tuple = ()

    def __post_init__(self):
        if len(self.a) != 8:
            raise ValueError("a coefficient vector has exactly 8 entries")

    def __getitem__(self, index: int) -> RationalExpr:
        return self.a[index]

    def free_parameters(self) -> frozenset:
        out = frozenset()
        for entry in self.a:
            out |= entry.variables()
        return out - {"n"}

    def at(
        self,
        n: RationalLike,
        a0: Optional[RationalLike] = None,
        a1: Optional[RationalLike] = None,
    ) -> tuple:
        """Numeric coefficients at a concrete n (and free-parameter values)."""
        bindings = {"n": as_rational(n)}
        if a0 is not None:
            bindings["a0"] = as_rational(a0)
        if a1 is not None:
            bindings["a1"] = as_rational(a1)
        values = []
        for entry in self.a:
            missing = entry.variables() - set(bindings)
            if missing:
                raise UnevaluatedCoefficient(
                    f"coefficient {entry} needs values for {sorted(missing)}"
                )
            values.append(eval_at(entry, bindings))
        return tuple(values)

    def annotate(self, *notes: str) -> "TCoeffs":
        return replace(self, annotations=self.annotations + notes)


def coeffs_from(entries: Sequence[Union[RationalExpr, int, Fraction, str]]) -> TCoeffs:
    return TCoeffs(tuple(expr(e) for e in entries))


_TWO_N = 2 * N


def _rows() -> dict:
    inv_2n = 1 / _TWO_N
    inv_2n_minus = 1 / (_TWO_N - 1)
    inv_4n = 1 / (4 * N)
    rows = {
        PresetName.C_STAR: coeffs_from(
            [A0, A1, -A1, 0, A1, -A1, 0, -(A0 / _TWO_N + 2 * A1) / (_TWO_N + 1)]
        ).annotate("free parameters a0, a1"),
        PresetName.C: coeffs_from(
            [
                1,
                -inv_2n_minus,
                inv_2n_minus,
                0,
                -inv_2n_minus,
                inv_2n_minus,
                0,
                1 / (_TWO_N * (_TWO_N - 1)),
            ]
        ),
        PresetName.L: coeffs_from(
            [1, -inv_2n_minus, inv_2n_minus, 0, -inv_2n_minus, inv_2n_minus, 0, 0]
        ),
        PresetName.V: coeffs_from([1, 0, 0, 0, 0, 0, 0, -1 / (_TWO_N * (_TWO_N + 1))]),
        PresetName.P_STAR: coeffs_from(
            [A0, A1, -A1, 0, 0, 0, 0, -(A0 / _TWO_N + A1) / (_TWO_N + 1)]
        ).annotate("free parameters a0, a1"),
        PresetName.P: coeffs_from([1, -inv_2n, inv_2n, 0, 0, 0, 0, 0]),
        PresetName.M: coeffs_from([1, -inv_4n, inv_4n, 0, -inv_4n, inv_4n, 0, 0]),
        PresetName.W0: coeffs_from([1, -inv_2n, 0, 0, 0, inv_2n, 0, 0]).annotate(
            "duplicate: source prints W0 and W0* with identical rows"
        ),
        PresetName.W0_STAR: coeffs_from([1, inv_2n, 0, 0, 0, -inv_2n, 0, 0]).annotate(
            "reconstructed: printed row duplicates W0; signs flipped to the"
            " unique vector consistent with the classification tables"
        ),
        PresetName.W1: coeffs_from([1, inv_2n, -inv_2n, 0, 0, 0, 0, 0]),
        PresetName.W1_STAR: coeffs_from([1, -inv_2n, inv_2n, 0, 0, 0, 0, 0]),
        PresetName.W2: coeffs_from([1, 0, 0, 0, -inv_2n, inv_2n, 0, 0]),
        PresetName.W3: coeffs_from([1, 0, -inv_2n, 0, inv_2n, 0, 0, 0]),
        PresetName.W4: coeffs_from([1, 0, 0, 0, 0, inv_2n, -inv_2n, 0]).annotate(
            "reconstructed: printed row truncates the shared value of"
            " a1, a2, a3, a4, a7; taken as 0"
        ),
        PresetName.W5: coeffs_from([1, 0, -inv_2n, 0, 0, inv_2n, 0, 0]),
        PresetName.W6: coeffs_from([1, -inv_2n, 0, 0, 0, 0, inv_2n, 0]),
        PresetName.W7: coeffs_from([1, -inv_2n, 0, 0, inv_2n, 0, 0, 0]),
        PresetName.W8: coeffs_from([1, -inv_2n, 0, inv_2n, 0, 0, 0, 0]),
        PresetName.W9: coeffs_from([1, 0, 0, inv_2n, -inv_2n, 0, 0, 0]).annotate(
            "reconstructed: printed row has a3 = -a4 = -1/(2n); the sign"
            " consistent with the classification tables is +1/(2n)"
        ),
        PresetName.RIEMANN: coeffs_from([1, 0, 0, 0, 0, 0, 0, 0]),
    }
    return rows


_PRESETS = _rows()


def _printed_rows() -> dict:
    inv_2n = 1 / _TWO_N
    rows = dict(_PRESETS)
    rows[PresetName.W0_STAR] = coeffs_from(
        [1, -inv_2n, 0, 0, 0, inv_2n, 0, 0]
    ).annotate("as printed: identical to W0")
    rows[PresetName.W9] = coeffs_from([1, 0, 0, -inv_2n, inv_2n, 0, 0, 0]).annotate(
        "as printed: a3 = -a4 = -1/(2n)"
    )
    return rows


_PRESETS_PRINTED = _printed_rows()


def preset(name: Union[PresetName, str]) -> TCoeffs:
    """Coefficient vector for a named tensor (corrected rows flagged)."""
    if not isinstance(name, PresetName):
        name = PresetName.parse(name)
    return _PRESETS[name]


def preset_as_printed(name: Union[PresetName, str]) -> TCoeffs:
    """The verbatim catalog row, including the known-typo rows."""
    if not isinstance(name, PresetName):
        name = PresetName.parse(name)
    return _PRESETS_PRINTED[name]


def catalog() -> dict:
    """name -> rendered coefficient strings and annotation flags."""
    return {
        name.value: {
            "coefficients": [str(e) for e in row.a],
            "flags": list(row.annotations),
        }
        for name, row in _PRESETS.items()
    }


def _numeric(coeffs, model_n: int) -> tuple:
    if isinstance(coeffs, TCoeffs):
        return coeffs.at(model_n)
    values = tuple(as_rational(v) for v in coeffs)
    if len(values) != 8:
        raise ValueError("a numeric coefficient vector has exactly 8 entries")
    return values


def t_components(model: FrameModel, coeffs, curv: Optional[CurvatureData] = None):
    """Dense (1,3) components Tv[i][j][k][l] = coefficient of e_l in
    T(e_i,e_j)e_k.

    Coefficients are numeric rationals; a TCoeffs is evaluated at the
    model's n and raises UnevaluatedCoefficient while free parameters
    remain.
    """
    if curv is None:
        curv = curvature(model)
    a = _numeric(coeffs, model.n)
    ricci, scalar, dim = curv.ricci, curv.scalar, model.dim
    tv = [[[[a[0] * x for x in cell] for cell in row] for row in block] for block in curv.riemann]
    # each Ricci/metric term lands only where its Kronecker delta fires
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                cell = tv[i][j][k]
                cell[i] += a[1] * ricci[j][k]
                cell[j] += a[2] * ricci[i][k]
                cell[k] += a[3] * ricci[i][j]
            for l in range(dim):
                tv[i][j][j][l] += a[4] * ricci[i][l]
                tv[i][j][i][l] += a[5] * ricci[j][l]
                tv[i][i][j][l] += a[6] * ricci[j][l]
            tv[i][j][j][i] += a[7] * scalar
            tv[i][j][i][j] -= a[7] * scalar
    return tv, curv


def flatness_residual(
    model: FrameModel,
    coeffs,
    kind: ConditionKind,
    *,
    strict: bool = False,
    variant: str = "standard",
) -> Fraction:
    """Max-abs residual of a flatness or derivation condition over all frame
    tuples; t-dot-r and t-dot-s go to t_dot_riemann (with ``variant``) and
    t_dot_ricci.

    t-flat      T(e_i,e_j)e_k = 0
    xi-flat     T(e_i, xi, xi, e_l) = 0 (the classified insertion);
                with strict=True the full T(e_i,e_j) xi = 0 instead
    quasi-flat  g(T(phi e_i, e_j) e_k, phi e_l) = 0
    phi-flat    g(T(phi e_i, phi e_j) phi e_k, phi e_l) = 0

    Each condition is T with a matrix applied to some slots: the projector
    onto xi, or phi^T (inserting phi e_i into a slot contracts with the
    transpose of its matrix).
    """
    if kind is ConditionKind.T_DOT_R:
        return t_dot_riemann(model, coeffs, variant=variant)
    if kind is ConditionKind.T_DOT_S:
        return t_dot_ricci(model, coeffs)
    tv, _ = t_components(model, coeffs)
    dim, xi = model.dim, model.xi_index
    on_xi = [[Fraction(x == p == xi) for p in range(dim)] for x in range(dim)]
    phi_t = _transpose(model.phi)
    insertions = {
        ConditionKind.T_FLAT: {},
        ConditionKind.XI_T_FLAT: {2: on_xi} if strict else {1: on_xi, 2: on_xi},
        ConditionKind.QUASI_T_FLAT: {0: phi_t, 3: phi_t},
        ConditionKind.PHI_T_FLAT: dict.fromkeys(range(4), phi_t),
    }
    if kind not in insertions:
        raise ValueError(f"unknown condition kind: {kind}")
    for slot, matrix in insertions[kind].items():
        tv = _act(matrix, tv, slot)
    return _max_abs(tv)


def t_dot_riemann_components(
    model: FrameModel, coeffs, *, variant: str = "standard"
):
    """Full components of (T(xi, e_i) . R)(e_j, e_k) e_l.

    variant="standard" uses the four-term derivation acting on every slot of
    R: the action of T(xi, e_i) on the upper slot minus its actions on the
    three lower slots.  variant="printed" reproduces a variant whose fourth
    term reads -R(e_i, e_j) T(xi, e_i) e_l, i.e. with the first slot pair
    repeated.
    """
    if variant not in ("standard", "printed"):
        raise ValueError("variant must be 'standard' or 'printed'")
    tv, curv = t_components(model, coeffs)
    riemann, dim, xi = curv.riemann, model.dim, model.xi_index
    out = []
    for i in range(dim):
        lower = tv[xi][i]  # row p: T(xi, e_i) e_p
        fourth = _act(lower, riemann, 2)
        if variant == "printed":
            fourth = tuple((fourth[i][j],) * dim for j in range(dim))
        terms = (
            _act(_transpose(lower), riemann, 3),
            _act(lower, riemann, 0),
            _act(lower, riemann, 1),
            fourth,
        )
        out.append(_lincomb((1, -1, -1, -1), terms))
    return tuple(out)


def t_dot_riemann(model: FrameModel, coeffs, *, variant: str = "standard") -> Fraction:
    """Max-abs residual of (T(xi, e_i) . R)(e_j, e_k) e_l over all tuples."""
    return _max_abs(t_dot_riemann_components(model, coeffs, variant=variant))


def t_dot_ricci_components(model: FrameModel, coeffs):
    """Components S(T(xi,e_i)e_j, e_k) + S(e_j, T(xi,e_i)e_k), with the plus
    sign of the two-slot action as printed in its source definition."""
    tv, curv = t_components(model, coeffs)
    ricci, xi = curv.ricci, model.xi_index
    return tuple(
        _lincomb((1, 1), (_act(lower, ricci, 0), _act(lower, ricci, 1)))
        for lower in tv[xi]
    )


def t_dot_ricci(model: FrameModel, coeffs) -> Fraction:
    """Max-abs residual of (T(xi, e_i) . S)(e_j, e_k) over all tuples."""
    return _max_abs(t_dot_ricci_components(model, coeffs))
