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

Numerically, every operation takes a point's curvature structure (a
``CurvatureData``: R, S, r, phi, xi and h in an orthonormal frame, from
``curvature`` of a model or given by formula) and eight numeric
coefficients.  T is built once per call as a (1,3) tensor in the one format
of ``frame_geometry``, a dict from index tuple to nonzero entry: a0 R plus
the Ricci and metric terms, each an outer product with the identity moved
into place.  Every condition is T with a matrix (phi, the projector onto
xi, or the matrices T(xi, e_i) taken together) contracted into some of its
slots by the kernel the curvature build uses, so the cost follows the
nonzero entries of R and T rather than d^4.  The component functions return
such dicts: ``t_components(curv, a).get((i, j, k, l), 0)`` is the e_l
coefficient of T(e_i,e_j)e_k.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence, Union

from .frame_geometry import CurvatureData, _act, _lincomb, _max_abs, _permute
from .scalar_algebra import (
    A0,
    A1,
    N,
    InputError,
    RationalExpr,
    RationalLike,
    Record,
    VARIABLES,
    as_rational,
    eval_at,
    expr,
)


class UnevaluatedCoefficient(InputError):
    """A numeric operation received coefficients with free indeterminates."""


class UnknownLabel(InputError, KeyError):
    """A preset or condition label naming no member (case ignored, ``*`` as ``_star``)."""

    __str__ = InputError.__str__  # KeyError's would quote the message


def _parse_label(enum, noun: str, label: str):
    cleaned = label.strip().replace("*", "_star").lower()
    for member in enum:
        if member.value.lower() == cleaned:
            return member
    raise UnknownLabel(f"unknown {noun} {label!r}")


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
        return _parse_label(cls, "preset", label)


class ConditionKind(str, Enum):
    T_FLAT = "t-flat"
    XI_T_FLAT = "xi-flat"
    QUASI_T_FLAT = "quasi-flat"
    PHI_T_FLAT = "phi-flat"
    T_DOT_R = "t-dot-r"
    T_DOT_S = "t-dot-s"

    @classmethod
    def parse(cls, label: str) -> "ConditionKind":
        return _parse_label(cls, "condition", label)


class TCoeffs(Record):
    """Coefficient vector (a0..a7) of rational functions of n (and the free
    parameters a0, a1 for the starred presets); an entry holding any other
    indeterminate is an InputError."""

    a: tuple
    annotations: tuple = ()

    def __post_init__(self):
        if len(self.a) != 8:
            raise InputError("a coefficient vector has exactly 8 entries")
        for place, entry in enumerate(self.a, 1):
            other = entry.variables() - {"n", "a0", "a1"}
            if other:
                names = ", ".join(v for v in VARIABLES if v in other)
                raise InputError(f"coefficient entry {place} ({entry}) holds {names}; "
                                 "entries are functions of n, a0 and a1 only")

    def free_parameters(self) -> frozenset:
        return frozenset().union(*(entry.variables() for entry in self.a)) - {"n"}

    def at(
        self,
        n: RationalLike,
        a0: Optional[RationalLike] = None,
        a1: Optional[RationalLike] = None,
    ) -> tuple:
        """Numeric coefficients at a concrete n (and free-parameter values)."""
        given = {"n": n, "a0": a0, "a1": a1}
        bindings = {name: as_rational(v) for name, v in given.items() if v is not None}
        missing = frozenset().union(*(entry.variables() for entry in self.a)) - set(bindings)
        if missing:
            names = ", ".join(v for v in VARIABLES if v in missing)
            raise UnevaluatedCoefficient(f"coefficients need values for {names}")
        return tuple(eval_at(entry, bindings) for entry in self.a)

    def annotate(self, *notes: str) -> "TCoeffs":
        return self.replace(annotations=self.annotations + notes)


def coeffs_from(entries: Sequence[Union[RationalExpr, int, Fraction, str]]) -> TCoeffs:
    return TCoeffs(tuple(expr(e) for e in entries))


_TWO_N = 2 * N


@cache
def _rows() -> dict:
    inv_2n = 1 / _TWO_N
    inv_2n_minus = 1 / (_TWO_N - 1)
    inv_4n = 1 / (4 * N)
    rows = {
        PresetName.C_STAR: coeffs_from(
            [A0, A1, -A1, 0, A1, -A1, 0, -(A0 / _TWO_N + 2 * A1) / (_TWO_N + 1)]
        ).annotate("free parameters a0, a1"),
        PresetName.C: coeffs_from([1, -inv_2n_minus, inv_2n_minus, 0, -inv_2n_minus,
                                   inv_2n_minus, 0, 1 / (_TWO_N * (_TWO_N - 1))]),
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


@cache
def _printed_rows() -> dict:
    inv_2n = 1 / _TWO_N
    rows = dict(_rows())
    rows[PresetName.W0_STAR] = coeffs_from(
        [1, -inv_2n, 0, 0, 0, inv_2n, 0, 0]
    ).annotate("as printed: identical to W0")
    rows[PresetName.W9] = coeffs_from([1, 0, 0, -inv_2n, inv_2n, 0, 0, 0]).annotate(
        "as printed: a3 = -a4 = -1/(2n)"
    )
    return rows


def preset(name: Union[PresetName, str]) -> TCoeffs:
    """Coefficient vector for a named tensor (corrected rows flagged)."""
    return _rows()[PresetName.parse(name)]


def preset_as_printed(name: Union[PresetName, str]) -> TCoeffs:
    """The verbatim catalog row, including the known-typo rows."""
    return _printed_rows()[PresetName.parse(name)]


def catalog() -> dict:
    """name -> rendered coefficient strings and annotation flags."""
    return {
        name.value: {
            "coefficients": [str(e) for e in row.a],
            "flags": list(row.annotations),
        }
        for name, row in _rows().items()
    }


def _numeric(coeffs) -> tuple:
    if isinstance(coeffs, TCoeffs):
        raise UnevaluatedCoefficient(
            "TCoeffs entries are functions of n; evaluate them with .at(n, a0, a1)")
    values = tuple(as_rational(v) for v in coeffs)
    if len(values) != 8:
        raise InputError("a numeric coefficient vector has exactly 8 entries")
    return values


# the slots of delta (x) S, [x0, x1, x2, x3] = delta(x0, x1) S(x2, x3), that the
# terms a1..a6 take: a1 S(X2,X3) X1 is T[i, j, k, i] += a1 S[j, k], and so on
_RICCI_SLOTS = ((0, 2, 3, 1), (2, 0, 3, 1), (2, 3, 0, 1), (2, 0, 1, 3), (0, 2, 1, 3), (0, 1, 2, 3))


def t_components(curv: CurvatureData, coeffs) -> dict:
    """The (1,3) components T[i, j, k, l] = coefficient of e_l in
    T(e_i,e_j)e_k.

    Coefficients are 8 numeric rationals; ``TCoeffs.at`` gives them for a
    preset row.
    """
    a = _numeric(coeffs)
    dim, r_term = curv.dim, a[7] * curv.scalar
    delta_ricci = {(i, i, *key): v for i in range(dim) for key, v in curv.ricci.items()}
    delta_delta = {(i, i, j, j): Fraction(1) for i in range(dim) for j in range(dim)}
    # a0 R, the Ricci terms, then a7 r (g(X2,X3) X1 - g(X1,X3) X2)
    parts = (curv.riemann, *(_permute(delta_ricci, slots) for slots in _RICCI_SLOTS),
             _permute(delta_delta, (0, 2, 3, 1)), _permute(delta_delta, (0, 2, 1, 3)))
    return _lincomb((*a[:7], r_term, -r_term), parts)


def flatness_residual(curv: CurvatureData, coeffs, kind: ConditionKind, *,
                      strict: bool = False, variant: str = "standard") -> Fraction:
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
    transpose of its matrix).  ``strict`` applies to xi-flat only and a
    ``variant`` other than standard to t-dot-r only: elsewhere InputError.
    """
    kind = ConditionKind.parse(kind)
    if strict and kind is not ConditionKind.XI_T_FLAT:
        raise InputError(f"strict (--strict-xi) applies to xi-flat only, not {kind.value}")
    if variant != "standard" and kind is not ConditionKind.T_DOT_R:
        raise InputError(f"variant {variant} applies to t-dot-r only, not {kind.value}")
    if kind is ConditionKind.T_DOT_R:
        return t_dot_riemann(curv, coeffs, variant=variant)
    if kind is ConditionKind.T_DOT_S:
        return t_dot_ricci(curv, coeffs)
    tv = t_components(curv, coeffs)
    on_xi = {(curv.xi_index, curv.xi_index): Fraction(1)}
    phi_t = _permute(curv.phi, (1, 0))
    insertions = {
        ConditionKind.T_FLAT: {},
        ConditionKind.XI_T_FLAT: {2: on_xi} if strict else {1: on_xi, 2: on_xi},
        ConditionKind.QUASI_T_FLAT: {0: phi_t, 3: phi_t},
        ConditionKind.PHI_T_FLAT: dict.fromkeys(range(4), phi_t),
    }
    for slot, matrix in insertions[kind].items():
        tv = _act(matrix, tv, slot)
    return _max_abs(tv)


def _lower(curv: CurvatureData, coeffs) -> dict:
    """lower[i, p, q] = T[xi, i, p, q], the matrices of T(xi, e_i) stacked
    over i."""
    return {key[1:]: v for key, v in t_components(curv, coeffs).items() if key[0] == curv.xi_index}


def t_dot_riemann_components(
    curv: CurvatureData, coeffs, *, variant: str = "standard"
) -> dict:
    """Full components of (T(xi, e_i) . R)(e_j, e_k) e_l, keyed
    (i, j, k, l, m) for its e_m coefficient.

    variant="standard" uses the four-term derivation acting on every slot of
    R: the action of T(xi, e_i) on the upper slot minus its actions on the
    three lower slots.  variant="printed" reproduces a variant whose fourth
    term reads -R(e_i, e_j) T(xi, e_i) e_l, i.e. with the first slot pair
    repeated.
    """
    if variant not in ("standard", "printed"):
        raise InputError("variant must be 'standard' or 'printed'")
    lower = _lower(curv, coeffs)
    riemann, dim = curv.riemann, curv.dim
    # an action of lower leaves its index pair (i, x) where the contracted
    # slot was; each permutation moves i back to the front
    fourth = _permute(_act(lower, riemann, 2), (2, 0, 1, 3, 4))
    if variant == "printed":  # fourth[i, j, x, k, l] = fourth[i, i, j, k, l]
        fourth = {(i, j, x, k, l): v for (i, y, j, k, l), v in fourth.items()
                  if y == i for x in range(dim)}
    terms = (_permute(_act(_permute(lower, (0, 2, 1)), riemann, 3), (3, 0, 1, 2, 4)),
             _act(lower, riemann, 0), _permute(_act(lower, riemann, 1), (1, 0, 2, 3, 4)), fourth)
    return _lincomb((1, -1, -1, -1), terms)


def t_dot_riemann(curv: CurvatureData, coeffs, *, variant: str = "standard") -> Fraction:
    """Max-abs residual of (T(xi, e_i) . R)(e_j, e_k) e_l over all tuples."""
    return _max_abs(t_dot_riemann_components(curv, coeffs, variant=variant))


def t_dot_ricci_components(curv: CurvatureData, coeffs) -> dict:
    """Components S(T(xi,e_i)e_j, e_k) + S(e_j, T(xi,e_i)e_k), keyed
    (i, j, k), with the plus sign of the two-slot action as printed in its
    source definition."""
    lower, ricci = _lower(curv, coeffs), curv.ricci
    terms = (_act(lower, ricci, 0), _permute(_act(lower, ricci, 1), (1, 0, 2)))
    return _lincomb((1, 1), terms)


def t_dot_ricci(curv: CurvatureData, coeffs) -> Fraction:
    """Max-abs residual of (T(xi, e_i) . S)(e_j, e_k) over all tuples."""
    return _max_abs(t_dot_ricci_components(curv, coeffs))
