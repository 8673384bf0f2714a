"""Symbolic classification of the flatness and derivation conditions.

Every result here is an exact rational-function derivation from a
coefficient vector:

* the scalar constraint a T-flat manifold imposes on kappa, and its solver;
* the eta-Einstein coefficient pair (b1, b2) with S = b1 g + b2 eta (x) eta
  for the quasi-flat, phi-flat and xi-flat conditions and for the two
  derivation conditions T(xi,X).R = 0 and T(xi,X).S = 0;
* the Boeckx invariant (1 - mu/2)/sqrt(1 - kappa), the D-homothetic
  parameter transform, and the sqrt(n) example family built from a space of
  constant curvature c with kappa = c(2-c), mu = -2c;
* reproduction of the six reference tables against golden transcriptions,
  with a curated allow-list of rows whose printed source contains typos
  (the derivation is diffed against the transcription, so any such row
  surfaces as an explicit, documented mismatch rather than a silent fix).

Every printed formula is linear in (a0, ..., a7), so each is stored as rows
of eight coefficients and evaluated by one dot product: the T-flat
constraint is one row, and an eta-Einstein form is a hypothesis row C and
numerator rows (A, B), with b1 = A.a/C.a and b2 = B.a/C.a; a vanishing C.a
is degenerate.  The scalar curvature r stays a symbol in the rows unless
``substitute_r=True`` binds it to 2n(2n - 2 + kappa) (the golden tables are
transcribed with r substituted).

The golden files are the tables.  A reference table is a map from preset
to its fields, kappa for table 2 and (tag, b1, b2) for tables 3-7, and a
derived row is diffed in the same fields.  Its rows come out in its file's
order, and its row set must equal the derivable catalog rows (every preset
but Riemann whose hypothesis does not degenerate).  The only exceptions are
coded: the degenerate W7 rows emitted flagged in tables 3 and 4, and the
P row the source leaves out of table 6.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import cache, reduce
from math import isqrt
from operator import add
from pathlib import Path
from typing import Optional, Union

from .scalar_algebra import (
    ExprLike,
    InputError,
    KAPPA,
    LinearSolution,
    N,
    R,
    RationalExpr,
    Record,
    S,
    as_int,
    expr,
    numbered_lines,
    parse_expr,
    solve_linear,
    substitute,
)
from .t_tensor import ConditionKind, PresetName, TCoeffs, preset

SCALAR_CURVATURE = 2 * N * (2 * N - 2 + KAPPA)

_DATA_DIR = Path(__file__).parent / "data" / "golden"
GOLDEN_DIR_ENV = "NKT_GOLDEN_DIR"


class SasakianInput(InputError):
    """The Boeckx invariant is undefined at kappa = 1."""


class ZeroDeformation(InputError):
    """A D-homothetic deformation needs a nonzero scale parameter."""


class FormTag(str, Enum):
    EINSTEIN = "einstein"
    ETA_EINSTEIN = "eta-einstein"
    DEGENERATE = "degenerate"


class EtaEinsteinForm(Record):
    """S = b1 g + b2 eta (x) eta, valid where the denominator condition is
    nonzero; degenerate rows carry no coefficients."""

    b1: Optional[RationalExpr]
    b2: Optional[RationalExpr]
    tag: FormTag
    denominator_condition: RationalExpr

    @property
    def is_degenerate(self) -> bool:
        return self.tag is FormTag.DEGENERATE


@cache
def _form_rows(condition: ConditionKind, substitute_r: bool) -> tuple:
    """The rows of 8 coefficients of one condition, position i holding a_i's:
    the T-flat constraint row, or the rows (C, A, B) of an eta-Einstein form.
    Entries are polynomials in n, kappa and r, with r the symbol or, with
    ``substitute_r``, 2n(2n - 2 + kappa) itself."""
    r = SCALAR_CURVATURE if substitute_r else R
    k, nk = KAPPA, 2 * N * KAPPA
    if condition is ConditionKind.T_FLAT:
        return ((k, 2 * N - 2 + k, k, k, (2 * N + 1) * k, k, k, r),)
    if condition is ConditionKind.T_DOT_R:  # T(xi, X).R = 0, with no r
        return ((0, 1, 0, 0, 0, 1, 0, 0),
                (0, 0, -nk, 0, -nk, 0, 0, 0),
                (0, nk, nk, 0, nk, nk, 0, 0))
    if condition is ConditionKind.T_DOT_S:  # T(xi, X).S = 0 under a Killing xi (h = 0)
        p, q, m = nk - 2 * N + 2, nk ** 2, 2 * nk * (N - 1)
        return ((0, -1, 0, 0, 0, -1, 0, 0),
                (k * p, 0, m, 0, q, 0, 0, r * p),
                (-k * p, q, 2 * q - m, 2 * q, q, 2 * q - m, 2 * q, -r * p))
    # quasi: g(T(phi X1, X2) X3, phi X4) = 0; xi: T(X1, xi, xi, X4) = 0;
    # phi: g(T(phi X1, phi X2) phi X3, phi X4) = 0, whose trace pins b2 = 2n kappa - b1
    quasi_c, quasi_a = (1, 2 * N, 1, 1, 0, 1, 1, 0), (k, 0, 0, 0, nk - r, 0, 0, (1 - 2 * N) * r)
    quasi_b = (-k, 0, nk, nk, 0, nk, nk, -r)
    if condition is ConditionKind.XI_T_FLAT:
        return (0, 0, 0, 0, 1, 0, 0, 0), (-k, -nk, 0, 0, 0, 0, 0, -r), tuple(-b for b in quasi_b)
    if condition is ConditionKind.PHI_T_FLAT:
        quasi_b = tuple(nk * c - a for c, a in zip(quasi_c, quasi_a))
    return quasi_c, quasi_a, quasi_b


def _dot(row: tuple, a: tuple) -> RationalExpr:
    """sum of row[i] * a[i].  The a[i] that share a row value are summed
    first, so each distinct value multiplies once."""
    groups = {}
    for value, entry in zip(row, a):
        if value:
            groups.setdefault(value, []).append(entry)
    terms = [reduce(add, entries) * value for value, entries in groups.items()]
    return reduce(add, terms)


def t_flat_constraint(coeffs: TCoeffs) -> RationalExpr:
    """The scalar constraint satisfied by every T-flat manifold:

    a1 (2n-2+kappa) + (a0+a2+a3+(2n+1)a4+a5+a6) kappa + 2n(2n-2+kappa) a7.
    """
    return _dot(_form_rows(ConditionKind.T_FLAT, True)[0], coeffs.a)


def t_flat_kappa(coeffs: TCoeffs) -> LinearSolution:
    """Solve the T-flat constraint for kappa.

    ``identity`` corresponds to "kappa may be any real number"; unique roots
    carry the leading coefficient as a side condition (relevant for the
    presets with free parameters).
    """
    return solve_linear(t_flat_constraint(coeffs), "kappa")


def eta_einstein_form(
    condition: ConditionKind, coeffs: TCoeffs, substitute_r: bool = False
) -> EtaEinsteinForm:
    """S = b1 g + b2 eta (x) eta forced by one of the five eta-Einstein
    conditions, b1 = A.a / C.a and b2 = B.a / C.a from its rows (C, A, B).
    A vanishing C.a is degenerate, and A.a and B.a are then never formed."""
    if condition is ConditionKind.T_FLAT:
        raise InputError("t-flat forces kappa, not an eta-Einstein form")
    c_row, a_row, b_row = _form_rows(condition, substitute_r)
    c = _dot(c_row, coeffs.a)
    if c.is_zero():
        return EtaEinsteinForm(None, None, FormTag.DEGENERATE, c)
    b1, b2 = _dot(a_row, coeffs.a) / c, _dot(b_row, coeffs.a) / c
    tag = FormTag.EINSTEIN if b2.is_zero() else FormTag.ETA_EINSTEIN
    return EtaEinsteinForm(b1, b2, tag, c)


def consistency_kappa(form: EtaEinsteinForm) -> LinearSolution:
    """Solve b1 + b2 - 2 n kappa = 0, the trace constraint S(xi,xi) = 2 n
    kappa every genuine model satisfies; requires r already substituted."""
    if form.is_degenerate:
        raise InputError("consistency check needs a non-degenerate form")
    trace = form.b1 + form.b2 - 2 * N * KAPPA
    if "r" in trace.variables():
        raise InputError("substitute the scalar curvature before the consistency check")
    return solve_linear(trace, "kappa")


# ---------------------------------------------------------------------------
# Boeckx invariant and D-homothetic deformations


def boeckx(kappa: ExprLike, mu: ExprLike, root: ExprLike) -> RationalExpr:
    """The invariant (1 - mu/2)/sqrt(1 - kappa) of a non-Sasakian structure.

    ``root`` is the branch of sqrt(1 - kappa) to divide by, e.g. |1 - c| in
    the sqrt(n) family; a root that does not square to 1 - kappa exactly is
    an InputError, and kappa = 1 is a SasakianInput.
    """
    kappa, mu, root = expr(kappa), expr(mu), expr(root)
    if (kappa - 1).is_zero():
        raise SasakianInput("the invariant is undefined at kappa = 1")
    radicand = 1 - kappa
    if root * root != radicand:
        raise InputError(f"{root} does not square to 1 - kappa = {radicand}")
    return (1 - mu / 2) / root


def d_homothetic(kappa: ExprLike, mu: ExprLike, a: ExprLike, c: ExprLike) -> tuple:
    """Parameter transform of a D-homothetic deformation, as printed in its
    source: kappa_bar = (kappa + a^2 - 1)/a, mu_bar = (mu + 2c - 2)/a.

    Both parameters are accepted; the identity deformation is a = c = 1.
    """
    kappa, mu, a, c = expr(kappa), expr(mu), expr(a), expr(c)
    if a.is_zero():
        raise ZeroDeformation("deformation scale a must be nonzero")
    return (kappa + a * a - 1) / a, (mu + 2 * c - 2) / a


class BoeckxExampleReport(Record):
    """The constant-curvature-c family with kappa = c(2-c), mu = -2c and
    c = (sqrt(n) +- 1)^2/(n - 1); its invariant equals sqrt(n) exactly."""

    n: int
    sign: int
    c: RationalExpr
    a: RationalExpr
    kappa: RationalExpr
    mu: RationalExpr
    invariant: RationalExpr
    target: RationalExpr
    ok: bool

    def specialized(self) -> dict:
        """Values with n substituted (and s = sqrt(n) when n is a square)."""
        out = {}
        root = isqrt(self.n)
        for name in ("c", "a", "kappa", "mu", "invariant", "target"):
            value = substitute(getattr(self, name), "n", self.n)
            if root * root == self.n:
                value = substitute(value, "s", root)
            out[name] = value
        return out


def boeckx_example(n: int, sign: Union[int, str]) -> BoeckxExampleReport:
    """Check the sqrt(n) family member for a concrete n >= 2 and sign branch.

    The whole computation runs in the sqrt(n) extension with n symbolic, so
    the verdict is exact; the report also carries the values specialized at
    the given n.  The minus branch has c < 1, the plus branch c > 1, which
    fixes |1 - c| without evaluating the radical numerically.
    """
    if n < 2:
        raise InputError("the family needs n >= 2")
    eps = {"+": 1, 1: 1, "-": -1, -1: -1}.get(sign)
    if eps is None:
        raise InputError(f"sign must be + or -, got {sign!r}")
    c = (S + eps) ** 2 / (N - 1)
    a = 1 + c
    kappa = c * (2 - c)
    mu = -2 * c
    root = c - 1 if eps > 0 else 1 - c  # |1 - c| per branch
    invariant = boeckx(kappa, mu, root)
    return BoeckxExampleReport(n, eps, c, a, kappa, mu, invariant, S, invariant == S)


# ---------------------------------------------------------------------------
# table reproduction against golden transcriptions


class ClassificationRow(Record):
    preset: PresetName
    condition: ConditionKind
    kappa: Optional[LinearSolution]
    form: Optional[EtaEinsteinForm]
    flags: tuple


class RowDiff(Record):
    """One reproduced row plus its comparison against the transcription.

    ``matches`` is None for rows excluded from the diff (degenerate rows the
    reference tables do not print); a row missing from the file, or a file
    line for a row that is not derivable, mismatches in the field "row".
    ``allowed`` collects the mismatching fields listed in the typo
    allow-list together with their documentation notes.
    """

    row: ClassificationRow
    reference: Optional[dict]
    matches: Optional[bool]
    mismatches: tuple
    allowed: tuple

    @property
    def unexpected(self) -> tuple:
        allowed_fields = {field for field, _ in self.allowed}
        return tuple(f for f in self.mismatches if f not in allowed_fields)


class TableReport(Record):
    table: int
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(not diff.unexpected for diff in self.rows)


_TABLE_CONDITIONS = {
    2: ConditionKind.T_FLAT,
    3: ConditionKind.QUASI_T_FLAT,
    4: ConditionKind.PHI_T_FLAT,
    5: ConditionKind.XI_T_FLAT,
    6: ConditionKind.T_DOT_R,
    7: ConditionKind.T_DOT_S,
}

# the fields of each table's reference rows, the ones that are diffed
_TABLE_FIELDS = {2: ("kappa",), **dict.fromkeys(range(3, 8), ("tag", "b1", "b2"))}

# rows whose hypothesis degenerates and that the printed tables leave out;
# they are emitted flagged and never diffed
_ABSENT_ROWS = {3: [PresetName.W7], 4: [PresetName.W7]}

# derivable rows the source does not print (see the note in table6.txt);
# they are neither emitted nor reported missing
_UNPRINTED_ROWS = {6: [PresetName.P]}

# a T-flat root (n-1)/n shares a local-isometry class with the sqrt(n)
# family, a root 0 with the flat product E^(n+1) x S^n(4)
_ISOMETRY_CLASSES = (
    ((N - 1) / N, "isometry class: sqrt(n) Boeckx family, kappa = (n-1)/n"),
    (expr(0), "isometry class: E^(n+1) x S^n(4), kappa = 0"),
)


def golden_dir() -> Path:
    env = os.environ.get(GOLDEN_DIR_ENV)
    return Path(env) if env else _DATA_DIR


class GoldenFormatError(InputError):
    """A golden transcription file is missing or malformed; the message
    starts with the file and, for a bad row, its line."""


def _golden_rows(path: Path, maxsplit: int = -1):
    """(line number, '|'-separated fields) of each non-comment line."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise GoldenFormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise GoldenFormatError(f"{path}: not UTF-8 text") from exc
    for lineno, line in numbered_lines(text):
        yield lineno, [p.strip() for p in line.split("|", maxsplit)]


def _need_fields(parts: list, count: int) -> None:
    if len(parts) < count:
        raise GoldenFormatError(f"expected {count} '|'-separated fields, found {len(parts)}")


def _golden_record(which: int, parts: list) -> tuple:
    name = PresetName.parse(parts[0])
    if which != 2:
        _need_fields(parts, 4)
        return name, {"tag": parts[1], "b1": parse_expr(parts[2]), "b2": parse_expr(parts[3])}
    if parts[1:2] == ["any"]:
        return name, {"kappa": "any"}
    _need_fields(parts, 3)
    if parts[1] != "value":
        raise GoldenFormatError(f"unknown kind {parts[1]!r}; expected 'any' or 'value'")
    return name, {"kappa": parse_expr(parts[2])}


def load_golden_table(which: int) -> dict:
    """preset -> its fields (table 2's kappa may be "any") parsed from the
    transcription file, in file order; a second line for a preset is an error."""
    path = golden_dir() / f"table{which}.txt"
    records = {}
    for lineno, parts in _golden_rows(path):
        try:
            name, record = _golden_record(which, parts)
            if name in records:
                raise GoldenFormatError(f"duplicate row {name.value}")
        except InputError as exc:
            raise GoldenFormatError(f"{path}:{lineno}: {exc}") from exc
        records[name] = record
    return records


def load_allowlist() -> dict:
    """(table, preset, field) -> documentation note for known source typos;
    an entry names a reference table and a field its rows are diffed in."""
    path = golden_dir() / "allowlist.txt"
    if not path.exists():
        return {}
    entries = {}
    for lineno, parts in _golden_rows(path, 3):
        try:
            _need_fields(parts, 4)
            table, name, field, note = parts
            table = as_int(table, "table")
            if table not in _TABLE_CONDITIONS:
                raise GoldenFormatError(f"unknown table {table}; expected 2..7")
            if field not in _TABLE_FIELDS[table]:
                raise GoldenFormatError(f"unknown field {field!r} for table {table}")
            entries[(table, PresetName.parse(name), field)] = note
        except InputError as exc:
            raise GoldenFormatError(f"{path}:{lineno}: {exc}") from exc
    return entries


def _row_flags(coeffs: TCoeffs, solution, form) -> tuple:
    flags = list(coeffs.annotations)
    if solution is not None and solution.is_unique:
        side = solution.side_condition
        if side is not None and side.variables() - {"n"}:
            flags.append(f"side condition: {side} != 0")
        flags.extend(flag for root, flag in _ISOMETRY_CLASSES if solution.root == root)
    if form is not None:
        if form.is_degenerate:
            flags.append("degenerate: the hypothesis denominator vanishes identically")
        else:
            cond = form.denominator_condition
            if cond.variables() - {"n"}:
                flags.append(f"hypothesis: {cond} != 0")
    return tuple(flags)


def classification_row(which: int, name: PresetName) -> ClassificationRow:
    coeffs = preset(name)
    condition = _TABLE_CONDITIONS[which]
    solution = t_flat_kappa(coeffs) if which == 2 else None
    form = None if which == 2 else eta_einstein_form(condition, coeffs, substitute_r=True)
    flags = _row_flags(coeffs, solution, form)
    return ClassificationRow(name, condition, solution, form, flags)


def _derivable(row: ClassificationRow) -> bool:
    """A catalog preset other than Riemann whose hypothesis holds."""
    degenerate = row.form is not None and row.form.is_degenerate
    return row.preset is not PresetName.RIEMANN and not degenerate


def _diff_row(
    which: int, row: ClassificationRow, reference: Optional[dict], allowlist: dict
) -> RowDiff:
    """Compare a derived row's fields with its file line's; a derivable row
    with no line, or a line for a row that is not derivable, mismatches in
    "row".  Table 2's derived kappa is "any" for an identity and the root
    otherwise, so a row with no solution (root None) mismatches too."""
    if reference is None or not _derivable(row):
        mismatches = ["row"]
    else:
        form, kappa = row.form, row.kappa
        derived = {"kappa": "any" if kappa.is_identity else kappa.root} if form is None else {
            "tag": "einstein" if form.tag is FormTag.EINSTEIN else "eta",
            "b1": form.b1, "b2": form.b2}
        mismatches = [f for f in _TABLE_FIELDS[which] if derived[f] != reference[f]]
    allowed = tuple((field, allowlist[which, row.preset, field]) for field in mismatches
                    if (which, row.preset, field) in allowlist)
    return RowDiff(row, reference, not mismatches, tuple(mismatches), allowed)


def reproduce_table(which: int) -> TableReport:
    """Derive one reference table and diff it against its transcription.

    Rows come out in the file's order.  The file's row set is checked
    against the derivable catalog rows: a derivable row missing from the
    file, or a file line for a row that is not derivable, is an unexpected
    "row" mismatch.  The degenerate rows the reference omits (the W7
    quasi/phi rows) are appended flagged and excluded from the diff.
    Mismatching fields listed in the allow-list are reported as documented
    typos; any other mismatch makes the report not ok, and so does an
    allow-list entry of this table that excuses no mismatch.
    """
    if which not in _TABLE_CONDITIONS:
        raise InputError(f"no reference table {which}; pick 2..7")
    reference = load_golden_table(which)
    allowlist = load_allowlist()
    diffs = []
    for name in dict.fromkeys([*reference, *PresetName]):  # the file's rows first
        record = reference.get(name)
        if record is None and name in (PresetName.RIEMANN, *_UNPRINTED_ROWS.get(which, [])):
            continue  # derived only where the file lists it
        row = classification_row(which, name)
        if record is not None or _derivable(row):
            diffs.append(_diff_row(which, row, record, allowlist))
        elif name in _ABSENT_ROWS.get(which, []):
            row = row.replace(flags=row.flags + ("absent from the reference table; not diffed",))
            diffs.append(RowDiff(row, None, None, (), ()))
    _flag_stale_entries(which, diffs, allowlist)
    return TableReport(which, tuple(diffs))


def _flag_stale_entries(which: int, diffs: list, allowlist: dict) -> None:
    """An allow-list entry of this table that excuses no mismatch is itself
    an unexpected mismatch of its preset's row, named after the entry."""
    used = {(which, diff.row.preset, field) for diff in diffs for field, _ in diff.allowed}
    for key in allowlist:
        if key[0] != which or key in used:
            continue
        name, stale = key[1], (f"{key[2]} (allow-list entry excuses no diff)",)
        at = next((i for i, diff in enumerate(diffs) if diff.row.preset is name), len(diffs))
        if at == len(diffs):
            diffs.append(RowDiff(classification_row(which, name), None, None, (), ()))
        diffs[at] = diffs[at].replace(matches=False, mismatches=diffs[at].mismatches + stale)
