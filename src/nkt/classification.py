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

Each eta-Einstein form is a hypothesis denominator C and numerators (A, B),
with b1 = A/C and b2 = B/C; a vanishing C is degenerate.  The scalar
curvature r stays a symbol in the derived forms unless ``substitute_r=True``
binds it to 2n(2n - 2 + kappa) while A and B are built (the golden tables
are transcribed with r substituted).

The golden files are the tables: a table's rows come out in its file's
order, and its row set must equal the derivable catalog rows (every preset
but Riemann whose hypothesis does not degenerate).  The only exceptions are
coded: the degenerate W7 rows emitted flagged in tables 3 and 4, and the
P row the source leaves out of table 6.
"""

from __future__ import annotations

import os
from enum import Enum
from math import isqrt
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


def t_flat_constraint(coeffs: TCoeffs) -> RationalExpr:
    """The scalar constraint satisfied by every T-flat manifold:

    a1 (2n-2+kappa) + (a0+a2+a3+(2n+1)a4+a5+a6) kappa + 2n(2n-2+kappa) a7.
    """
    a = coeffs.a
    return (
        a[1] * (2 * N - 2 + KAPPA)
        + (a[0] + a[2] + a[3] + (2 * N + 1) * a[4] + a[5] + a[6]) * KAPPA
        + SCALAR_CURVATURE * a[7]
    )


def t_flat_kappa(coeffs: TCoeffs) -> LinearSolution:
    """Solve the T-flat constraint for kappa.

    ``identity`` corresponds to "kappa may be any real number"; unique roots
    carry the leading coefficient as a side condition (relevant for the
    presets with free parameters).
    """
    return solve_linear(t_flat_constraint(coeffs), "kappa")


def _eta_einstein(c: RationalExpr, substitute_r: bool, numerators) -> EtaEinsteinForm:
    """S = (A/C) g + (B/C) eta (x) eta from the hypothesis denominator C and
    a function building the numerators (A, B) from the scalar curvature r:
    the symbol r, or 2n(2n - 2 + kappa) itself with ``substitute_r``.  A
    vanishing C is degenerate and the numerators are never built."""
    if c.is_zero():
        return EtaEinsteinForm(None, None, FormTag.DEGENERATE, c)
    big_a, big_b = numerators(SCALAR_CURVATURE if substitute_r else R)
    b1, b2 = big_a / c, big_b / c
    tag = FormTag.EINSTEIN if b2.is_zero() else FormTag.ETA_EINSTEIN
    return EtaEinsteinForm(b1, b2, tag, c)


def _quasi_denominator(a: tuple) -> RationalExpr:
    return a[0] + 2 * N * a[1] + a[2] + a[3] + a[5] + a[6]


def _quasi_g_numerator(a: tuple, r: RationalExpr) -> RationalExpr:
    return a[0] * KAPPA + a[4] * (2 * N * KAPPA - r) + a[7] * r * (1 - 2 * N)


def _quasi_eta_numerator(a: tuple, r: RationalExpr) -> RationalExpr:
    return -a[0] * KAPPA + 2 * N * KAPPA * (a[2] + a[3] + a[5] + a[6]) - a[7] * r


def quasi_flat_form(coeffs: TCoeffs, substitute_r: bool = False) -> EtaEinsteinForm:
    """eta-Einstein form forced by g(T(phi X1, X2) X3, phi X4) = 0."""
    a = coeffs.a
    return _eta_einstein(_quasi_denominator(a), substitute_r,
                         lambda r: (_quasi_g_numerator(a, r), _quasi_eta_numerator(a, r)))


def phi_flat_form(coeffs: TCoeffs, substitute_r: bool = False) -> EtaEinsteinForm:
    """eta-Einstein form forced by g(T(phi X1, phi X2) phi X3, phi X4) = 0.

    Shares numerator A and denominator C with the quasi condition; the
    eta-coefficient is pinned by the trace: b2 = 2 n kappa - b1.
    """
    a = coeffs.a
    c = _quasi_denominator(a)

    def numerators(r):
        big_a = _quasi_g_numerator(a, r)
        return big_a, 2 * N * KAPPA * c - big_a

    return _eta_einstein(c, substitute_r, numerators)


def xi_flat_form(coeffs: TCoeffs, substitute_r: bool = False) -> EtaEinsteinForm:
    """eta-Einstein form forced by T(X1, xi, xi, X4) = 0; needs a4 != 0."""
    a = coeffs.a
    return _eta_einstein(a[4], substitute_r, lambda r: (
        -(a[0] * KAPPA + 2 * N * KAPPA * a[1] + a[7] * r), -_quasi_eta_numerator(a, r)))


def t_dot_riemann_form(coeffs: TCoeffs, substitute_r: bool = False) -> EtaEinsteinForm:
    """eta-Einstein form forced by T(xi, X).R = 0; needs a1 + a5 != 0.  The
    form carries no scalar curvature, so ``substitute_r`` changes nothing."""
    a = coeffs.a
    return _eta_einstein(a[1] + a[5], substitute_r, lambda r: (
        -2 * N * KAPPA * (a[2] + a[4]), 2 * N * KAPPA * (a[1] + a[2] + a[4] + a[5])))


def t_dot_ricci_form(coeffs: TCoeffs, substitute_r: bool = False) -> EtaEinsteinForm:
    """eta-Einstein form forced by T(xi, X).S = 0 under a Killing Reeb field
    (h = 0); needs a1 + a5 != 0."""
    a = coeffs.a

    def numerators(r):
        core = a[0] * KAPPA + a[7] * r
        big_a = (
            (2 * N * KAPPA - 2 * N + 2) * core
            + 4 * N * KAPPA * (N - 1) * a[2]
            + 4 * N ** 2 * KAPPA ** 2 * a[4]
        )
        big_b = (
            (2 * N - 2 * N * KAPPA - 2) * core
            + 4 * N ** 2 * KAPPA ** 2
            * (a[1] + 2 * a[2] + 2 * a[3] + a[4] + 2 * a[5] + 2 * a[6])
            - 4 * N * KAPPA * (N - 1) * (a[2] + a[5])
        )
        return big_a, big_b

    return _eta_einstein(-a[1] - a[5], substitute_r, numerators)


# condition -> eta-Einstein form builder(coeffs, substitute_r)
FORM_BUILDERS = {
    ConditionKind.QUASI_T_FLAT: quasi_flat_form,
    ConditionKind.PHI_T_FLAT: phi_flat_form,
    ConditionKind.XI_T_FLAT: xi_flat_form,
    ConditionKind.T_DOT_R: t_dot_riemann_form,
    ConditionKind.T_DOT_S: t_dot_ricci_form,
}


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
        record = {"tag": parts[1], "b1": parse_expr(parts[2]), "b2": parse_expr(parts[3])}
    elif parts[1:2] == ["any"]:
        record = {"kind": "any"}
    else:
        _need_fields(parts, 3)
        if parts[1] != "value":
            raise GoldenFormatError(f"unknown kind {parts[1]!r}; expected 'any' or 'value'")
        record = {"kind": "value", "kappa": parse_expr(parts[2])}
    return name, record


def load_golden_table(which: int) -> dict:
    """preset -> reference record parsed from the transcription file, in
    file order; a second line for the same preset is an error."""
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


_FORM_FIELDS = ("tag", "b1", "b2")


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
            if field not in (("kappa",) if table == 2 else _FORM_FIELDS):
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
    form = None if which == 2 else FORM_BUILDERS[condition](coeffs, substitute_r=True)
    flags = _row_flags(coeffs, solution, form)
    return ClassificationRow(name, condition, solution, form, flags)


def _derivable(row: ClassificationRow) -> bool:
    """A catalog preset other than Riemann whose hypothesis holds."""
    degenerate = row.form is not None and row.form.is_degenerate
    return row.preset is not PresetName.RIEMANN and not degenerate


def _diff_row(
    which: int, row: ClassificationRow, reference: Optional[dict], allowlist: dict
) -> RowDiff:
    """Compare a derived row with its file line; a derivable row with no
    line, or a line for a row that is not derivable, mismatches in "row"."""
    if reference is None or not _derivable(row):
        mismatches = ["row"]
    elif which == 2:
        solution, kappa = row.kappa, reference.get("kappa")
        if kappa is None:
            ok = solution.is_identity
        else:
            ok = solution.is_unique and solution.root == kappa
        mismatches = [] if ok else ["kappa"]
    else:
        form = row.form
        tag = "einstein" if form.tag is FormTag.EINSTEIN else "eta"
        derived = {"tag": tag, "b1": form.b1, "b2": form.b2}
        mismatches = [f for f in _FORM_FIELDS if derived[f] != reference[f]]
    allowed = tuple(
        (field, allowlist[(which, row.preset, field)])
        for field in mismatches
        if (which, row.preset, field) in allowlist
    )
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
    diffs = [
        _diff_row(which, classification_row(which, name), record, allowlist)
        for name, record in reference.items()
    ]
    skipped = set(reference) | {PresetName.RIEMANN, *_UNPRINTED_ROWS.get(which, [])}
    for name in PresetName:
        if name in skipped:
            continue
        row = classification_row(which, name)
        if _derivable(row):
            diffs.append(_diff_row(which, row, None, allowlist))
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
