"""Command line surface.

Commands map one-to-one onto library operations:

* ``presets-list``  the coefficient catalog;
* ``model-build``   construct a member of the 3-dimensional family
                    (``--audit`` switches the output to its audit report);
* ``model-audit``   parse a model file and audit it;
* ``classify``      the symbolic classification of one preset under one
                    condition;
* ``table``         reproduce a reference table and diff it against the
                    golden transcription (exit 2 on any undocumented diff);
* ``residual``      exact flatness / derivation residual on a model;
* ``example1``      the sqrt(n) Boeckx family check;
* ``deform``        the D-homothetic parameter transform.

All numeric output is exact (rationals rendered p/q); identical argv
produces byte-identical output.  Exit codes: 0 success; 1 an ``nkt.InputError``
(one ``error:`` line), a failed audit or Boeckx check; 2 golden-table mismatch.
Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional

from . import classification
from .classification import boeckx_example, d_homothetic, reproduce_table
from .frame_geometry import (
    FrameModel,
    ModelFormatError,
    contact_audit,
    curvature,
    nk_lie_group_3d,
    nullity_fit,
    parse_model,
    render_model,
)
from .scalar_algebra import InputError, LinearSolution, as_rational, expr
from .t_tensor import (
    ConditionKind,
    PresetName,
    catalog,
    coeffs_from,
    flatness_residual,
    preset,
)

_CONDITION_LABELS = {
    ConditionKind.T_FLAT: "T(X1,X2)X3 = 0",
    ConditionKind.XI_T_FLAT: "T(X1,xi,xi,X4) = 0",
    ConditionKind.QUASI_T_FLAT: "g(T(phi X1,X2)X3, phi X4) = 0",
    ConditionKind.PHI_T_FLAT: "g(T(phi X1,phi X2)phi X3, phi X4) = 0",
    ConditionKind.T_DOT_R: "T(xi,X).R = 0",
    ConditionKind.T_DOT_S: "T(xi,X).S = 0",
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-3/2" as an option; a negative fraction is a value
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # argparse defaults to exit code 2
        option = re.fullmatch(r"argument (\S+): expected one argument", message)
        if option:  # a value such as "-n" was read as an option
            message += f" (a value starting with '-' is written {option[1]}=VALUE)"
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nkt", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("md", "json"), default="md")

    p = sub.add_parser("presets-list", help="coefficient catalog")
    add_format(p)

    p = sub.add_parser("model-build", help="build a 3-dimensional family member")
    p.add_argument("--lambda", dest="lam", required=True, metavar="Q")
    p.add_argument("--audit", action="store_true", help="emit the audit report")
    add_format(p)

    p = sub.add_parser("model-audit", help="audit a model file")
    p.add_argument("path")
    add_format(p)

    p = sub.add_parser("classify", help="symbolic classification of a preset")
    p.add_argument("--preset")
    p.add_argument("--condition", required=True)
    p.add_argument("--substitute-r", action="store_true", dest="substitute_r")
    p.add_argument("--coeffs", help="8 comma-separated coefficient expressions")
    add_format(p)

    p = sub.add_parser("table", help="reproduce one reference table")
    p.add_argument("which", type=int, choices=range(2, 8))
    add_format(p)

    p = sub.add_parser("residual", help="exact residual on a model")
    p.add_argument("--model", help="model file path")
    p.add_argument("--lambda", dest="lam", metavar="Q")
    p.add_argument("--preset")
    p.add_argument("--condition", required=True)
    p.add_argument("--coeffs", help="8 comma-separated rational coefficients")
    p.add_argument("--a0", help="value for the free parameter a0")
    p.add_argument("--a1", help="value for the free parameter a1")
    p.add_argument("--strict-xi", action="store_true", dest="strict_xi",
                   help="sweep the full T(X1,X2)xi = 0 condition")
    p.add_argument("--variant", choices=("standard", "printed"), default="standard",
                   help="fourth-term variant of the T.R derivation")
    add_format(p)

    p = sub.add_parser("example1", help="sqrt(n) Boeckx family check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sign", required=True, choices=("+", "-"))
    add_format(p)

    p = sub.add_parser("deform", help="D-homothetic parameter transform")
    p.add_argument("--kappa", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--c", required=True)
    add_format(p)

    return parser


def _emit(payload: dict, markdown: str, fmt: str) -> None:
    if fmt == "json":
        import json  # only json output loads it
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(markdown.rstrip("\n"))


def _solution_payload(solution: LinearSolution) -> dict:
    out = {"kind": solution.kind}
    if solution.is_unique:
        out["kappa"] = str(solution.root)
        out["side_condition"] = str(solution.side_condition)
    return out


def _form_payload(form) -> dict:
    out = {"tag": form.tag.value, "denominator_condition": str(form.denominator_condition)}
    if not form.is_degenerate:
        out.update(b1=str(form.b1), b2=str(form.b2))
    return out


def _form_text(form) -> str:
    if form.is_degenerate:
        return "degenerate (the hypothesis denominator vanishes identically)"
    return f"S = ({form.b1}) g + ({form.b2}) eta(x)eta"


# ---------------------------------------------------------------------------
# commands


def _cmd_presets_list(args) -> int:
    data = catalog()
    payload = {"command": "presets-list", "presets": data}
    lines = ["| preset | a0..a7 | flags |", "| --- | --- | --- |"]
    for name, row in data.items():
        coeffs = ", ".join(row["coefficients"])
        flags = "; ".join(row["flags"])
        lines.append(f"| {name} | {coeffs} | {flags} |")
    _emit(payload, "\n".join(lines), args.format)
    return 0


def _audit_payload(model) -> dict:
    report = contact_audit(model)
    payload = {
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    if report.passed:
        curv = curvature(model)
        fit = nullity_fit(curv)
        payload["nullity"] = {
            "kappa": str(fit.kappa),
            "mu": str(fit.mu),
            "exact": fit.exact,
            "max_residual": str(fit.max_residual),
        }
        payload["sasakian"] = bool(fit.exact and fit.kappa == 1 and not curv.h)
        payload["scalar_curvature"] = str(curv.scalar)
    return payload


def _audit_markdown(payload: dict) -> str:
    lines = []
    for check in payload["checks"]:
        mark = "pass" if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        lines.append(f"- {check['name']}: {mark}{detail}")
    if payload.get("nullity"):
        fit = payload["nullity"]
        exact = "exact" if fit["exact"] else f"residual {fit['max_residual']}"
        lines.append(f"- nullity: kappa = {fit['kappa']}, mu = {fit['mu']} ({exact})")
        lines.append(f"- scalar curvature: {payload['scalar_curvature']}")
        if payload.get("sasakian"):
            lines.append("- Sasakian: kappa = 1, h = 0")
    lines.append("audit: " + ("all checks pass" if payload["passed"] else "FAILED"))
    return "\n".join(lines)


def _cmd_model_build(args) -> int:
    lam = as_rational(args.lam)
    model = nk_lie_group_3d(lam)
    if args.audit:
        payload = {"command": "model-build", "lambda": str(lam)}
        payload.update(_audit_payload(model))
        _emit(payload, f"model: lambda = {lam}\n" + _audit_markdown(payload), args.format)
        return 0
    text = render_model(model)
    payload = {"command": "model-build", "lambda": str(lam), "model": text}
    _emit(payload, text, args.format)
    return 0


def _read_model(path: str) -> FrameModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"cannot read model file: {path}: not UTF-8 text") from exc
    return parse_model(text)


def _cmd_model_audit(args) -> int:
    model = _read_model(args.path)
    payload = {"command": "model-audit", "path": args.path}
    payload.update(_audit_payload(model))
    _emit(payload, _audit_markdown(payload), args.format)
    return 0 if payload["passed"] else 1


def _resolve_coeffs(args) -> tuple:
    """(coefficients, label) from --coeffs or --preset, not both."""
    if args.coeffs is not None and args.preset is not None:
        raise InputError("--preset and --coeffs exclude each other")
    if args.coeffs:
        parts = [p.strip() for p in args.coeffs.split(",")]
        if len(parts) != 8:
            raise InputError("--coeffs needs exactly 8 comma-separated entries")
        return coeffs_from(parts), "custom"
    if not args.preset:
        raise InputError("either --preset or --coeffs is required")
    name = PresetName.parse(args.preset)
    return preset(name), name.value


# conditions whose result --substitute-r cannot change, and why
_R_FREE = {
    ConditionKind.T_FLAT: "its constraint always binds r = 2n(2n-2+kappa)",
    ConditionKind.T_DOT_R: "its form holds no r",
}


def _cmd_classify(args) -> int:
    condition = ConditionKind.parse(args.condition)
    if args.substitute_r and condition in _R_FREE:
        raise InputError(f"--substitute-r changes nothing under {condition.value}: "
                         + _R_FREE[condition])
    coeffs, label = _resolve_coeffs(args)
    payload = {
        "command": "classify",
        "preset": label,
        "condition": condition.value,
        "flags": list(coeffs.annotations),
    }
    if condition is ConditionKind.T_FLAT:
        solution = classification.t_flat_kappa(coeffs)
        payload["result"] = _solution_payload(solution)
        text = f"{label} under {_CONDITION_LABELS[condition]}: kappa = {solution}"
    else:
        form = classification.FORM_BUILDERS[condition](coeffs, substitute_r=args.substitute_r)
        payload["result"] = _form_payload(form)
        text = f"{label} under {_CONDITION_LABELS[condition]}: {_form_text(form)}"
    if payload["flags"]:
        text += "\nflags: " + "; ".join(payload["flags"])
    _emit(payload, text, args.format)
    return 0


def _row_payload(diff) -> dict:
    row = diff.row
    out = {
        "preset": row.preset.value,
        "condition": row.condition.value,
        "flags": list(row.flags),
        "match": diff.matches,
        "mismatches": list(diff.mismatches),
        "allowed": [{"field": f, "note": note} for f, note in diff.allowed],
    }
    if row.kappa is not None:
        out["kappa"] = _solution_payload(row.kappa)
    if row.form is not None:
        out["form"] = _form_payload(row.form)
    return out


def _table_markdown(report) -> str:
    if report.table == 2:
        lines = ["| preset | kappa | diff |", "| --- | --- | --- |"]
        for diff in report.rows:
            value = str(diff.row.kappa)
            lines.append(f"| {diff.row.preset.value} | {value} | {_diff_cell(diff)} |")
    else:
        lines = ["| preset | class | S = b1 g + b2 eta(x)eta | diff |",
                 "| --- | --- | --- | --- |"]
        for diff in report.rows:
            form = diff.row.form
            tag, body = ("degenerate", "-") if form.is_degenerate else (
                form.tag.value, f"({form.b1}) g + ({form.b2}) eta(x)eta")
            lines.append(f"| {diff.row.preset.value} | {tag} | {body} | {_diff_cell(diff)} |")
    notes = []
    for diff in report.rows:
        for field, note in diff.allowed:
            notes.append(f"- {diff.row.preset.value}.{field}: documented typo; {note}")
        for field in diff.unexpected:
            notes.append(f"- {diff.row.preset.value}.{field}: UNEXPECTED mismatch")
        for flag in diff.row.flags:
            notes.append(f"- {diff.row.preset.value}: {flag}")
    status = "ok" if report.ok else "MISMATCH"
    return "\n".join(lines + [""] + notes + [f"table {report.table}: {status}"])


def _diff_cell(diff) -> str:
    if diff.matches is None:
        return "not diffed"
    if diff.matches:
        return "match"
    if not diff.unexpected:
        return "documented typo: " + ", ".join(f for f, _ in diff.allowed)
    return "MISMATCH: " + ", ".join(diff.unexpected)


def _cmd_table(args) -> int:
    report = reproduce_table(args.which)
    payload = {
        "command": "table",
        "table": report.table,
        "ok": report.ok,
        "rows": [_row_payload(d) for d in report.rows],
    }
    _emit(payload, _table_markdown(report), args.format)
    return 0 if report.ok else 2


def _cmd_residual(args) -> int:
    if bool(args.model) == bool(args.lam):
        raise InputError("exactly one of --model or --lambda is required")
    if args.model:
        model = _read_model(args.model)
        source = args.model
    else:
        model = nk_lie_group_3d(as_rational(args.lam))
        source = f"lambda = {args.lam}"
    condition = ConditionKind.parse(args.condition)
    coeffs, label = _resolve_coeffs(args)
    for name in ("a0", "a1"):
        if getattr(args, name) is not None and name not in coeffs.free_parameters():
            raise InputError(f"--{name}: the {label} coefficients have no free parameter {name}")
    numeric = coeffs.at(model.n, a0=args.a0, a1=args.a1)
    value = flatness_residual(curvature(model), numeric, condition,
                              strict=args.strict_xi, variant=args.variant)
    payload = {
        "command": "residual",
        "model": source,
        "preset": label,
        "condition": condition.value,
        "residual": str(value),
        "vanishes": value == 0,
        "flags": list(coeffs.annotations),
    }
    _emit(payload, f"residual = {value}", args.format)
    return 0


def _cmd_example1(args) -> int:
    report = boeckx_example(args.n, args.sign)
    values = {k: str(v) for k, v in report.specialized().items()}
    payload = {
        "command": "example1",
        "n": report.n,
        "sign": "+" if report.sign > 0 else "-",
        "ok": report.ok,
        "symbolic": {name: str(getattr(report, name)) for name in values},
        "specialized": values,
    }
    lines = [
        f"family member at n = {report.n}, sign {payload['sign']} (s stands for sqrt(n)):",
        f"- c = {values['c']}",
        f"- a = 1 + c = {values['a']}",
        f"- kappa = c(2-c) = {values['kappa']}",
        f"- mu = -2c = {values['mu']}",
        f"- Boeckx invariant = {values['invariant']} (target sqrt(n) = {values['target']})",
        f"check: {'exact match' if report.ok else 'MISMATCH'}",
    ]
    _emit(payload, "\n".join(lines), args.format)
    return 0 if report.ok else 1


def _cmd_deform(args) -> int:
    kappa_bar, mu_bar = d_homothetic(
        expr(args.kappa), expr(args.mu), expr(args.a), expr(args.c)
    )
    payload = {
        "command": "deform",
        "kappa_bar": str(kappa_bar),
        "mu_bar": str(mu_bar),
    }
    _emit(payload, f"kappa_bar = {kappa_bar}\nmu_bar = {mu_bar}", args.format)
    return 0


_COMMANDS = {
    "presets-list": _cmd_presets_list,
    "model-build": _cmd_model_build,
    "model-audit": _cmd_model_audit,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "residual": _cmd_residual,
    "example1": _cmd_example1,
    "deform": _cmd_deform,
}


def run(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse reads "--name=--" as no value at all
            raise InputError("an option's value cannot be '--'")
        return _COMMANDS[args.command](args)
    except InputError as exc:
        message = str(exc)
    except ValueError as exc:  # str() of an int past the interpreter's digit limit
        if "integer string conversion" not in str(exc):
            raise
        message = f"the result has more than {sys.get_int_max_str_digits():,} decimal digits"
    print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # ``nkt ... | head``: quiet, also at the flush on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
