"""CLI surface: commands, formats, exit codes, determinism, schema."""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nkt.cli import run
from nkt.frame_geometry import nk_lie_group_3d, render_model

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "nkt" / "data" / "schema"
     / "cli_output.schema.json").read_text()
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_json(out: str) -> dict:
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


# ---------------------------------------------------------------------------
# happy paths


def test_table_markdown(capsys):
    code, out, _ = invoke(capsys, "table", "2", "--format", "md")
    assert code == 0
    assert out.count("\n| ") + out.startswith("| ") >= 19
    assert "| W3 | 0 | match |" in out
    assert "table 2: ok" in out


def test_table_json_all_tables(capsys):
    for which in range(2, 8):
        code, out, _ = invoke(capsys, "table", str(which), "--format", "json")
        assert code == 0
        payload = check_json(out)
        assert payload["table"] == which and payload["ok"]


def test_model_build_audit_mentions_sasakian(capsys):
    code, out, _ = invoke(capsys, "model-build", "--lambda", "0", "--audit")
    assert code == 0
    assert "Sasakian: kappa = 1, h = 0" in out
    assert "all checks pass" in out


def test_model_build_emits_model_format(capsys):
    code, out, _ = invoke(capsys, "model-build", "--lambda", "1/2")
    assert code == 0
    assert "dim 3" in out and "c 1 2 3 : 2" in out


def test_residual_w7_is_zero(capsys):
    code, out, _ = invoke(
        capsys, "residual", "--lambda", "1/2", "--preset", "W7",
        "--condition", "xi-flat",
    )
    assert code == 0
    assert out.strip() == "residual = 0"


def test_residual_conharmonic_nonzero(capsys):
    code, out, _ = invoke(
        capsys, "residual", "--lambda", "1/2", "--preset", "L",
        "--condition", "xi-flat", "--format", "json",
    )
    assert code == 0
    payload = check_json(out)
    assert payload["residual"] == "3/4" and payload["vanishes"] is False


def test_residual_from_model_file(tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text(render_model(nk_lie_group_3d("1/2")))
    code, out, _ = invoke(
        capsys, "residual", "--model", str(path), "--preset", "Riemann",
        "--condition", "t-flat", "--format", "json",
    )
    assert code == 0
    assert check_json(out)["vanishes"] is False


def test_residual_with_custom_coefficients(capsys):
    code, out, _ = invoke(
        capsys, "residual", "--lambda", "1/2", "--coeffs", "0,0,0,0,0,0,0,0",
        "--condition", "t-flat",
    )
    assert code == 0 and out.strip() == "residual = 0"


def test_residual_starred_preset_needs_parameters(capsys):
    code, _, err = invoke(
        capsys, "residual", "--lambda", "1/2", "--preset", "C_star",
        "--condition", "t-flat",
    )
    assert code == 1 and "a0" in err
    code, out, _ = invoke(
        capsys, "residual", "--lambda", "1/2", "--preset", "C_star",
        "--condition", "t-flat", "--a0", "1", "--a1", "1/3",
    )
    assert code == 0


def test_classify_commands(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--preset", "P", "--condition", "quasi-flat",
        "--substitute-r", "--format", "json",
    )
    assert code == 0
    payload = check_json(out)
    assert payload["result"]["tag"] == "einstein"
    assert payload["result"]["b1"] == "2*n*kappa"

    code, out, _ = invoke(
        capsys, "classify", "--preset", "L", "--condition", "t-flat",
        "--format", "json",
    )
    payload = check_json(out)
    assert payload["result"]["kappa"] == "-2*n + 2"


def test_classify_custom_coefficients(capsys):
    code, out, _ = invoke(
        capsys, "classify", "--coeffs", "1,0,0,0,0,0,0,0",
        "--condition", "t-dot-r", "--format", "json",
    )
    assert code == 0
    assert check_json(out)["result"]["tag"] == "degenerate"


def test_classify_markdown_ends_with_the_flags(capsys):
    code, out, _ = invoke(capsys, "classify", "--preset", "W9", "--condition", "quasi-flat")
    assert code == 0
    assert out.splitlines() == [
        "W9 under g(T(phi X1,X2)X3, phi X4) = 0: S = ((r)/(2*n + 1)) g + (0) eta(x)eta",
        "flags: reconstructed: printed row has a3 = -a4 = -1/(2n); "
        "the sign consistent with the classification tables is +1/(2n)",
    ]


def test_presets_list(capsys):
    code, out, _ = invoke(capsys, "presets-list", "--format", "json")
    assert code == 0
    payload = check_json(out)
    assert len(payload["presets"]) == 20


def test_example1_both_formats(capsys):
    code, out, _ = invoke(capsys, "example1", "--n", "9", "--sign", "-")
    assert code == 0 and "exact match" in out and "c = 1/2" in out
    code, out, _ = invoke(
        capsys, "example1", "--n", "2", "--sign", "+", "--format", "json"
    )
    payload = check_json(out)
    assert payload["ok"] is True
    assert payload["symbolic"]["invariant"] == "s"


def test_deform(capsys):
    code, out, _ = invoke(
        capsys, "deform", "--kappa", "0", "--mu", "0", "--a", "2", "--c", "1"
    )
    assert code == 0
    assert "kappa_bar = 3/2" in out and "mu_bar = 0" in out


def test_values_past_the_heuristic_gcd_finish(capsys):
    # numerators and denominators that share a factor only the gcd fallback
    # finds; the subresultant PRS it replaced took 13 s on the first value
    # and did not finish within 60 s on the second
    shared = "(-5 - mu^3*n^2 + 4*n*mu*a^2 - 3*c^2)"
    first = (f"((-a*kappa^5*n^5 + 4*a^2 - 5*c^8*n - 3*mu^5 - n^3 + 3)*{shared})"
             f"/((n^5*kappa^4*a^2 - 2*mu^4*n^3*c^4 + 2*n^2 + 4*kappa^4)*{shared})")
    top, bottom = "(n+kappa+a+c+1)^8+n*kappa*a*c", "(n-kappa+a-c+2)^8+3*n*a"
    second = f"(({top})*(n*kappa-a*c+2))/(({bottom})*(n*kappa-a*c+2))"
    outputs = []
    for kappa in (first, second):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "deform", "--kappa", kappa, "--mu", "0", "--a", "1", "--c", "1")
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == ("kappa_bar = (-n^5*kappa^5*a - n^3 - 5*n*c^8 - 3*mu^5 + 4*a^2 + 3)"
                          "/(n^5*kappa^4*a^2 - 2*n^3*mu^4*c^4 + 2*n^2 + 4*kappa^4)\nmu_bar = 0\n")
    # the shared factor cancels: the value prints as the quotient of the cofactors
    assert outputs[1] == invoke(capsys, "deform", "--kappa", f"({top})/({bottom})",
                                "--mu", "0", "--a", "1", "--c", "1")[1]


def test_model_audit_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text(
        "dim 3\nxi 3\nphi 0 -1 0\nphi 1 0 0\nphi 0 0 0\n"
    )
    code, out, _ = invoke(capsys, "model-audit", str(path), "--format", "json")
    assert code == 1
    payload = check_json(out)
    assert payload["passed"] is False
    code, out, _ = invoke(capsys, "model-audit", str(path), "--format", "md")
    assert code == 1
    assert out.splitlines()[-1] == "audit: FAILED"


# ---------------------------------------------------------------------------
# exit codes and determinism


def test_usage_errors_exit_1(capsys):
    assert invoke(capsys, "table", "9")[0] == 1
    assert invoke(capsys, "residual", "--condition", "t-flat")[0] == 1
    assert invoke(capsys, "residual", "--lambda", "1", "--model", "x",
                  "--condition", "t-flat")[0] == 1
    assert invoke(capsys, "classify", "--preset", "nope",
                  "--condition", "t-flat")[0] == 1
    assert invoke(capsys, "classify", "--preset", "P",
                  "--condition", "sideways")[0] == 1
    assert invoke(capsys, "deform", "--kappa", "0", "--mu", "0", "--a", "0",
                  "--c", "1")[0] == 1


def _assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("argv, want", [
    (["classify", "--coeffs=", "--condition", "t-flat"],
     "--coeffs needs exactly 8 comma-separated entries"),
    (["classify", "--preset=", "--condition", "t-flat"], "unknown preset ''"),
    (["residual", "--model=", "--lambda", "1/2", "--preset", "W2", "--condition", "t-flat"],
     "exactly one of --model or --lambda is required"),
    (["residual", "--model=", "--preset", "W2", "--condition", "t-flat"],
     "cannot read model file: [Errno 2] No such file or directory: ''"),
    (["residual", "--lambda=", "--preset", "W2", "--condition", "t-flat"],
     "not a rational: ''"),
], ids=["coeffs", "preset", "model-and-lambda", "model", "lambda"])
def test_an_empty_option_value_is_a_value(capsys, argv, want):
    # "--name=" gives the option, with the empty text as its value: it is
    # rejected as that value, never read as an option left out
    assert _assert_one_error_line(*invoke(capsys, *argv)) == f"error: {want}"


def test_a_missing_model_file_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "absent.txt"
    line = _assert_one_error_line(*invoke(capsys, "model-audit", str(path)))
    assert line == f"error: cannot read model file: [Errno 2] No such file or directory: '{path}'"


def test_bad_model_line_is_reported_once(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(
        "dim 3\nxi 3\nphi 0 -1 0\nphi 1 0 0\nphi 0 0 0\n# brackets\nc 1 2 3 2\n"
    )
    line = _assert_one_error_line(*invoke(capsys, "model-audit", str(path)))
    assert line == "error: line 7: expected 'c i j k : value'"


@pytest.mark.parametrize("text, want", [
    ("dim\n", "line 1: expected 'dim <integer>'"),
    ("dim 3\nxi x\n", "line 2: xi is not an integer: 'x'"),
    ("dim 3\nxi 3\nphi 0 -1 0\nphi 1 0 0\nphi 0 0 0\nc 1 x 3 : 1\n",
     "line 6: index j is not an integer: 'x'"),
], ids=["dim-alone", "xi-not-int", "index-not-int"])
def test_bad_model_field_is_named(tmp_path, capsys, text, want):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert _assert_one_error_line(*invoke(capsys, "model-audit", str(path))) == f"error: {want}"


_PHI3 = "phi 0 -1 0\nphi 1 0 0\nphi 0 0 0\n"


@pytest.mark.parametrize("text, want", [
    ("dim 4\nxi 4\n" + "phi 0 0 0 0\n" * 4, "dimension must be odd and >= 3, got 4"),
    ("dim 3\nxi 3\n" + _PHI3 + "c 1 2 3 : 2\nc 1 2 3 : 2\n", "duplicate bracket entry (1,2,3)"),
    ("dim 3\nxi 3\nphi 0 -1\nphi 1 0 0\nphi 0 0 0\n", "phi matrix must be dim x dim"),
], ids=["even-dim", "duplicate-bracket", "short-phi-row"])
def test_bad_model_structure_is_named(tmp_path, capsys, text, want):
    # checks build_model makes on what a parsed file declares
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert _assert_one_error_line(*invoke(capsys, "model-audit", str(path))) == f"error: {want}"


def test_vanishing_denominator_names_the_binding(capsys):
    line = _assert_one_error_line(*invoke(
        capsys, "residual", "--lambda=1/2", "--coeffs", "1,0,0,0,0,0,0,1/(n-1)",
        "--condition", "xi-flat",
    ))
    assert line == "error: denominator of (1)/(n - 1) vanishes at n = 1"


@pytest.mark.parametrize("given, want", [
    ([], "a0, a1"),
    (["--a0", "2"], "a1"),
], ids=["none", "a0-only"])
def test_missing_free_parameters_are_named_at_once(capsys, given, want):
    # all of them in one line, in VARIABLES order
    line = _assert_one_error_line(*invoke(
        capsys, "residual", "--lambda", "1/2", "--preset", "C_star", "--condition", "xi-flat",
        *given))
    assert line == f"error: coefficients need values for {want}"


@pytest.mark.parametrize("argv, want", [
    (["classify", "--preset", "W7", "--coeffs", "1,0,0,0,0,0,0,0", "--condition", "t-flat"],
     "--preset and --coeffs exclude each other"),
    (["residual", "--lambda", "1/2", "--preset", "W7", "--condition", "xi-flat", "--a0", "5"],
     "--a0: the W7 coefficients have no free parameter a0"),
    (["residual", "--lambda", "1/2", "--coeffs", "1,0,0,0,0,0,0,0", "--condition", "xi-flat",
      "--a1", "5"], "--a1: the custom coefficients have no free parameter a1"),
    (["residual", "--lambda", "1/2", "--preset", "W7", "--condition", "t-flat", "--strict-xi"],
     "strict (--strict-xi) applies to xi-flat only, not t-flat"),
    (["residual", "--lambda", "1/2", "--preset", "W7", "--condition", "xi-flat",
      "--variant", "printed"], "variant printed applies to t-dot-r only, not xi-flat"),
    (["classify", "--preset", "V", "--condition", "t-flat", "--substitute-r"],
     "--substitute-r changes nothing under t-flat: "
     "its constraint always binds r = 2n(2n-2+kappa)"),
    (["classify", "--preset", "W1", "--condition", "t-dot-r", "--substitute-r"],
     "--substitute-r changes nothing under t-dot-r: its form holds no r"),
], ids=["preset-and-coeffs", "a0-without-parameter", "a1-with-coeffs", "strict-xi-elsewhere",
        "variant-elsewhere", "substitute-r-t-flat", "substitute-r-t-dot-r"])
def test_options_that_would_change_nothing_are_rejected(capsys, argv, want):
    # each was dropped without a word: the output was that of the command without it
    assert _assert_one_error_line(*invoke(capsys, *argv)) == f"error: {want}"


@pytest.mark.parametrize("argv, want", [
    (["classify", "--coeffs", "1,0,0,0,0,0,0,r", "--condition", "quasi-flat", "--substitute-r"],
     "coefficient entry 8 (r) holds r"),
    (["classify", "--coeffs", "1,0,0,0,0,0,0,kappa", "--condition", "quasi-flat"],
     "coefficient entry 8 (kappa) holds kappa"),
    (["residual", "--lambda", "1/2", "--coeffs", "1,0,0,0,0,0,0,s", "--condition", "xi-flat"],
     "coefficient entry 8 (s) holds s"),
], ids=["r", "kappa", "s"])
def test_coefficient_symbols_other_than_n_a0_a1_are_rejected(capsys, argv, want):
    # r stayed in a --substitute-r form, kappa made a form in kappa*r, and s
    # failed only when the residual evaluated it
    line = _assert_one_error_line(*invoke(capsys, *argv))
    assert line == f"error: {want}; entries are functions of n, a0 and a1 only"


@pytest.mark.parametrize("argv, want", [
    (["residual", "--lambda", "-3/2", "--preset", "W7", "--condition", "xi-flat"], "residual = 0"),
    (["residual", "--lambda", "1/2", "--preset", "C_star", "--a0", "2", "--a1", "-1/3",
      "--condition", "xi-flat"], "residual = 5/6"),
    (["deform", "--kappa", "-3/4", "--mu", "0", "--a", "2", "--c", "1"], "kappa_bar = 9/8"),
], ids=["lambda", "a1", "kappa"])
def test_negative_fractions_may_be_separate_words(capsys, argv, want):
    # argparse counts only -1 and -.5 style words as negative numbers, so
    # "--lambda -3/2" printed "expected one argument"; the parser's matcher is
    # a private argparse attribute, and this test is what notices its loss
    joined = []
    for word in argv:
        if word.startswith("-") and word[1:2].isdigit():
            joined[-1] += "=" + word
        else:
            joined.append(word)
    assert len(joined) < len(argv)
    for fmt in ("md", "json"):
        separate = invoke(capsys, *argv, "--format", fmt)
        assert separate == invoke(capsys, *joined, "--format", fmt)
        assert separate[0] == 0 and separate[2] == ""
    assert want in invoke(capsys, *argv)[1].splitlines()


def test_a_dash_word_that_is_no_number_is_still_an_option(capsys):
    # the error names the form that takes such a value: --kappa=-n
    for option, argv in [
        ("--lambda", ["residual", "--lambda", "-x", "--preset", "W7", "--condition", "xi-flat"]),
        ("--kappa", ["deform", "--kappa", "-n", "--mu", "0", "--a", "2", "--c", "1"]),
    ]:
        line = _assert_one_error_line(*invoke(capsys, *argv))
        assert line == (f"error: argument {option}: expected one argument "
                        f"(a value starting with '-' is written {option}=VALUE)")


def test_non_utf8_files_are_one_error_line_naming_the_file(tmp_path, monkeypatch, capsys):
    model = tmp_path / "model.txt"
    model.write_bytes(b"dim 3\nxi 3\n# caf\xe9\n")
    line = _assert_one_error_line(*invoke(capsys, "model-audit", str(model)))
    assert line == f"error: cannot read model file: {model}: not UTF-8 text"
    golden = _golden_copy(tmp_path, monkeypatch)
    table = golden / "table3.txt"
    table.write_bytes(table.read_bytes() + b"# caf\xe9\n")
    line = _assert_one_error_line(*invoke(capsys, "table", "3"))
    assert line == f"error: {table}: not UTF-8 text"


@pytest.mark.parametrize("exc", [KeyError("k"), ValueError("v")], ids=["KeyError", "ValueError"])
def test_an_error_outside_the_input_boundary_propagates(monkeypatch, capsys, exc):
    # only an InputError is a rejected input; anything else is a bug and
    # keeps its traceback
    from nkt import cli

    def broken(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "deform", broken)
    with pytest.raises(type(exc)):
        run(["deform", "--kappa", "0", "--mu", "0", "--a", "1", "--c", "1"])
    assert capsys.readouterr().err == ""


def test_deeply_nested_coefficients_rejected(capsys):
    nested = "(" * 3000 + "1" + ")" * 3000
    line = _assert_one_error_line(*invoke(
        capsys, "classify", "--condition", "t-flat",
        "--coeffs", nested + ",0,0,0,0,0,0,0",
    ))
    assert "nesting" in line
    # moderate nesting still parses
    code, _, _ = invoke(capsys, "classify", "--condition", "t-flat",
                        "--coeffs", "(" * 50 + "1" + ")" * 50 + ",0,0,0,0,0,0,0")
    assert code == 0


def test_oversized_exponents_rejected(capsys):
    line = _assert_one_error_line(*invoke(
        capsys, "classify", "--condition", "t-flat",
        "--coeffs", "n^100000,0,0,0,0,0,0,0",
    ))
    assert "exponent above" in line
    line = _assert_one_error_line(*invoke(
        capsys, "deform", "--kappa", "n^100000", "--mu", "0", "--a", "1", "--c", "1",
    ))
    assert "exponent above" in line
    # within the cap, but the product of two such powers overflows a field
    line = _assert_one_error_line(*invoke(
        capsys, "deform", "--kappa", "n^20000*n^20000", "--mu", "0", "--a", "1", "--c", "1",
    ))
    assert "exponent above" in line


def test_golden_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    from nkt.classification import load_golden_table
    from nkt.t_tensor import PresetName

    lines = []
    for name, record in load_golden_table(2).items():
        if record["kappa"] == "any":
            lines.append(f"{name.value} | any |")
        elif name is PresetName.L:
            lines.append(f"{name.value} | value | 5")
        else:
            lines.append(f"{name.value} | value | {record['kappa']}")
    (tmp_path / "table2.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "allowlist.txt").write_text("")
    monkeypatch.setenv("NKT_GOLDEN_DIR", str(tmp_path))
    code, out, _ = invoke(capsys, "table", "2")
    assert code == 2
    assert "UNEXPECTED" in out
    code, out, _ = invoke(capsys, "table", "2", "--format", "json")
    assert code == 2
    payload = check_json(out)
    assert payload["ok"] is False
    assert [row["mismatches"] for row in payload["rows"] if not row["match"]] == [["kappa"]]


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = invoke(capsys, "table", "7", "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        _, out, _ = invoke(capsys, "presets-list", "--format", "md")
        runs.append(out)
    assert runs[0] == runs[1]


def test_every_command_emits_schema_valid_json(tmp_path, capsys):
    model_path = tmp_path / "m.txt"
    model_path.write_text(render_model(nk_lie_group_3d("1/2")))
    invocations = [
        ("presets-list",),
        ("model-build", "--lambda", "1/2"),
        ("model-build", "--lambda", "0", "--audit"),
        ("model-audit", str(model_path)),
        ("classify", "--preset", "W7", "--condition", "xi-flat"),
        ("table", "4",),
        ("residual", "--lambda", "1/2", "--preset", "W7", "--condition",
         "xi-flat"),
        ("example1", "--n", "16", "--sign", "-"),
        ("deform", "--kappa", "1/4", "--mu", "2", "--a", "3", "--c", "3"),
    ]
    for argv in invocations:
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0, argv
        check_json(out)


def test_console_entry_point_runs():
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "nkt.cli", "deform", "--kappa", "kappa",
         "--mu", "mu", "--a", "1", "--c", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "kappa_bar = kappa" in proc.stdout


def test_closed_stdout_pipe_exits_quietly():
    # ``nkt presets-list --format json | head -1``: the reader is gone
    # before the output is written
    import os, subprocess, sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nkt.cli", "presets-list", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def _golden_copy(tmp_path, monkeypatch):
    from nkt.classification import golden_dir

    for source in golden_dir().iterdir():
        (tmp_path / source.name).write_text(source.read_text())
    monkeypatch.setenv("NKT_GOLDEN_DIR", str(tmp_path))
    return tmp_path


def _append_row(path, row):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [row]) + "\n")
    return len(lines) + 1


def test_malformed_golden_rows_are_located(tmp_path, monkeypatch, capsys):
    golden = _golden_copy(tmp_path, monkeypatch)
    cases = [
        (2, "W2", "expected 3 '|'-separated fields, found 1"),
        (3, "W2 | einstein | 1", "expected 4 '|'-separated fields, found 3"),
        (2, "W2 | value | 1/(n-n)", "division by the zero expression"),
        (4, "W2 | eta | 1 | 1/(n-n)", "division by the zero expression"),
        (2, "Q | value | 1", "unknown preset 'Q'"),
    ]
    for which, row, reason in cases:
        path = golden / f"table{which}.txt"
        original = path.read_text()
        line = _append_row(path, row)
        code, out, err = invoke(capsys, "table", str(which))
        path.write_text(original)
        assert (code, out) == (1, "")
        assert err == f"error: {path}:{line}: {reason}\n"


def test_over_long_literal_in_a_golden_cell_is_located(tmp_path, monkeypatch, capsys):
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1
    if digits == 1:
        pytest.skip("this interpreter does not limit the digits of an int literal")
    golden = _golden_copy(tmp_path, monkeypatch)
    path = golden / "table3.txt"
    lines = path.read_text().splitlines()
    index = next(i for i, x in enumerate(lines) if x.startswith("C "))
    lines[index] = f"C | eta | {'1' * digits} | 1"
    path.write_text("\n".join(lines) + "\n")
    line = _assert_one_error_line(*invoke(capsys, "table", "3"))
    assert line.startswith(f"error: {path}:{index + 1}: integer literal of {digits} digits")


def test_missing_golden_table_names_the_file(tmp_path, monkeypatch, capsys):
    golden = _golden_copy(tmp_path, monkeypatch)
    (golden / "table5.txt").unlink()
    code, out, err = invoke(capsys, "table", "5", "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {golden / 'table5.txt'}: ")
    assert "Traceback" not in err


def test_dropped_golden_row_is_an_unexpected_row_mismatch(tmp_path, monkeypatch, capsys):
    golden = _golden_copy(tmp_path, monkeypatch)
    path = golden / "table2.txt"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(x for x in lines if not x.startswith("W2 ")) + "\n")
    code, out, _ = invoke(capsys, "table", "2")
    assert code == 2
    assert "- W2.row: UNEXPECTED mismatch" in out
    assert "| W2 | any value | MISMATCH: row |" in out
    assert out.endswith("table 2: MISMATCH\n")
    code, out, _ = invoke(capsys, "table", "2", "--format", "json")
    assert code == 2
    payload = check_json(out)
    assert not payload["ok"]
    (row,) = [r for r in payload["rows"] if r["preset"] == "W2"]
    assert row["match"] is False and row["mismatches"] == ["row"]


def test_golden_row_outside_the_derivable_set_exits_2(tmp_path, monkeypatch, capsys):
    golden = _golden_copy(tmp_path, monkeypatch)
    _append_row(golden / "table2.txt", "Riemann | value | 0")
    code, out, _ = invoke(capsys, "table", "2")
    assert code == 2
    assert "- Riemann.row: UNEXPECTED mismatch" in out
    # a degenerate row is not derivable either: W7 under the quasi condition
    _append_row(golden / "table3.txt", "W7 | eta | 0 | 0")
    code, out, _ = invoke(capsys, "table", "3")
    assert code == 2
    assert "- W7.row: UNEXPECTED mismatch" in out
    assert out.count("| W7 |") == 1


def test_unknown_table2_kind_is_located(tmp_path, monkeypatch, capsys):
    golden = _golden_copy(tmp_path, monkeypatch)
    path = golden / "table2.txt"
    path.write_text("C | maybe | 1\n")
    line = _assert_one_error_line(*invoke(capsys, "table", "2"))
    assert line == f"error: {path}:1: unknown kind 'maybe'; expected 'any' or 'value'"


def test_duplicate_golden_row_is_located(tmp_path, monkeypatch, capsys):
    golden = _golden_copy(tmp_path, monkeypatch)
    path = golden / "table6.txt"
    line = _append_row(path, "W2 | einstein | 2*n*kappa | 0")
    code, out, err = invoke(capsys, "table", "6")
    assert (code, out) == (1, "")
    assert err == f"error: {path}:{line}: duplicate row W2\n"


def test_golden_file_order_is_the_row_order(tmp_path, monkeypatch, capsys):
    golden = _golden_copy(tmp_path, monkeypatch)
    path = golden / "table5.txt"
    rows = [x for x in path.read_text().splitlines() if x and not x.startswith("#")]
    path.write_text("\n".join(reversed(rows)) + "\n")
    code, out, _ = invoke(capsys, "table", "5", "--format", "json")
    assert code == 0
    got = [row["preset"] for row in check_json(out)["rows"]]
    assert got == [r.split("|")[0].strip() for r in reversed(rows)]


def test_powers_of_huge_constants_rejected(capsys):
    line = _assert_one_error_line(*invoke(
        capsys, "classify", "--condition", "t-flat",
        "--coeffs", "(9^32767)^1024,0,0,0,0,0,0,0",
    ))
    assert "bits" in line


def test_results_above_the_printable_digits_are_one_error_line(capsys):
    # inputs within every bound whose result has more digits than the
    # interpreter converts to text (4,300 by default, left as it is)
    for argv in (["deform", "--kappa", "9^32767", "--mu", "0", "--a", "1", "--c", "1"],
                 ["residual", "--lambda=1e4300", "--preset", "W1", "--condition", "xi-flat"]):
        for fmt in ("md", "json"):
            line = _assert_one_error_line(*invoke(capsys, *argv, "--format", fmt))
            assert line == "error: the result has more than 4,300 decimal digits"


def test_model_dim_above_the_maximum_is_rejected_on_its_line(tmp_path, capsys):
    from nkt.frame_geometry import MAX_DIM

    assert MAX_DIM >= 11
    path = tmp_path / "huge.txt"
    # the phi row after it is malformed: the dim line is rejected first
    path.write_text("# declared size\ndim 100001\nxi 1\nphi not-a-number\n")
    want = f"error: line 2: dim 100001 is above the maximum {MAX_DIM}"
    assert _assert_one_error_line(*invoke(capsys, "model-audit", str(path))) == want
    line = _assert_one_error_line(*invoke(
        capsys, "residual", "--model", str(path), "--preset", "W2", "--condition", "t-flat",
    ))
    assert line == want
    path.write_text(render_model(nk_lie_group_3d(0)).replace("dim 3", f"dim {MAX_DIM + 1}"))
    assert "above the maximum" in _assert_one_error_line(*invoke(capsys, "model-audit", str(path)))


def test_allowlist_entry_that_excuses_nothing_exits_2(tmp_path, monkeypatch, capsys):
    golden = _golden_copy(tmp_path, monkeypatch)
    _append_row(golden / "allowlist.txt", "2 | W2 | kappa | stale entry")
    code, out, _ = invoke(capsys, "table", "2")
    assert code == 2
    assert "- W2.kappa (allow-list entry excuses no diff): UNEXPECTED mismatch" in out
    assert out.endswith("table 2: MISMATCH\n")
    code, out, _ = invoke(capsys, "table", "2", "--format", "json")
    (row,) = [r for r in check_json(out)["rows"] if r["preset"] == "W2"]
    assert row["match"] is False
    assert row["mismatches"] == ["kappa (allow-list entry excuses no diff)"]
    # the other tables do not read table 2's entries
    assert invoke(capsys, "table", "3")[0] == 0
    # an entry for a row the table never diffs is reported on that row
    _append_row(golden / "allowlist.txt", "3 | Riemann | b1 | stale entry")
    code, out, _ = invoke(capsys, "table", "3")
    assert code == 2
    assert "- Riemann.b1 (allow-list entry excuses no diff): UNEXPECTED mismatch" in out


def test_allowlist_entry_for_an_unknown_table_or_field_is_located(tmp_path, monkeypatch, capsys):
    golden = _golden_copy(tmp_path, monkeypatch)
    path = golden / "allowlist.txt"
    original = path.read_text()
    cases = [
        ("9 | W2 | kappa | no such table", "unknown table 9; expected 2..7"),
        ("3 | W2 | colour | no such field", "unknown field 'colour' for table 3"),
        ("2 | W2 | b1 | table 2 diffs kappa only", "unknown field 'b1' for table 2"),
        ("x | W7 | b1 | note", "table is not an integer: 'x'"),
    ]
    for entry, reason in cases:
        line = _append_row(path, entry)
        code, out, err = invoke(capsys, "table", "2")
        path.write_text(original)
        assert (code, out) == (1, "")
        assert err == f"error: {path}:{line}: {reason}\n"


# ---------------------------------------------------------------------------
# fuzzing the values of classify, residual, model-build and deform

_CONDITIONS = st.sampled_from(["t-flat", "xi-flat", "quasi-flat", "phi-flat", "t-dot-r",
                               "t-dot-s"])
_EXPR_TOKENS = ["n", "kappa", "a", "c", "s", "r", "mu", "lambda", "a0", "a1", "x", "0", "1",
                "2", "7", "12", "1.5", "1e3", "9^32767", "^", "^-", "*", "/", "+", "-", "(",
                ")", " ", ","]
_RATIONAL_TOKENS = ["0", "1", "3", "7", "9", "12", "-", "+", "/", ".", "e", "E", "_", " "]
_EXPRS = st.one_of(st.lists(st.sampled_from(_EXPR_TOKENS), max_size=10).map("".join),
                   st.text(max_size=8))
_RATIONALS = st.one_of(st.lists(st.sampled_from(_RATIONAL_TOKENS), max_size=10).map("".join),
                       st.text(max_size=6))
# preset and condition labels: real ones, their spellings and any text
_LABELS = st.one_of(st.sampled_from(["W3", "c*", " w0_STAR ", "Riemann", "t-flat", "XI-FLAT",
                                     "t-dot-r*", "W10", ""]), st.text(max_size=8))
_COEFFS = st.one_of(st.lists(_EXPRS, min_size=7, max_size=9).map(",".join), _EXPRS)
_ARGVS = st.one_of(
    st.builds(lambda cond, v: ["classify", "--condition", cond, f"--coeffs={v}"],
              _CONDITIONS, _COEFFS),
    st.builds(lambda cond, lam, name: ["residual", f"--lambda={lam}", "--condition", cond,
                                       "--preset", name],
              _CONDITIONS, _RATIONALS, st.sampled_from(["W3", "C", "C_star"])),
    st.builds(lambda cond, lam, v: ["residual", f"--lambda={lam}", "--condition", cond,
                                    f"--coeffs={v}"],
              _CONDITIONS, _RATIONALS, _COEFFS),
    st.builds(lambda lam, audit: ["model-build", f"--lambda={lam}"] + ["--audit"] * audit,
              _RATIONALS, st.booleans()),
    st.builds(lambda k, m, a, c: ["deform", f"--kappa={k}", f"--mu={m}", f"--a={a}", f"--c={c}"],
              _EXPRS, _EXPRS, _EXPRS, _EXPRS),
    st.builds(lambda n, sign: ["example1", f"--n={n}", "--sign", sign],
              st.integers(), st.sampled_from("+-")),
    st.builds(lambda name, cond: ["classify", f"--preset={name}", f"--condition={cond}"],
              _LABELS, _LABELS),
    st.builds(lambda name, cond: ["residual", "--lambda=1/2", f"--preset={name}",
                                  f"--condition={cond}"],
              _LABELS, _LABELS),
)


@settings(max_examples=150, deadline=None)
@given(_ARGVS, st.sampled_from(["md", "json"]))
# Fraction builds 10^e for a decimal exponent e before any other check
@example(["residual", "--lambda=1e999999", "--condition", "t-dot-r", "--preset", "W3"], "md")
# argparse reads "--name=--" as an empty list, not as text
@example(["classify", "--preset=W3", "--condition=--"], "md")
@example(["model-build", "--lambda=--"], "json")
def test_fuzzed_values_exit_0_or_with_one_error_line(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + ["--format", fmt])  # an escaping exception fails the test
    if code == 1:
        _assert_one_error_line(code, out.getvalue(), err.getvalue())
    else:
        assert code in (0, 2) and err.getvalue() == ""


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # an escaping exception fails the test
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# fuzzing the model-file reader end to end

_VALID_HEADER = "dim 3\nxi 3\nphi 0 -1 0\nphi 1 0 0\nphi 0 0 0\n"
_INDICES = st.sampled_from(["1", "2", "3", "1", "2", "3", "0", "4", "-1", "x"])
_ENTRIES = st.sampled_from(["0", "1", "2", "-1", "1/2", "-3/2", "0", "1", "1/0", "1e9", "x", ""])
_C_LINES = st.builds("c {} {} {} : {}".format, _INDICES, _INDICES, _INDICES, _ENTRIES)
_MODEL_LINES = st.one_of(
    _C_LINES, _C_LINES, _C_LINES,
    st.lists(_ENTRIES, max_size=4).map(lambda row: " ".join(["phi", *row])),
    st.builds("{} {}".format, st.sampled_from(["dim", "xi"]), _INDICES),
    st.lists(st.sampled_from(["dim", "xi", "phi", "c", ":", "#", "3", "16", "1/2"]),
             max_size=6).map(" ".join),
    st.text(max_size=8),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.booleans(), st.lists(_MODEL_LINES, max_size=8))
@example(True, ["c 1 2 3 : 2", "c 2 3 1 : 1/2", "c 3 1 2 : 3/2"])
def test_fuzzed_model_files_exit_0_or_with_one_error_line(tmp_path, header, lines):
    path = tmp_path / "model.txt"
    path.write_text(_VALID_HEADER * header + "\n".join(lines) + "\n")
    code, out, err = _run_captured(["model-audit", str(path)])
    assert code in (0, 1)
    if err:
        _assert_one_error_line(code, out, err)
    else:  # a parsed model: the audit report, failed checks exit 1
        verdict = "audit: all checks pass\n" if code == 0 else "audit: FAILED\n"
        assert out.endswith(verdict)


# ---------------------------------------------------------------------------
# fuzzing the golden loader end to end

_GOLDEN_CELLS = st.sampled_from([
    "W2", "C_star", "Riemann", "Q", "einstein", "eta", "degenerate", "kappa", "b1", "b2",
    "tag", "2*n-2", "2*n*kappa", "0", "1/0", "(", "3", "9", "n^", "", "# note"])
# (action, row index, cell index, cells): "cell" puts a random cell into a
# row, "swap" the same field of another row
_GOLDEN_EDITS = st.tuples(st.sampled_from(["delete", "swap", "swap", "swap", "cell", "insert"]),
                          st.integers(0, 80), st.integers(0, 4),
                          st.lists(_GOLDEN_CELLS, min_size=1, max_size=5))


def _edit_golden_rows(lines, edits):
    for action, index, cell, texts in edits:
        rows = [i for i, line in enumerate(lines) if "|" in line and line[0] != "#"]
        if action == "insert" or not rows:
            lines.insert(index % (len(lines) + 1), " | ".join(texts))
            continue
        row = rows[index % len(rows)]
        cells = lines[row].split("|")
        if action == "delete":
            del lines[row]
            continue
        if action == "cell" or len(cells) < 2:
            cells[cell % len(cells)] = f" {texts[0]} "
        else:  # a field past the preset, so that the row set stays
            cell = 1 + cell % (len(cells) - 1)
            other = lines[rows[(index + len(texts)) % len(rows)]].split("|")
            cells[cell] = other[cell] if cell < len(other) else ""
        lines[row] = "|".join(cells)
    return lines


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 7), st.booleans(), st.lists(_GOLDEN_EDITS, min_size=1, max_size=2))
def test_fuzzed_golden_files_exit_0_1_or_2(tmp_path, monkeypatch, table, allowlist, edits):
    golden = _golden_copy(tmp_path, monkeypatch)
    path = golden / ("allowlist.txt" if allowlist else f"table{table}.txt")
    path.write_text("\n".join(_edit_golden_rows(path.read_text().splitlines(), edits)) + "\n")
    code, out, err = _run_captured(["table", str(table)])
    assert code in (0, 1, 2)
    if code == 1:
        _assert_one_error_line(code, out, err)
    else:
        assert err == ""
