"""Reference-table reproduction against the golden transcriptions."""

import time

import pytest

from nkt.classification import (
    classification_row,
    golden_dir,
    load_allowlist,
    load_golden_table,
    reproduce_table,
)
from nkt.cli import run
from nkt.scalar_algebra import InputError
from nkt.t_tensor import PresetName


def test_every_table_reproduces():
    for which in range(2, 8):
        report = reproduce_table(which)
        assert report.ok, [
            (d.row.preset.value, d.unexpected) for d in report.rows if d.unexpected
        ]


def test_table2_matches_on_all_19_rows_with_no_typos():
    start = time.perf_counter()
    report = reproduce_table(2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(report.rows) == 19
    for diff in report.rows:
        assert diff.matches is True
        assert not diff.mismatches
    # the flagship values, straight off the rows
    by_name = {d.row.preset: d.row for d in report.rows}
    assert str(by_name[PresetName.W3].kappa.root) == "0"
    assert str(by_name[PresetName.W7].kappa.root) == "(n - 1)/(2*n)"
    assert by_name[PresetName.C].kappa.is_identity
    assert by_name[PresetName.W9].kappa.is_identity


def test_row_counts_match_the_printed_tables():
    assert len(reproduce_table(3).rows) == 19  # 18 printed + flagged W7
    assert len(reproduce_table(4).rows) == 19
    assert len(reproduce_table(5).rows) == 8
    assert len(reproduce_table(6).rows) == 9
    assert len(reproduce_table(7).rows) == 10


def test_absent_rows_are_flagged_and_not_diffed():
    for which in (3, 4):
        report = reproduce_table(which)
        extra = [d for d in report.rows if d.matches is None]
        assert len(extra) == 1
        diff = extra[0]
        assert diff.row.preset is PresetName.W7
        assert diff.row.form.is_degenerate
        assert any("absent" in flag for flag in diff.row.flags)
        assert not diff.mismatches


def test_documented_typos_are_exactly_the_allowlist():
    observed = set()
    for which in range(2, 8):
        for diff in reproduce_table(which).rows:
            for field in diff.mismatches:
                observed.add((which, diff.row.preset, field))
            assert not diff.unexpected
    allowlist = set(load_allowlist())
    assert observed == allowlist
    assert (2, PresetName.C_STAR, "kappa") not in allowlist  # table 2 is clean


def test_reconstructed_rows_keep_their_flags_in_reports():
    report = reproduce_table(2)
    by_name = {d.row.preset: d.row for d in report.rows}
    assert any("reconstructed" in f for f in by_name[PresetName.W0_STAR].flags)
    assert any("reconstructed" in f for f in by_name[PresetName.W9].flags)
    assert any("side condition" in f for f in by_name[PresetName.C_STAR].flags)
    assert any("isometry class" in f for f in by_name[PresetName.V].flags)


def test_isometry_class_flags_mark_the_printed_classes():
    # the flags follow each row's T-flat kappa: (n-1)/n for the sqrt(n)
    # Boeckx family, 0 for the flat product
    flagged = {"sqrt(n)": set(), "E^(n+1)": set()}
    for diff in reproduce_table(2).rows:
        for flag in diff.row.flags:
            for key, names in flagged.items():
                if flag.startswith(f"isometry class: {key}"):
                    names.add(diff.row.preset.value)
    assert flagged == {
        "sqrt(n)": {"C_star", "V", "P_star", "P", "M", "W0", "W1_star", "W6", "W8"},
        "E^(n+1)": {"W3", "W4", "W5"},
    }


def test_golden_dir_override(tmp_path, monkeypatch):
    # a doctored transcription must surface as an unexpected mismatch
    source = load_golden_table(2)
    lines = ["V | value | 1"]  # wrong on purpose
    for name, record in source.items():
        if name is PresetName.V:
            continue
        if record["kappa"] == "any":
            lines.append(f"{name.value} | any |")
        else:
            lines.append(f"{name.value} | value | {record['kappa']}")
    (tmp_path / "table2.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "allowlist.txt").write_text("")
    monkeypatch.setenv("NKT_GOLDEN_DIR", str(tmp_path))
    report = reproduce_table(2)
    assert not report.ok
    bad = [d for d in report.rows if d.unexpected]
    assert len(bad) == 1 and bad[0].row.preset is PresetName.V


def test_unknown_table_is_named():
    with pytest.raises(InputError, match=r"^no reference table 9; pick 2\.\.7$"):
        reproduce_table(9)


def test_golden_dir_without_allowlist_excuses_nothing(tmp_path, monkeypatch, capsys):
    # a missing allow-list is an empty one: table 2 has no typos and still
    # reproduces, table 3's C_star typos surface as unexpected mismatches
    for which in (2, 3):
        name = f"table{which}.txt"
        (tmp_path / name).write_text((golden_dir() / name).read_text())
    monkeypatch.setenv("NKT_GOLDEN_DIR", str(tmp_path))
    assert load_allowlist() == {}
    assert reproduce_table(2).ok
    report = reproduce_table(3)
    assert [(d.row.preset, d.unexpected) for d in report.rows if d.unexpected] == [
        (PresetName.C_STAR, ("b1", "b2"))]
    assert run(["table", "3"]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "table 3: MISMATCH"


def test_classification_row_is_deterministic():
    first = classification_row(3, PresetName.C_STAR)
    second = classification_row(3, PresetName.C_STAR)
    assert str(first.form.b1) == str(second.form.b1)
    assert first.flags == second.flags


def _table_outcome():
    # each row's derived strings, match and flags, and each report's ok
    outcome = []
    for which in range(2, 8):
        report = reproduce_table(which)
        rows = [(d.row.preset,
                 (str(d.row.kappa),) if which == 2 else (str(d.row.form.b1), str(d.row.form.b2)),
                 d.matches, d.row.flags) for d in report.rows]
        outcome.append((report.ok, rows))
    return outcome


def test_tables_reproduce_with_brown_interpolation_alone(monkeypatch):
    # the heuristic gcd answers every table gcd in a normal run; declined,
    # the presets and rows go through Brown's interpolation instead
    from nkt import scalar_algebra, t_tensor

    want = _table_outcome()
    brown, calls = scalar_algebra._brown_gcd, []
    monkeypatch.setattr(scalar_algebra, "_heu_gcd", lambda a, b: None)
    monkeypatch.setattr(scalar_algebra, "_brown_gcd", lambda *args: calls.append(1) or brown(*args))
    for cached in (t_tensor._rows, t_tensor._printed_rows):
        cached.cache_clear()
    try:
        assert _table_outcome() == want
    finally:
        for cached in (t_tensor._rows, t_tensor._printed_rows):
            cached.cache_clear()
    assert calls
