"""The README's library tour and command examples, and the benchmark's span
tracer, each run the way a reader runs it."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from nkt.cli import run

ROOT = Path(__file__).parent.parent


def test_readme_library_quick_tour_runs():
    text = (ROOT / "README.md").read_text()
    tour = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_command_examples_print_what_they_show():
    # each "$ nkt ..." line of the command-line section runs through the CLI;
    # the lines shown under it appear in order, a "..." line skipping any number
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = [chunk.splitlines() for block in re.findall(r"```\n(.*?)```", section, re.S)
                for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]]
    assert len(examples) >= 4
    for command, *shown in examples:
        argv = shlex.split(command, comments=True)
        assert argv[0] == "nkt", command
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv[1:])
        printed = out.getvalue() + err.getvalue()
        pattern = "".join("(?:.*\n)*?" if line == "..." else re.escape(line) + "\n"
                          for line in shown)
        assert re.fullmatch(pattern, printed), (command, printed)
        assert code == (1 if any(line.startswith("error: ") for line in shown) else 0), command


@pytest.mark.parametrize("argv, spans", [
    (["residual", "--lambda=1/2", "--preset", "W1", "--condition", "xi-flat"],
     ["t_tensor.flatness_residual.xi-flat.d3", "t_tensor.t_components.d3"]),
    (["residual", "--lambda=1/2", "--preset", "W1", "--condition", "quasi-flat"],
     ["t_tensor.flatness_residual.quasi-flat.d3", "t_tensor.t_components.d3"]),
    (["residual", "--lambda=1/2", "--preset", "W1", "--condition", "t-dot-r"],
     ["t_tensor.t_dot_riemann.d3", "t_tensor.t_components.d3"]),
    (["residual", "--lambda=1/2", "--preset", "P", "--condition", "t-dot-s"],
     ["t_tensor.t_dot_ricci.d3", "t_tensor.t_components.d3"]),
    (["model-build", "--lambda=1/2", "--audit"], ["frame_geometry.nullity_fit"]),
], ids=["xi-flat", "quasi-flat", "t-dot-r", "t-dot-s", "audit"])
def test_tracer_script_names_the_spans_the_benchmark_keys_on(tmp_path, argv, spans):
    # bench/tracer.py names a span from its call's arguments: args[0].dim,
    # and for flatness_residual the kind as the third positional argument
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(out), "--",
                           *argv], capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    names = Counter(span[0] for span in json.loads(out.read_text())["spans"])
    assert all(names[name] for name in spans), names
    assert names["frame_geometry.curvature.d3"] == 1


def test_tracer_script_names_the_table_spans(tmp_path):
    # the cli-tables per-layer metrics read one golden load and one derive
    # span per classification_row call, which reproduce_table must make
    # through the module attribute the tracer wraps: every catalog row but
    # Riemann, and in table 6 not the unprinted P either
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for which, derived in ((3, 19), (6, 18)):
        out = tmp_path / f"spans{which}.json"
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(out), "--",
                               "table", str(which)], capture_output=True, text=True, env=env,
                              cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        names = Counter(span[0] for span in json.loads(out.read_text())["spans"])
        assert names[f"classification.load_golden_table.t{which}"] == 1, names
        assert names[f"classification.derive.t{which}"] == derived, names


def test_library_worker_traces_the_algebra_layer(tmp_path, monkeypatch):
    # the algebra-corpus per-layer metrics come from spans named after
    # scalar_algebra's functions; a renamed or inlined traced name must fail
    # here, not read 0 in a benchmark report
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import inputs
    from tracer import layer_metrics

    entries = inputs.corpus(1)[-2:]  # the two pinned entries
    job, out, spans = tmp_path / "job.json", tmp_path / "out.json", tmp_path / "spans.json"
    job.write_text(json.dumps({"entries": entries, "points": [[], []], "seconds": 60,
                               "max_rounds": 1, "describe": False}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "libworker.py"), str(job),
                           str(out), str(spans)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["errors"] == []
    metrics = layer_metrics([json.loads(spans.read_text())])
    for name in ("poly_gcd", "parse_expr", "poly_mul", "canonicalise"):
        assert metrics[f"scalar_algebra.{name}.calls"] > 0, name
        assert metrics[f"scalar_algebra.{name}.s"] > 0, name
