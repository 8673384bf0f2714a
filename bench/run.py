"""Benchmark of nkt, measured from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one operation at a time):

* ``cli-tables``     ``nkt table N`` for N = 2..7 in json and md, one fresh
                     ``python -m nkt.cli`` process per operation;
* ``cli-residuals``  ``nkt residual`` and ``nkt model-audit`` on Heisenberg
                     H^(2n+1) model files (d = 3, 5, 7) and on the
                     3-dimensional kappa = 1 - lambda^2 family;
* ``algebra-corpus`` e*e - e, a quotient and the parse round trip on a seeded
                     corpus of rational expressions, in one child process.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics (see README.md).  Every output is checked
against independent computations (oracle.py); the exit code is 0 only when
all checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import oracle
from tracer import PER_LAYER, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = SRC / "nkt" / "data" / "golden"
SCHEMA = SRC / "nkt" / "data" / "schema" / "cli_output.schema.json"

WORKLOADS = ("cli-tables", "cli-residuals", "algebra-corpus")
END_TO_END = (("setup_s", "s"), ("sweep_s", "s"), ("op_p50_s", "s"),
              ("op_p90_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 9


class Spawner:
    """Starts one program process at a time and waits for it; records the
    largest max-RSS of any process it ran."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.peak_kb = 0

    def run(self, args):
        """(seconds from spawn to exit, exit code, stdout, stderr)."""
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        elapsed = time.perf_counter() - start
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return (elapsed, os.waitstatus_to_exitcode(status),
                out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8"))


class Run:
    """Timings, outcomes and check results of one benchmark run."""

    def __init__(self):
        self.walls = []
        self.traced_walls = []
        self.latencies = []  # one list of operation latencies per untraced pass
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []
        self.layers = []

    def fail(self, what):
        self.failed += 1
        if what not in self.failures:
            self.failures.append(what)


def measure_setup(spawner):
    """Median wall time of a fresh interpreter running ``import nkt``."""
    times = []
    for _ in range(SETUP_SAMPLES):
        elapsed, code, _, err = spawner.run(["-c", "import nkt"])
        if code != 0:
            raise SystemExit(f"import nkt failed: {err.strip()[-300:]}")
        times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# CLI workloads


def cli_pass(spawner, run, argvs, spans_dir=None):
    """One pass over the command list; returns [(code, stdout, stderr)]."""
    outcomes = []
    latencies = []
    start = time.perf_counter()
    for k, argv in enumerate(argvs):
        if spans_dir is None:
            args = ["-m", "nkt.cli", *argv]
        else:
            args = [str(BENCH / "tracer.py"), str(spans_dir / f"{k}.json"), "--", *argv]
        elapsed, code, out, err = spawner.run(args)
        outcomes.append((code, out, err))
        latencies.append(elapsed)
    wall = time.perf_counter() - start
    if spans_dir is None:
        run.walls.append(wall)
        run.latencies.append(latencies)
    else:
        run.traced_walls.append(wall)
        dumps = [json.loads((spans_dir / f"{k}.json").read_text()) for k in range(len(argvs))]
        run.layers.append(layer_metrics(dumps))
    run.attempted += len(argvs)
    return outcomes


def run_cli(spawner, run, argvs, deadline, trace, workdir):
    """Whole passes while another one fits before the deadline; traced runs
    alternate an untraced and a traced pass.  Returns every pass's
    outcomes."""
    passes = []
    while True:
        start = time.perf_counter()
        passes.append(cli_pass(spawner, run, argvs))
        if trace:
            spans_dir = workdir / f"spans{len(passes)}"
            spans_dir.mkdir()
            passes.append(cli_pass(spawner, run, argvs, spans_dir))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return passes


def check_cli(run, argvs, passes, check_one):
    """Check every successful output once per distinct text."""
    seen = set()
    for outcomes in passes:
        for k, (code, out, err) in enumerate(outcomes):
            if code != 0:
                tail = err.strip().splitlines()[-1:] or [""]
                run.fail(f"{' '.join(argvs[k])}: exit {code}: {tail[0]}")
            elif (k, out) not in seen:
                seen.add((k, out))
                run.problems += check_one(k, out)


def tables_workload(spawner, run, seed, deadline, trace, workdir):
    argvs = inputs.table_commands(seed)
    passes = run_cli(spawner, run, argvs, deadline, trace, workdir)
    check_cli(run, argvs, passes, lambda k, out: [])
    schema = json.loads(SCHEMA.read_text())
    rng = random.Random(seed)
    checked = set()
    for outcomes in passes:
        texts = {(int(argv[1]), argv[3]): out
                 for argv, (code, out, _) in zip(argvs, outcomes) if code == 0}
        for which in inputs.TABLES:
            pair = (texts.get((which, "json")), texts.get((which, "md")))
            if None not in pair and (which, pair) not in checked:
                checked.add((which, pair))
                run.problems += oracle.table_problems(which, *pair, GOLDEN, schema, rng)


def residuals_workload(spawner, run, seed, deadline, trace, workdir):
    ops = inputs.residual_commands(seed, workdir)
    argvs = [argv for argv, _ in ops]
    passes = run_cli(spawner, run, argvs, deadline, trace, workdir)
    schema = json.loads(SCHEMA.read_text())
    geometries = {}

    def check_one(k, out):
        spec = ops[k][1]
        if spec["model"] not in geometries:
            geometries[spec["model"]] = oracle.Geometry(spec["model"])
        geometry = geometries[spec["model"]]
        try:
            if spec["kind"] == "audit":
                return oracle.audit_problems(out, spec, geometry, schema)
            return oracle.residual_problems(out, spec, geometry, schema)
        except (ValueError, KeyError) as exc:
            return [f"{spec['label']}: unreadable output ({exc})"]

    check_cli(run, argvs, passes, check_one)


# ---------------------------------------------------------------------------
# library workload


def corpus_workload(spawner, run, seed, deadline, trace, workdir):
    entries = inputs.corpus(seed)
    rng = random.Random(seed)
    points = [[oracle.random_point(rng) for _ in range(inputs.POINTS_PER_ENTRY)]
              for _ in entries]
    spec = {"entries": entries, "max_rounds": 1 if trace else None,
            "points": [[{k: str(v) for k, v in p.items()} for p in ps] for ps in points]}
    in_path, out_path, spans = workdir / "corpus.json", workdir / "results.json", workdir / "spans.json"
    children = []
    while True:
        pair_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            seconds = deadline - time.perf_counter()
            in_path.write_text(json.dumps(dict(spec, seconds=seconds, describe=not children)))
            args = [str(BENCH / "libworker.py"), str(in_path), str(out_path)]
            _, code, _, err = spawner.run(args + ([str(spans)] if traced else []))
            if code != 0:
                raise SystemExit(f"library worker failed: {err.strip()[-500:]}")
            result = json.loads(out_path.read_text())
            children.append(result)
            walls = [r["wall"] for r in result["rounds"]]
            if traced:
                run.traced_walls += walls
                run.layers.append(layer_metrics([json.loads(spans.read_text())]))
            else:
                run.walls += walls
                run.latencies += [r["latencies"] for r in result["rounds"]]
        # traced runs repeat (untraced, traced) pairs while another fits
        now = time.perf_counter()
        if not trace or now + (now - pair_start) > deadline:
            break
    for result in children:
        rounds = len(result["rounds"])
        run.attempted += rounds * 3 * len(entries)
        if not result["stable"] or result["digest"] != children[0]["digest"]:
            run.problems.append("results differ between rounds")
        for i, kind, message in result["errors"]:
            for _ in range(rounds):
                run.fail(f"entry {i} {kind}: {message}")
    run.problems += corpus_problems(entries, points, children[0]["results"])


def corpus_problems(entries, points, results):
    """Compare every result with the value of its recipe at the points and
    check the canonical-form invariants."""
    problems = []
    for i, (entry, pts, result) in enumerate(zip(entries, points, results)):
        values = [oracle.value_at(entry["text"], p) for p in pts]
        divisors = [oracle.value_at(entry["divisor"], p) for p in pts]
        expected = {
            "entry": values,
            "square": [None if v is None else v * v - v for v in values],
            "quotient": [None if v is None or not dv else v / dv for v, dv in zip(values, divisors)],
        }
        for kind, want in expected.items():
            got = result[kind]
            if "error" in got:
                continue
            problems += [f"entry {i} {kind}: {p}" for p in oracle.canonical_form_problems(got["text"])]
            if False in (got["normalize_ok"], got["roundtrip_ok"]):
                problems.append(f"entry {i} {kind}: normalize or parse round trip changes {got['text']}")
            compared = 0
            for point, value, evaluated in zip(pts, want, got["evals"]):
                if value is None or evaluated is None:
                    continue
                compared += 1
                mine = oracle.value_at(got["text"], point)
                if Fraction(evaluated) != value or mine != value:
                    problems.append(f"entry {i} {kind}: wrong value at {point}")
            if compared < 2:
                problems.append(f"entry {i} {kind}: fewer than two evaluation points")
        if "error" not in result["roundtrip"] and result["roundtrip"]["equal"] is not True:
            problems.append(f"entry {i}: parse_expr(str(e)) != e")
    return problems


# ---------------------------------------------------------------------------


_RUNNERS = {
    "cli-tables": tables_workload,
    "cli-residuals": residuals_workload,
    "algebra-corpus": corpus_workload,
}


def metrics(run, setup_s, peak_kb, trace):
    if trace:
        values = {name: statistics.median(layer[name] for layer in run.layers)
                  for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(run.traced_walls) - statistics.median(run.walls)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "sweep_s": statistics.median(run.walls),
            "op_p50_s": statistics.median(statistics.median(p) for p in run.latencies),
            "op_p90_s": statistics.quantiles([t for p in run.latencies for t in p], n=10)[-1],
            "peak_rss_mb": peak_kb / 1024,
        }
        units = dict(END_TO_END)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nkt" / "__init__.py").is_file():
        print(f"error: the nkt sources are missing under {SRC}", file=sys.stderr)
        return 2
    # every pass must fit before the deadline, set-up included
    deadline = time.perf_counter() + args.seconds
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        spawner = Spawner(workdir)
        spawner.run(["-c", "import nkt"])  # compile byte code before timing
        setup_s = None if args.trace else measure_setup(spawner)
        run = Run()
        _RUNNERS[args.workload](spawner, run, args.seed, deadline, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if run.failed == run.attempted:
        run.problems.append("every operation failed")
    result = metrics(run, setup_s, spawner.peak_kb, args.trace)
    passes = len(run.walls) + len(run.traced_walls)
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes, "
          f"{run.attempted} operations attempted, {run.failed} failed")
    for what in run.failures:
        print(f"  failed: {what}")
    for name, entry in result.items():
        print(f"  {name} = {entry['value']} {entry['unit']}")
    for problem in run.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    correct = not run.problems
    print(f"checks: {'all outputs correct' if correct else f'{len(run.problems)} problems'}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
