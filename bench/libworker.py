"""Library worker of the algebra-corpus workload.

One process imports nkt once, builds the corpus entries from their texts and
runs whole rounds of three library calls per entry (e*e - e, e / divisor and
the parse_expr(str(e)) round trip), one call at a time, until the time is up.
After the timed rounds it evaluates the results at the given points and runs
nkt's own canonical-form checks; the parent compares them with its
independent values.

    PYTHONPATH=src python3 bench/libworker.py INPUT.json OUTPUT.json [SPANS.json]

INPUT holds {"entries": [{"text", "divisor"}], "points": [[{var: "p/q"}]],
"seconds": s, "max_rounds": k or null, "describe": bool}; rounds stop at
max_rounds or before one that would end more than ``seconds`` after the
process started, and the result checks run only when ``describe`` is set.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from tracer import Tracer

# parse_expr re-canonicalises after every + and *: the round trip of an
# 8-term form takes tens of milliseconds and that of the heavy entry's
# 84-term e*e - e about 100 s; normalize of that form takes about 5 s.
# Results above these sizes skip the check, which keeps the untimed checks
# of a run to a few seconds.  (The entries themselves go through the round
# trip as a timed operation.)
ROUNDTRIP_MAX_TERMS = 8
NORMALIZE_MAX_TERMS = 40


def _square_minus(nkt, e, d):
    return e * e - e


def _quotient(nkt, e, d):
    return e / d


def _round_trip(nkt, e, d):
    return nkt.parse_expr(str(e)) == e


OPS = (("square", _square_minus), ("quotient", _quotient), ("roundtrip", _round_trip))


def _describe(nkt, value, points, roundtrip=True):
    """Rendered value, its eval_at at each point (None where a denominator
    vanishes) and the normalize / parse round-trip invariants (None where a
    check is skipped for size)."""
    evals = []
    for point in points:
        try:
            evals.append(str(nkt.eval_at(value, point)))
        except nkt.DivisionByZero:
            evals.append(None)
    text = str(value)
    terms = len(value.num.terms) + len(value.den.terms)
    return {"text": text, "evals": evals,
            "normalize_ok": nkt.normalize(value) == value if terms <= NORMALIZE_MAX_TERMS else None,
            "roundtrip_ok": (nkt.parse_expr(text) == value
                             if roundtrip and terms <= ROUNDTRIP_MAX_TERMS else None)}


def run(spec, spans_path=None):
    start = time.perf_counter()
    import nkt

    import_s = time.perf_counter() - start
    exprs = [(nkt.parse_expr(x["text"]), nkt.parse_expr(x["divisor"])) for x in spec["entries"]]
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    rounds = []
    first = None
    stable = True
    while True:
        latencies = []
        outcomes = []
        round_start = clock()
        for e, d in exprs:
            for _, fn in OPS:
                t0 = clock()
                try:
                    if tracer is None:
                        value = fn(nkt, e, d)
                    else:
                        value = tracer.call("lib.op", fn, nkt, e, d)
                except Exception as exc:  # a failed library call is counted, not fatal
                    value = exc
                latencies.append(clock() - t0)
                outcomes.append(value)
        wall = clock() - round_start
        rendered = [f"{type(v).__name__}: {v}" if isinstance(v, Exception) else str(v)
                    for v in outcomes]
        if first is None:
            first = (outcomes, rendered)
        stable = stable and rendered == first[1]
        rounds.append({"wall": wall, "latencies": latencies})
        # stop before a round that would overrun the time
        if len(rounds) == spec["max_rounds"] or clock() - start + wall > spec["seconds"]:
            break
    if tracer is not None:
        tracer.dump(spans_path, import_s)
    outcomes, rendered = first
    errors = [[k // 3, OPS[k % 3][0], text]
              for k, (value, text) in enumerate(zip(outcomes, rendered))
              if isinstance(value, Exception)]
    out = {"import_s": import_s, "rounds": rounds, "stable": stable, "errors": errors,
           "digest": hashlib.sha256("\n".join(rendered).encode()).hexdigest(),
           "results": None}
    if spec["describe"]:
        out["results"] = [_results(nkt, e, d, points, outcomes[3 * i: 3 * i + 3])
                          for i, ((e, d), points) in enumerate(zip(exprs, spec["points"]))]
    return out


def _results(nkt, e, d, points, outcomes):
    entry = {"entry": _describe(nkt, e, points, roundtrip=False)}
    for (kind, _), value in zip(OPS, outcomes):
        if isinstance(value, Exception):
            entry[kind] = {"error": True}
        elif kind == "roundtrip":
            entry[kind] = {"equal": value}
        else:
            entry[kind] = _describe(nkt, value, points)
    return entry


def main(argv):
    with open(argv[0], encoding="utf-8") as handle:
        spec = json.load(handle)
    out = run(spec, argv[2] if len(argv) > 2 else None)
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
