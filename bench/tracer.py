"""Span recording at nkt's layer boundaries, for traced runs only.

``Tracer.install`` replaces the public functions named in ``_TARGETS`` (and
``Poly.__mul__`` / ``RationalExpr.__init__``) with wrappers that record a span
(name, start, end, parent index) per call.  A name bound elsewhere by
``from ... import`` is replaced in every ``nkt`` module that holds it.  Spans
stay in memory and are written out once, when the traced process ends.

Run as a script it traces one CLI invocation:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json -- table 3 --format json
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

DIMS = (3, 5, 7)
KINDS = ("t-flat", "xi-flat", "quasi-flat", "phi-flat")

# (name, unit, better); every traced run reports all of them, 0 where the
# layer did no work
PER_LAYER = (
    [("scalar_algebra.poly_gcd.calls", "count", "lower"),
     ("scalar_algebra.poly_gcd.s", "s", "lower"),
     ("scalar_algebra.poly_gcd.nontrivial_ratio", "ratio", "higher"),
     ("scalar_algebra.poly_mul.calls", "count", "lower"),
     ("scalar_algebra.poly_mul.s", "s", "lower"),
     ("scalar_algebra.canonicalise.calls", "count", "lower"),
     ("scalar_algebra.canonicalise.s", "s", "lower"),
     ("scalar_algebra.max_terms", "count", "lower"),
     ("scalar_algebra.parse_expr.calls", "count", "lower"),
     ("scalar_algebra.parse_expr.s", "s", "lower")]
    + [(f"classification.load_golden_table.t{t}.s", "s", "lower") for t in range(2, 8)]
    + [(f"classification.derive.t{t}.s", "s", "lower") for t in range(2, 8)]
    + [("frame_geometry.validate_structure.calls", "count", "lower"),
       ("frame_geometry.validate_structure.s", "s", "lower"),
       ("frame_geometry.curvature.calls", "count", "lower")]
    + [(f"frame_geometry.curvature.d{d}.s", "s", "lower") for d in DIMS]
    + [("frame_geometry.contact_audit.s", "s", "lower"),
       ("frame_geometry.nullity_fit.s", "s", "lower"),
       ("frame_geometry.parse_model.s", "s", "lower")]
    + [(f"t_tensor.t_components.d{d}.s", "s", "lower") for d in DIMS]
    + [(f"t_tensor.flatness_residual.{k}.d{d}.s", "s", "lower") for k in KINDS for d in DIMS]
    + [(f"t_tensor.t_dot_riemann.d{d}.s", "s", "lower") for d in DIMS]
    + [(f"t_tensor.t_dot_ricci.d{d}.s", "s", "lower") for d in DIMS]
    + [("cli.import_s", "s", "lower"),
       ("cli.self_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def _plain(name):
    return lambda args, kwargs: name


def _by_dim(name):
    return lambda args, kwargs: f"{name}.d{args[0].dim}"


def _by_table(name):
    return lambda args, kwargs: f"{name}.t{args[0]}"


def _flatness(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    return f"t_tensor.flatness_residual.{getattr(kind, 'value', kind)}.d{args[0].dim}"


# (module, attribute, span namer)
_TARGETS = (
    ("nkt.scalar_algebra", "poly_gcd", _plain("scalar_algebra.poly_gcd")),
    ("nkt.scalar_algebra", "parse_expr", _plain("scalar_algebra.parse_expr")),
    ("nkt.frame_geometry", "validate_structure", _plain("frame_geometry.validate_structure")),
    ("nkt.frame_geometry", "curvature", _by_dim("frame_geometry.curvature")),
    ("nkt.frame_geometry", "contact_audit", _plain("frame_geometry.contact_audit")),
    ("nkt.frame_geometry", "nullity_fit", _plain("frame_geometry.nullity_fit")),
    ("nkt.frame_geometry", "parse_model", _plain("frame_geometry.parse_model")),
    ("nkt.t_tensor", "t_components", _by_dim("t_tensor.t_components")),
    ("nkt.t_tensor", "flatness_residual", _flatness),
    ("nkt.t_tensor", "t_dot_riemann", _by_dim("t_tensor.t_dot_riemann")),
    ("nkt.t_tensor", "t_dot_ricci", _by_dim("t_tensor.t_dot_ricci")),
    ("nkt.classification", "load_golden_table", _by_table("classification.load_golden_table")),
    ("nkt.classification", "classification_row", _by_table("classification.derive")),
)


class Tracer:
    """Records spans and counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.nontrivial_gcds = 0
        self.max_terms = 0

    def wrap(self, fn, name_of, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) inside a root span of the given name."""
        return self.wrap(fn, _plain(name))(*args)

    def _count_gcd(self, args, result):
        if not result.is_one():
            self.nontrivial_gcds += 1

    def _count_terms(self, args, result):
        value = args[0]
        self.max_terms = max(self.max_terms, len(value.num.terms) + len(value.den.terms))

    def install(self):
        import nkt  # noqa: F401  (loads every layer)
        from nkt import scalar_algebra

        modules = [m for name, m in sys.modules.items() if name == "nkt" or name.startswith("nkt.")]
        for module_name, attr, name_of in _TARGETS:
            original = getattr(sys.modules[module_name], attr)
            after = self._count_gcd if attr == "poly_gcd" else None
            wrapper = self.wrap(original, name_of, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        poly, rexpr = scalar_algebra.Poly, scalar_algebra.RationalExpr
        poly.__mul__ = self.wrap(poly.__mul__, _plain("scalar_algebra.poly_mul"))
        rexpr.__init__ = self.wrap(rexpr.__init__, _plain("scalar_algebra.canonicalise"),
                                   self._count_terms)

    def dump(self, path, import_s):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "import_s": import_s,
                       "nontrivial_gcds": self.nontrivial_gcds,
                       "max_terms": self.max_terms}, handle)


def layer_metrics(dumps):
    """Per-layer metrics of one traced pass from the dumps of its processes.

    Times are self times: a span's duration minus the durations of its
    direct child spans (one thread, so children never overlap).
    """
    calls = Counter()
    self_s = defaultdict(float)
    nontrivial = max_terms = 0
    imports = []
    for dump in dumps:
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            calls[name] += 1
            self_s[name] += end - start - child
        nontrivial += dump["nontrivial_gcds"]
        max_terms = max(max_terms, dump["max_terms"])
        imports.append(dump["import_s"])
    gcds = calls["scalar_algebra.poly_gcd"]
    special = {
        "scalar_algebra.poly_gcd.nontrivial_ratio": nontrivial / gcds if gcds else 0.0,
        "scalar_algebra.max_terms": max_terms,
        "cli.import_s": statistics.median(imports),
        "cli.self_s": self_s["cli.run"],
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            base = name[: -len(".calls")]
            out[name] = sum(v for k, v in calls.items() if k == base or k.startswith(base + ".d"))
        elif name.endswith(".s"):
            out[name] = self_s.get(name[: -len(".s")], 0.0)
    return out


def main(argv):
    spans_path, separator, cli_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <nkt arguments>")
    start = time.perf_counter()
    import nkt.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.call("cli.run", nkt.cli.run, cli_args)
    finally:
        tracer.dump(spans_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
