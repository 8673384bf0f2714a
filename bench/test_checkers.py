"""Self-tests of the benchmark's output checkers: each accepts the program's
real output and rejects a corrupted copy of it.

    PYTHONPATH=src python3 bench/test_checkers.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import inputs
import libworker
import oracle

import nkt
import nkt.cli
from nkt.scalar_algebra import RationalExpr

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = SRC / "nkt" / "data" / "golden"
SCHEMA = json.loads((SRC / "nkt" / "data" / "schema" / "cli_output.schema.json").read_text())


def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nkt.cli.run(list(argv))
    assert code == 0, argv
    return out.getvalue()


class ResidualChecker(unittest.TestCase):
    def test_rejects_residual_off_by_one_seventh(self):
        text = inputs.heisenberg_text(2, random.Random(3))
        geometry = oracle.Geometry(text)
        spec = {"kind": "residual", "coeffs": oracle.preset_coefficients("W7", 2),
                "condition": "t-dot-r", "variant": "standard", "format": "json", "label": "t"}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "h5.txt"
            path.write_text(text)
            out = cli("residual", "--model", str(path), "--preset", "W7",
                      "--condition", "t-dot-r", "--format", "json")
        self.assertEqual(oracle.residual_problems(out, spec, geometry, SCHEMA), [])
        payload = json.loads(out)
        payload["residual"] = str(Fraction(payload["residual"]) + Fraction(1, 7))
        corrupted = json.dumps(payload)
        self.assertTrue(oracle.residual_problems(corrupted, spec, geometry, SCHEMA))


class CanonicalFormChecker(unittest.TestCase):
    def setUp(self):
        self.value = nkt.parse_expr("(2*n*kappa - s)/(3*a - 2*n)") * nkt.parse_expr("(n + 1)/(c - 1)")
        self.points = [{k: str(v) for k, v in oracle.random_point(random.Random(i)).items()}
                       for i in range(3)]

    def test_rejects_integer_factor_multiplied_back(self):
        num, den = oracle.split_fraction(str(self.value))
        self.assertEqual(oracle.canonical_form_problems(str(self.value)), [])
        self.assertTrue(oracle.canonical_form_problems(f"(3*({num}))/(3*({den}))"))

    def test_rejects_polynomial_factor_multiplied_back(self):
        good = libworker._describe(nkt, self.value, self.points)
        self.assertTrue(good["normalize_ok"] and good["roundtrip_ok"])
        factor = nkt.parse_expr("kappa - a").num
        corrupted = object.__new__(RationalExpr)
        corrupted.num = self.value.num * factor
        corrupted.den = self.value.den * factor
        self.assertFalse(libworker._describe(nkt, corrupted, self.points)["normalize_ok"])


class TableChecker(unittest.TestCase):
    def test_rejects_row_with_b1_perturbed(self):
        json_text, md_text = cli("table", "5", "--format", "json"), cli("table", "5")
        rng = random.Random(5)
        self.assertEqual(oracle.table_problems(5, json_text, md_text, GOLDEN, SCHEMA, rng), [])
        payload = json.loads(json_text)
        form = next(r["form"] for r in payload["rows"] if r["match"])
        md_corrupted = md_text.replace(f"({form['b1']}) g", f"({form['b1']} + 1) g", 1)
        form["b1"] += " + 1"
        problems = oracle.table_problems(5, json.dumps(payload), md_corrupted, GOLDEN, SCHEMA, rng)
        self.assertTrue(any("differ from the transcription" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
