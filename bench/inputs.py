"""Seeded inputs for the three workloads.

The seed decides the inputs; the shape of the work (which commands, which
dimensions, how many terms) is fixed, so every seed costs about the same and
runs with different seeds can be compared.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import PolyRing, evaluate, preset_coefficients

TABLES = (2, 3, 4, 5, 6, 7)

# e*e - e on HEAVY takes seconds where a typical entry takes milliseconds;
# e*e - e on FAULT raises ArithmeticError (the _prem fault).  Both are pinned
# by text so every run carries the same tail and the same failure.
HEAVY = ("(90*n^2*a - 135*n^2*c + 108*n*kappa*c + 10*n*a^2*s - 15*n*a*c*s - 30*n*a"
         " + 45*n*c + 216*n + 12*kappa*a*c*s - 36*kappa*c + 24*a*s - 72)"
         "/(162*n^2 - 2*n*a^2 - 108*n + 18)")
FAULT = ("(-30*n*kappa*a*s - 120*n*kappa + 15*kappa*a*c*s + 2*kappa*a*s + 60*kappa*c"
         " + 8*kappa + 6*a^2*s + 24*a)/(12*n*a^2 - 192)")
PINNED_DIVISOR = "2*n - 1"

CORPUS_SIZE = 160
POINTS_PER_ENTRY = 4

# variable classes cycled through the term slots: n and s sit at fixed
# places, the seed picks which of kappa, a, c fills an x slot
_SLOT_CLASSES = "nxsxx"
_X_VARS = ("kappa", "a", "c")


def table_commands(seed):
    """nkt table N for N = 2..7 in json and md, in a seeded order."""
    ops = [["table", str(n), "--format", fmt] for n in TABLES for fmt in ("json", "md")]
    random.Random(seed).shuffle(ops)
    return ops


def _poly_text(rng, terms, shift):
    pieces = []
    for t in range(terms):
        coeff = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 3))
        factors = [str(coeff.numerator)] + ([str(coeff.denominator)] if coeff.denominator > 1 else [])
        text = "/".join(factors)
        for j in range((shift + t) % 3):
            cls = _SLOT_CLASSES[(3 * shift + 2 * t + j) % len(_SLOT_CLASSES)]
            text += "*" + (rng.choice(_X_VARS) if cls == "x" else cls)
        pieces.append(text)
    return " + ".join(pieces).replace("+ -", "- ")


def _nonzero_poly_text(rng, terms, shift):
    while True:
        text = _poly_text(rng, terms, shift)
        if evaluate(text, PolyRing()):
            return text


def corpus(seed):
    """Random rational expressions shaped like the scalar-algebra property
    tests (1-4 numerator terms of degree <= 2 over n, kappa, a, c, s), each
    with a divisor, followed by the two pinned entries."""
    rng = random.Random(seed)
    entries = []
    for i in range(CORPUS_SIZE):
        num = _poly_text(rng, 1 + i % 4, i)
        den = _nonzero_poly_text(rng, 1 + (i // 4) % 2, i + 1)
        divisor = _nonzero_poly_text(rng, 1 + (i // 8) % 2, i + 2)
        entries.append({"text": f"({num})/({den})", "divisor": divisor})
    entries.append({"text": HEAVY, "divisor": PINNED_DIVISOR})
    entries.append({"text": FAULT, "divisor": PINNED_DIVISOR})
    return entries


# ---------------------------------------------------------------------------
# frame models and residual commands


def _model_text(dim, xi, phi_entries, brackets, perm):
    """Model file text with frame vector i stored at position perm[i]."""
    phi = [[0] * dim for _ in range(dim)]
    for (row, col), value in phi_entries.items():
        phi[perm[row]][perm[col]] = value
    lines = [f"dim {dim}", f"xi {perm[xi] + 1}"]
    lines += ["phi " + " ".join(str(x) for x in row) for row in phi]
    for i, j, k, value in brackets:
        if value:
            lines.append(f"c {perm[i] + 1} {perm[j] + 1} {perm[k] + 1} : {value}")
    return "\n".join(lines) + "\n"


def heisenberg_text(n, rng):
    """H^(2n+1): [e_i, e_(n+i)] = 2 xi, phi e_i = e_(n+i), phi e_(n+i) = -e_i,
    written in a seeded frame order."""
    dim = 2 * n + 1
    xi = dim - 1
    phi = {}
    for i in range(n):
        phi[(n + i, i)] = 1
        phi[(i, n + i)] = -1
    brackets = [(i, n + i, xi, 2) for i in range(n)]
    perm = list(range(dim))
    rng.shuffle(perm)
    return _model_text(dim, xi, phi, brackets, perm)


def family_text(lam, rng=None):
    """The 3-dimensional kappa = 1 - lambda^2 family: [e1,e2] = 2 e3,
    [e2,e3] = (1-lambda) e1, [e3,e1] = (1+lambda) e2, xi = e3,
    phi e1 = e2, phi e2 = -e1; the frame order is shuffled when rng is given."""
    brackets = [(0, 1, 2, 2), (1, 2, 0, 1 - lam), (2, 0, 1, 1 + lam)]
    perm = [0, 1, 2]
    if rng is not None:
        rng.shuffle(perm)
    return _model_text(3, 2, {(1, 0): 1, (0, 1): -1}, brackets, perm)


_STARRED = ("C_star", "P_star")

# (target, condition, preset, extra flags, output format); target is a
# Heisenberg dimension, "lambda" for a --lambda family member, or "audit:"
# plus a model name.  The presets are fixed because their zero pattern sets
# the cost of a residual (t-dot-r at d = 7 takes 0.52 s with P and 0.86 s
# with W3); the seed picks the values of a0, a1 and lambda and the frame
# order of the model files.  Sorted by latency, a pass falls into three
# groups: 9 d = 3 commands (with the cheap d = 5 xi-flat at their edge),
# 10 d = 5 commands and 7 d = 7 commands, so the median operation lies
# inside the d = 5 group and not on a gap between groups.
_RESIDUAL_PLAN = (
    ("audit:h7", None, None, (), "json"),
    (7, "t-flat", "W2", (), "md"),
    (7, "xi-flat", "W7", (), "json"),
    (7, "quasi-flat", "C_star", (), "md"),
    (7, "phi-flat", "M", (), "json"),
    (7, "t-dot-r", "W3", (), "md"),
    (7, "t-dot-s", "P_star", (), "json"),
    ("audit:h5", None, None, (), "md"),
    (5, "t-flat", "P_star", (), "json"),
    (5, "xi-flat", "W9", ("--strict-xi",), "md"),
    (5, "quasi-flat", "L", (), "json"),
    (5, "phi-flat", "C_star", (), "md"),
    (5, "t-dot-r", "W1", ("--variant", "printed"), "json"),
    (5, "t-dot-s", "V", (), "md"),
    (5, "t-dot-r", "P", (), "md"),
    (5, "quasi-flat", "W0", (), "json"),
    (5, "phi-flat", "W0_star", (), "json"),
    ("audit:h3", None, None, (), "json"),
    (3, "t-dot-r", "W4", (), "json"),
    ("audit:family", None, None, (), "md"),
    ("lambda", "t-flat", "C", (), "json"),
    ("lambda", "xi-flat", "W5", ("--strict-xi",), "md"),
    ("lambda", "quasi-flat", "W6", (), "json"),
    ("lambda", "phi-flat", "P_star", (), "md"),
    ("lambda", "t-dot-r", "W8", ("--variant", "printed"), "json"),
    ("lambda", "t-dot-s", "Riemann", (), "md"),
)


def _small_rational(rng, exclude=()):
    while True:
        value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if value not in exclude:
            return value


def residual_commands(seed, workdir):
    """Write the model files into workdir and return the command list:
    [(argv, spec)], where spec tells the checker what to expect.  Rational
    values are passed as --name=value, since argparse takes a separate
    "-1/4" for an option."""
    rng = random.Random(seed)
    lam_audit = _small_rational(rng, exclude=(1, -1))
    models = {f"h{2 * n + 1}": heisenberg_text(n, rng) for n in (1, 2, 3)}
    models["family"] = family_text(lam_audit, rng)
    paths = {}
    for name, text in models.items():
        path = workdir / f"{name}.txt"
        path.write_text(text)
        paths[name] = path
    ops = []
    for target, condition, name, extra, fmt in _RESIDUAL_PLAN:
        if isinstance(target, str) and target.startswith("audit:"):
            model = target.split(":", 1)[1]
            if model == "family":
                expect = {"kappa": 1 - lam_audit * lam_audit}
            else:
                n = (int(model[1:]) - 1) // 2
                expect = {"kappa": Fraction(1), "mu": Fraction(0), "scalar": Fraction(-2 * n)}
            argv = ["model-audit", str(paths[model]), "--format", fmt]
            spec = {"kind": "audit", "model": models[model], "expect": expect, "format": fmt,
                    "label": " ".join(argv)}
            ops.append((argv, spec))
            continue
        if target == "lambda":
            lam = _small_rational(rng, exclude=(1, -1))
            text = family_text(lam)
            argv = ["residual", f"--lambda={lam}"]
        else:
            text = models[f"h{target}"]
            argv = ["residual", "--model", str(paths[f"h{target}"])]
        n = (int(text.split()[1]) - 1) // 2
        if name in _STARRED:
            a0, a1 = _small_rational(rng, exclude=(0,)), _small_rational(rng, exclude=(0,))
            coeffs = preset_coefficients(name, n, a0, a1)
            argv += ["--preset", name, f"--a0={a0}", f"--a1={a1}"]
        else:
            coeffs = preset_coefficients(name, n)
            argv += ["--preset", name]
        argv += ["--condition", condition, *extra, "--format", fmt]
        spec = {"kind": "residual", "model": text, "coeffs": coeffs, "condition": condition,
                "strict": "--strict-xi" in extra,
                "variant": "printed" if "printed" in extra else "standard",
                "format": fmt, "label": " ".join(argv)}
        ops.append((argv, spec))
    return ops
