"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports ``nkt``.  Expressions are evaluated with a small infix
parser over ``fractions.Fraction``; frame-model quantities are recomputed from
the model file with plain ``Fraction`` loops straight from the defining
formulas (Koszul connection, R as a commutator of connection matrices, Ricci,
the eight-term T, phi insertions slot by slot, the four-term derivation).
Every checker returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
import operator
import re
from fractions import Fraction

VARIABLES = ("n", "kappa", "lambda", "r", "mu", "a", "c", "a0", "a1", "s")
_N = VARIABLES.index("n")
_S = VARIABLES.index("s")


# ---------------------------------------------------------------------------
# infix expressions: one parser, two rings (values at a point, polynomials)


class PointRing:
    """Evaluate at a point; raises ZeroDivisionError where a denominator
    vanishes."""

    def __init__(self, point):
        self.point = point

    def const(self, value):
        return Fraction(value)

    def var(self, name):
        return self.point[name]

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    div = staticmethod(operator.truediv)
    pow = staticmethod(operator.pow)


def _poly_add(x, y, sign=1):
    out = dict(x)
    for mono, coeff in y.items():
        value = out.get(mono, 0) + sign * coeff
        if value:
            out[mono] = value
        else:
            out.pop(mono, None)
    return out


def _reduce_s(mono):
    if mono[_S] < 2:
        return mono
    lst = list(mono)
    lst[_N] += lst[_S] // 2
    lst[_S] %= 2
    return tuple(lst)


class PolyRing:
    """Expand into {exponent tuple: Fraction} with s^2 -> n; division only
    by constants."""

    def const(self, value):
        value = Fraction(value)
        return {(0,) * len(VARIABLES): value} if value else {}

    def var(self, name):
        mono = [0] * len(VARIABLES)
        mono[VARIABLES.index(name)] = 1
        return {tuple(mono): Fraction(1)}

    add = staticmethod(_poly_add)

    @staticmethod
    def sub(x, y):
        return _poly_add(x, y, -1)

    @staticmethod
    def neg(x):
        return {m: -c for m, c in x.items()}

    @staticmethod
    def mul(x, y):
        out = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                mono = _reduce_s(tuple(a + b for a, b in zip(m1, m2)))
                value = out.get(mono, 0) + c1 * c2
                if value:
                    out[mono] = value
                else:
                    out.pop(mono, None)
        return out

    @staticmethod
    def div(x, y):
        if len(y) != 1 or any(next(iter(y))):
            raise ValueError("polynomial division by a non-constant")
        (coeff,) = y.values()
        return {m: c / coeff for m, c in x.items()}

    def pow(self, x, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = self.const(1)
        for _ in range(e):
            out = self.mul(out, x)
        return out


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


def _tokens(text):
    out = []
    for number, name, op in _TOKEN.findall(text):
        if number:
            out.append(("int", int(number)))
        elif name:
            if name not in VARIABLES:
                raise ValueError(f"unknown name {name!r} in {text!r}")
            out.append(("name", name))
        elif op.strip():
            if op not in "+-*/^()":
                raise ValueError(f"unexpected {op!r} in {text!r}")
            out.append((op, op))
    return out


def evaluate(text, ring):
    """Evaluate the infix text ``+ - * / ^ ( )`` with integers and the fixed
    indeterminate names in the given ring."""
    tokens = _tokens(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def total():
        value = product()
        while peek() in ("+", "-"):
            op = take()[0]
            rhs = product()
            value = ring.add(value, rhs) if op == "+" else ring.sub(value, rhs)
        return value

    def product():
        value = unary()
        while peek() in ("*", "/"):
            op = take()[0]
            rhs = unary()
            value = ring.mul(value, rhs) if op == "*" else ring.div(value, rhs)
        return value

    def unary():
        if peek() == "-":
            take()
            return ring.neg(unary())
        if peek() == "+":
            take()
            return unary()
        base = atom()
        if peek() == "^":
            take()
            sign = 1
            while peek() == "-":
                take()
                sign = -sign
            if peek() != "int":
                raise ValueError(f"bad exponent in {text!r}")
            base = ring.pow(base, sign * take()[1])
        return base

    def atom():
        kind = peek()
        if kind == "(":
            take()
            value = total()
            if peek() != ")":
                raise ValueError(f"missing ')' in {text!r}")
            take()
            return value
        if kind == "int":
            return ring.const(take()[1])
        if kind == "name":
            return ring.var(take()[1])
        raise ValueError(f"cannot parse {text!r}")

    value = total()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return value


def value_at(text, point):
    """Exact value of an expression text at a point, or None where a
    denominator vanishes."""
    try:
        return evaluate(text, PointRing(point))
    except ZeroDivisionError:
        return None


def random_point(rng):
    """A rational point with n = k^2 and s = k, so s^2 = n holds."""
    k = rng.randint(2, 60)
    point = {name: Fraction(rng.randint(-97, 97), rng.randint(1, 31)) for name in VARIABLES}
    point["n"] = Fraction(k * k)
    point["s"] = Fraction(k)
    return point


def same_function(text_a, text_b, rng, points=3):
    """True when two expression texts agree at ``points`` random points where
    both are defined (the Schwartz-Zippel argument makes a false 'equal'
    vanishingly unlikely); False on the first point where they differ."""
    agreed = 0
    for _ in range(20 * points):
        point = random_point(rng)
        a, b = value_at(text_a, point), value_at(text_b, point)
        if a is None or b is None:
            continue
        if a != b:
            return False
        agreed += 1
        if agreed == points:
            return True
    raise ValueError(f"no common evaluation point for {text_a!r} and {text_b!r}")


def split_fraction(text):
    """Split a rendered canonical form into numerator and denominator texts:
    ``(num)/(den)``, a bare polynomial, or a rational constant ``p/q``."""
    text = text.strip()
    if text.startswith("("):
        depth = 0
        for i, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0:
                rest = text[i + 1:]
                if rest.startswith("/(") and rest.endswith(")"):
                    return text[1:i], rest[2:-1]
                break
    match = re.fullmatch(r"(-?\d+)/(\d+)", text)
    if match:
        return match.group(1), match.group(2)
    return text, "1"


def canonical_form_problems(text):
    """Check the documented canonical-form invariants on a rendered value:
    s-free denominator, integer coefficients, jointly coprime across the
    fraction, positive leading denominator coefficient in lex order over
    VARIABLES."""
    num_text, den_text = split_fraction(text)
    ring = PolyRing()
    num, den = evaluate(num_text, ring), evaluate(den_text, ring)
    problems = []
    if not den:
        return [f"{text}: zero denominator"]
    if any(mono[_S] for mono in den):
        problems.append(f"{text}: denominator carries s")
    coeffs = list(num.values()) + list(den.values())
    if any(c.denominator != 1 for c in coeffs):
        problems.append(f"{text}: non-integer coefficient")
    elif math.gcd(*(int(c) for c in coeffs)) != 1:
        problems.append(f"{text}: coefficients share a common factor")
    if den[max(den)] <= 0:
        problems.append(f"{text}: leading denominator coefficient not positive")
    return problems


# ---------------------------------------------------------------------------
# coefficient presets, transcribed from the definitions of the named tensors


def preset_coefficients(name, n, a0=None, a1=None):
    """(a0..a7) of a named tensor at dimension 2n+1 (corrected W0*, W4, W9
    rows, as the catalog ships them)."""
    n = Fraction(n)
    h = 1 / (2 * n)
    q = 1 / (4 * n)
    m = 1 / (2 * n - 1)
    rows = {
        "C": [1, -m, m, 0, -m, m, 0, 1 / (2 * n * (2 * n - 1))],
        "L": [1, -m, m, 0, -m, m, 0, 0],
        "V": [1, 0, 0, 0, 0, 0, 0, -1 / (2 * n * (2 * n + 1))],
        "P": [1, -h, h, 0, 0, 0, 0, 0],
        "M": [1, -q, q, 0, -q, q, 0, 0],
        "W0": [1, -h, 0, 0, 0, h, 0, 0],
        "W0_star": [1, h, 0, 0, 0, -h, 0, 0],
        "W1": [1, h, -h, 0, 0, 0, 0, 0],
        "W1_star": [1, -h, h, 0, 0, 0, 0, 0],
        "W2": [1, 0, 0, 0, -h, h, 0, 0],
        "W3": [1, 0, -h, 0, h, 0, 0, 0],
        "W4": [1, 0, 0, 0, 0, h, -h, 0],
        "W5": [1, 0, -h, 0, 0, h, 0, 0],
        "W6": [1, -h, 0, 0, 0, 0, h, 0],
        "W7": [1, -h, 0, 0, h, 0, 0, 0],
        "W8": [1, -h, 0, h, 0, 0, 0, 0],
        "W9": [1, 0, 0, h, -h, 0, 0, 0],
        "Riemann": [1, 0, 0, 0, 0, 0, 0, 0],
    }
    if name == "C_star":
        a0, a1 = Fraction(a0), Fraction(a1)
        row = [a0, a1, -a1, 0, a1, -a1, 0, -(a0 / (2 * n) + 2 * a1) / (2 * n + 1)]
    elif name == "P_star":
        a0, a1 = Fraction(a0), Fraction(a1)
        row = [a0, a1, -a1, 0, 0, 0, 0, -(a0 / (2 * n) + a1) / (2 * n + 1)]
    else:
        row = rows[name]
    return [Fraction(x) for x in row]


# ---------------------------------------------------------------------------
# frame models


def parse_model_text(text):
    """(dim, xi, phi, c) from the plain-text model format; c is the full
    antisymmetric bracket table c[i][j][k] = e_k coefficient of [e_i, e_j]."""
    dim = xi = None
    phi = []
    entries = []
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "dim":
            dim = int(parts[1])
        elif parts[0] == "xi":
            xi = int(parts[1]) - 1
        elif parts[0] == "phi":
            phi.append([Fraction(x) for x in parts[1:]])
        elif parts[0] == "c":
            i, j, k = (int(x) - 1 for x in parts[1:4])
            entries.append((i, j, k, Fraction(parts[5])))
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, value in entries:
        c[i][j][k] = value
        c[j][i][k] = -value
    return dim, xi, phi, c


def _matmul(x, y):
    size = len(x)
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        row = out[i]
        for p, xv in enumerate(x[i]):
            if xv:
                for j, yv in enumerate(y[p]):
                    if yv:
                        row[j] += xv * yv
    return out


def _combine(terms, size):
    """sum of scalar * matrix over (scalar, matrix) pairs."""
    out = [[Fraction(0)] * size for _ in range(size)]
    for scale, matrix in terms:
        if scale:
            for i in range(size):
                for j in range(size):
                    out[i][j] += scale * matrix[i][j]
    return out


class Geometry:
    """Curvature of a left-invariant orthonormal frame model.

    ``nabla[i]`` is the matrix of nabla_{e_i} (column m holds nabla_{e_i} e_m,
    by the Koszul formula); ``rmat[i][j]`` is the matrix of R(e_i, e_j) =
    [nabla_i, nabla_j] - nabla_[e_i, e_j]; ``ricci[j][k]`` = sum_i
    g(R(e_i, e_j) e_k, e_i).
    """

    def __init__(self, text):
        self.dim, self.xi, self.phi, self.c = parse_model_text(text)
        d, c = self.dim, self.c
        self.n = (d - 1) // 2
        self.nabla = [
            [[(c[i][m][l] - c[m][l][i] + c[l][i][m]) / 2 for m in range(d)] for l in range(d)]
            for i in range(d)
        ]
        self.rmat = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                terms = [(1, _matmul(self.nabla[i], self.nabla[j])),
                         (-1, _matmul(self.nabla[j], self.nabla[i]))]
                terms += [(-c[i][j][m], self.nabla[m]) for m in range(d)]
                self.rmat[i][j] = _combine(terms, d)
        self.ricci = [
            [sum(self.rmat[i][j][i][k] for i in range(d)) for k in range(d)]
            for j in range(d)
        ]
        self.scalar = sum(self.ricci[i][i] for i in range(d))

    def kappa(self):
        """g(R(e_i, xi) xi, e_i) averaged over the horizontal frame."""
        horizontal = [i for i in range(self.dim) if i != self.xi]
        total = sum(self.rmat[i][self.xi][i][self.xi] for i in horizontal)
        return total / len(horizontal)

    def t_tensor(self, a):
        """T[i][j][k][l] = e_l component of T(e_i, e_j) e_k."""
        d, s, r = self.dim, self.ricci, self.scalar
        return [[[[a[0] * self.rmat[i][j][l][k]
                   + a[1] * s[j][k] * (i == l) + a[2] * s[i][k] * (j == l)
                   + a[3] * s[i][j] * (k == l) + a[4] * (j == k) * s[i][l]
                   + a[5] * (i == k) * s[j][l] + a[6] * (i == j) * s[k][l]
                   + a[7] * r * ((j == k) * (i == l) - (i == k) * (j == l))
                   for l in range(d)] for k in range(d)] for j in range(d)] for i in range(d)]

    def phi_slot(self, tensor, slot):
        """Insert phi into one slot of a 4-index tensor.  For the argument
        slots this is T(.., phi e_i, ..); for the last slot it is
        g(T(..), phi e_l).  Both read sum_p phi[p][i] * tensor[.. p ..]."""
        d, phi = self.dim, self.phi
        out = [[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
        for idx in _indices(d, 4):
            total = Fraction(0)
            src = list(idx)
            for p in range(d):
                weight = phi[p][idx[slot]]
                if weight:
                    src[slot] = p
                    total += weight * tensor[src[0]][src[1]][src[2]][src[3]]
            out[idx[0]][idx[1]][idx[2]][idx[3]] = total
        return out

    def flatness(self, a, kind, strict=False):
        t = self.t_tensor(a)
        d, xi = self.dim, self.xi
        if kind == "t-flat":
            values = (t[i][j][k][l] for i, j, k, l in _indices(d, 4))
        elif kind == "xi-flat" and strict:
            values = (t[i][j][xi][l] for i, j, l in _indices(d, 3))
        elif kind == "xi-flat":
            values = (t[i][xi][xi][l] for i, l in _indices(d, 2))
        else:
            slots = (0, 3) if kind == "quasi-flat" else (0, 1, 2, 3)
            for slot in slots:
                t = self.phi_slot(t, slot)
            values = (t[i][j][k][l] for i, j, k, l in _indices(d, 4))
        return max((abs(v) for v in values), default=Fraction(0))

    def _t_xi(self, a):
        """A[i] = matrix of T(xi, e_i): column p holds T(xi, e_i) e_p."""
        t = self.t_tensor(a)
        d, xi = self.dim, self.xi
        return [[[t[xi][i][p][l] for p in range(d)] for l in range(d)] for i in range(d)]

    def t_dot_r(self, a, variant="standard"):
        """max |(T(xi,e_i).R)(e_j,e_k)e_l| with the four-term derivation
        T.R(Y,Z) = T R(Y,Z) - R(TY,Z) - R(Y,TZ) - R(Y,Z) T; the printed
        variant's last term is R(e_i, e_j) T instead."""
        d = self.dim
        worst = Fraction(0)
        for i, ai in enumerate(self._t_xi(a)):
            for j in range(d):
                for k in range(d):
                    last = self.rmat[j][k] if variant == "standard" else self.rmat[i][j]
                    terms = [(1, _matmul(ai, self.rmat[j][k])), (-1, _matmul(last, ai))]
                    terms += [(-ai[p][j], self.rmat[p][k]) for p in range(d)]
                    terms += [(-ai[p][k], self.rmat[j][p]) for p in range(d)]
                    for row in _combine(terms, d):
                        worst = max(worst, max(abs(x) for x in row))
        return worst

    def t_dot_s(self, a):
        """max |(T(xi,e_i).S)(e_j,e_k)| = max |S(T e_j, e_k) + S(e_j, T e_k)|."""
        d, s = self.dim, self.ricci
        worst = Fraction(0)
        for ai in self._t_xi(a):
            for j, k in _indices(d, 2):
                value = sum(ai[p][j] * s[p][k] + s[j][p] * ai[p][k] for p in range(d))
                worst = max(worst, abs(value))
        return worst

    def residual(self, a, condition, strict=False, variant="standard"):
        if condition == "t-dot-r":
            return self.t_dot_r(a, variant)
        if condition == "t-dot-s":
            return self.t_dot_s(a)
        return self.flatness(a, condition, strict)


def _indices(d, count):
    if count == 0:
        yield ()
        return
    for head in range(d):
        for rest in _indices(d, count - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# JSON schema (the subset cli_output.schema.json uses)


def schema_problems(value, schema, root=None, where="$"):
    root = root if root is not None else schema
    if "$ref" in schema:
        target = root
        for part in schema["$ref"].lstrip("#/").split("/"):
            target = target[part]
        return schema_problems(value, target, root, where)
    if "oneOf" in schema:
        hits = sum(not schema_problems(value, s, root, where) for s in schema["oneOf"])
        return [] if hits == 1 else [f"{where}: matches {hits} oneOf branches"]
    problems = []
    if "type" in schema:
        kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_is_type(value, k) for k in kinds):
            return [f"{where}: expected {kinds}"]
    if "const" in schema and value != schema["const"]:
        problems.append(f"{where}: expected {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        problems.append(f"{where}: not one of {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        problems.append(f"{where}: below minimum")
    if "maximum" in schema and value > schema["maximum"]:
        problems.append(f"{where}: above maximum")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                problems.append(f"{where}: missing {key}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                problems += schema_problems(item, props[key], root, f"{where}.{key}")
            elif extra is False:
                problems.append(f"{where}: unexpected key {key}")
            elif isinstance(extra, dict):
                problems += schema_problems(item, extra, root, f"{where}.{key}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0) or len(value) > schema.get("maxItems", len(value)):
            problems.append(f"{where}: wrong item count")
        if "items" in schema:
            for pos, item in enumerate(value):
                problems += schema_problems(item, schema["items"], root, f"{where}[{pos}]")
    return problems


def _is_type(value, kind):
    return {
        "object": isinstance(value, dict),
        "array": isinstance(value, list),
        "string": isinstance(value, str),
        "boolean": isinstance(value, bool),
        "null": value is None,
        "integer": isinstance(value, int) and not isinstance(value, bool),
        "number": isinstance(value, (int, float)) and not isinstance(value, bool),
    }[kind]


# ---------------------------------------------------------------------------
# table checks


def load_golden(directory, which):
    """preset -> {field: text} from the transcription table<which>.txt."""
    rows = {}
    for raw in (directory / f"table{which}.txt").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        preset = parts[0].replace("*", "_star")
        if which == 2:
            rows[preset] = {"kind": parts[1], "kappa": parts[2]}
        else:
            rows[preset] = {"tag": parts[1], "b1": parts[2], "b2": parts[3]}
    return rows


def load_allowlist(directory):
    entries = set()
    for raw in (directory / "allowlist.txt").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            table, preset, field = (p.strip() for p in line.split("|", 3)[:3])
            entries.add((int(table), preset.replace("*", "_star"), field))
    return entries


def _row_mismatches(which, row, golden, rng):
    """Fields where the derived row differs from the transcription."""
    if which == 2:
        kappa = row.get("kappa", {})
        if golden["kind"] == "any":
            return [] if kappa.get("kind") == "identity" else ["kappa"]
        if kappa.get("kind") != "unique":
            return ["kappa"]
        return [] if same_function(kappa["kappa"], golden["kappa"], rng) else ["kappa"]
    form = row.get("form", {})
    if form.get("tag") == "degenerate":
        return ["tag", "b1", "b2"]
    out = []
    if {"einstein": "einstein", "eta-einstein": "eta"}.get(form.get("tag")) != golden["tag"]:
        out.append("tag")
    for field in ("b1", "b2"):
        if not same_function(form[field], golden[field], rng):
            out.append(field)
    return out


def table_problems(which, json_text, md_text, golden_dir, schema, rng):
    """Check one table's json and md outputs against the transcription."""
    try:
        payload = json.loads(json_text)
    except ValueError as exc:
        return [f"table {which}: invalid JSON ({exc})"]
    problems = [f"table {which}: {p}" for p in schema_problems(payload, schema)]
    if problems:
        return problems
    if payload["table"] != which or payload["ok"] is not True:
        problems.append(f"table {which}: ok/table fields wrong")
    golden = load_golden(golden_dir, which)
    allowed = load_allowlist(golden_dir)
    seen = set()
    for row in payload["rows"]:
        name = row["preset"]
        if name not in golden:
            if row["match"] is not None:
                problems.append(f"table {which} {name}: row not in the transcription but diffed")
            continue
        seen.add(name)
        mismatches = _row_mismatches(which, row, golden[name], rng)
        undocumented = [f for f in mismatches if (which, name, f) not in allowed]
        if undocumented:
            problems.append(f"table {which} {name}: {undocumented} differ from the transcription")
        if sorted(row["mismatches"]) != sorted(mismatches) or row["match"] != (not mismatches):
            problems.append(f"table {which} {name}: reported diff {row['mismatches']} != {mismatches}")
    if seen != set(golden):
        problems.append(f"table {which}: rows missing {sorted(set(golden) - seen)}")
    problems += _md_problems(which, payload, md_text)
    return problems


def _md_cells(md_text):
    rows = []
    for line in md_text.splitlines():
        if not line.startswith("| ") or line.startswith("| ---") or line.startswith("| preset"):
            continue
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _expected_md(which, row):
    if row["match"] is None:
        diff = "not diffed"
    elif row["match"]:
        diff = "match"
    else:
        diff = "documented typo: " + ", ".join(a["field"] for a in row["allowed"])
    if which == 2:
        kappa = row["kappa"]
        value = {"identity": "any value", "no_solution": "no solution"}.get(kappa["kind"])
        return [row["preset"], value or kappa["kappa"], diff]
    form = row["form"]
    if form["tag"] == "degenerate":
        return [row["preset"], "degenerate", "-", diff]
    return [row["preset"], form["tag"], f"({form['b1']}) g + ({form['b2']}) eta(x)eta", diff]


def _md_problems(which, payload, md_text):
    cells = _md_cells(md_text)
    expected = [_expected_md(which, row) for row in payload["rows"]]
    problems = []
    if len(cells) != len(expected):
        return [f"table {which}: md has {len(cells)} rows, json {len(expected)}"]
    for got, want in zip(cells, expected):
        if got != want:
            problems.append(f"table {which}: md row {got} != json row {want}")
    if md_text.strip().splitlines()[-1] != f"table {which}: ok":
        problems.append(f"table {which}: md status line wrong")
    return problems


# ---------------------------------------------------------------------------
# residual and audit checks


def residual_value(stdout, fmt):
    if fmt == "json":
        return Fraction(json.loads(stdout)["residual"])
    match = re.fullmatch(r"residual = (\S+)", stdout.strip())
    if not match:
        raise ValueError(f"unexpected residual output {stdout!r}")
    return Fraction(match.group(1))


def residual_problems(stdout, spec, geometry, schema):
    """The CLI's residual must equal the independent evaluation."""
    problems = []
    if spec["format"] == "json":
        payload = json.loads(stdout)
        problems += schema_problems(payload, schema)
        if payload.get("vanishes") != (Fraction(payload.get("residual", "1")) == 0):
            problems.append("vanishes flag inconsistent")
    got = residual_value(stdout, spec["format"])
    want = geometry.residual(
        spec["coeffs"], spec["condition"], spec.get("strict", False),
        spec.get("variant", "standard"),
    )
    if got != want:
        problems.append(f"{spec['label']}: residual {got} != independent value {want}")
    return problems


def audit_fields(stdout, fmt):
    """(passed, kappa, mu, exact, scalar, sasakian) from audit output."""
    if fmt == "json":
        payload = json.loads(stdout)
        fit = payload.get("nullity", {})
        return (payload["passed"], Fraction(fit.get("kappa", "0")), Fraction(fit.get("mu", "0")),
                fit.get("exact"), Fraction(payload.get("scalar_curvature", "0")),
                payload.get("sasakian", False))
    text = stdout.strip().splitlines()
    fit = re.search(r"^- nullity: kappa = (\S+), mu = (\S+) \((.*)\)$", stdout, re.M)
    scalar = re.search(r"^- scalar curvature: (\S+)$", stdout, re.M)
    if not fit or not scalar:
        return (False, None, None, None, None, False)
    return (text[-1] == "audit: all checks pass", Fraction(fit.group(1)), Fraction(fit.group(2)),
            fit.group(3) == "exact", Fraction(scalar.group(1)),
            "- Sasakian: kappa = 1, h = 0" in text)


def audit_problems(stdout, spec, geometry, schema):
    """Audits must pass and report the closed forms: kappa = 1, mu = 0,
    scalar -2n and Sasakian for H^(2n+1); kappa = 1 - lambda^2 for the
    3-dimensional family.  The independent curvature must agree too."""
    problems = []
    if spec["format"] == "json":
        problems += schema_problems(json.loads(stdout), schema)
    passed, kappa, mu, exact, scalar, sasakian = audit_fields(stdout, spec["format"])
    expect = spec["expect"]
    got = {"passed": passed, "exact": exact, "kappa": kappa}
    want = {"passed": True, "exact": True, "kappa": expect["kappa"]}
    if "mu" in expect:
        got.update(mu=mu, scalar=scalar, sasakian=sasakian)
        want.update(mu=expect["mu"], scalar=expect["scalar"], sasakian=True)
    if got != want:
        problems.append(f"{spec['label']}: audit {got} != closed form {want}")
    if (kappa, scalar) != (geometry.kappa(), geometry.scalar):
        problems.append(f"{spec['label']}: audit disagrees with the independent curvature")
    return problems
