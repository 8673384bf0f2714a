"""Exact scalar arithmetic: rationals and multivariate rational functions.

Everything downstream (curvature components, coefficient presets, the
classification formulas) is computed in the fraction field of the polynomial
ring Q[n, kappa, lambda, r, mu, a, c, a0, a1, s] modulo the single rewrite
rule s*s -> n, so ``s`` behaves as sqrt(n).  With ``n`` kept symbolic the
quotient is a field, which is what makes division safe everywhere.

Canonical form of a :class:`RationalExpr`:

* the denominator is s-free (an ``s`` in a denominator is cleared by
  multiplying with the conjugate),
* numerator and denominator share no polynomial factor (multivariate GCD),
* the denominator has integer, jointly coprime coefficients and a positive
  leading coefficient in the fixed monomial order.

Two expressions are equal as field elements iff their canonical forms are
identical, so ``==`` is decidable equality.

Because the canonical form is unique, it can be taken once per result:
``parse_expr`` works on (numerator, denominator) polynomial pairs with plain
ring arithmetic and canonicalises at the end, and field operations skip the
gcd where the operands' canonical forms fix its answer (see ``_lowest_terms``).
``parse_expr`` scans with one compiled pattern in ``str``'s Unicode classes:
after any whitespace, decimal digits, else word characters, else one
character; a word not starting with a letter or ``_`` (say ``²``), and a
character other than ``+ - * / ^ ( )``, are syntax errors.
``poly_gcd`` has one path: closed forms for monomial and constant inputs;
else integer primitive parts and the heuristic GCD (GCDHEU on a Kronecker
image, skipped above ``MAX_HEU_BITS``); where it declines, Brown's
interpolation in the variable of least degree, or in one variable images
mod Mersenne primes, scaled by the leads' gcd or by rational reconstruction,
lifted and checked by trial division.  ``_div_exact`` is the one exact
division, also of an ``A + B*s`` numerator by an s-free divisor; its long
division reduces one remainder dict in place.

Representation.  A monomial is one packed ``int``: a 16-bit field per
indeterminate in ``VARIABLES`` order, ``n`` in the high bits and ``s`` in the
low bits, so integer order is lex order on exponent tuples and a monomial
product is an integer add.  The top bit of each field is a guard: exponents
stay at most ``MAX_EXPONENT`` (2^15 - 1), and a product that sets a guard bit
raises :class:`ExponentOverflow` instead of carrying into the next field.
A ``Poly`` is a polynomial over Z: every coefficient is a Python ``int``,
and the constructor rejects anything else.  A rational constant p/q is a
``RationalExpr`` with numerator p and denominator q.  Every divisor in the
library is primitive, so by Gauss's lemma an exact quotient is integral and
a coefficient that does not divide raises ``ArithmeticError`` at once.
``Fraction`` appears only as the value of ``evaluate``/``eval_at``/
``as_rational``, which always return ``Fraction``.
"""

from __future__ import annotations

import re
from contextlib import suppress
from fractions import Fraction
from functools import reduce
from itertools import chain, count
from math import comb, gcd, isqrt, lcm, prod
from operator import or_
from typing import Mapping, Optional, Union

Rational = Fraction

VARIABLES = ("n", "kappa", "lambda", "r", "mu", "a", "c", "a0", "a1", "s")

_NVARS = len(VARIABLES)
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_N = _VAR_INDEX["n"]
_S = _VAR_INDEX["s"]

_WIDTH = 16
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1
MAX_DECIMAL_EXPONENT = 4300  # in a rational literal: str prints no int of over 4300 digits
_SHIFTS = tuple(_WIDTH * (_NVARS - 1 - i) for i in range(_NVARS))
_GUARDS = sum(1 << (shift + _WIDTH - 1) for shift in _SHIFTS)
_N_UNIT = 1 << _SHIFTS[_N]
# s has the lowest field, and reduced factors carry s^0 or s^1, so a product
# holds s^2 exactly when bit 1 is set: s*s -> n is one mask test and one add
_S_SQUARE = 2

RationalLike = Union[int, Fraction, str]


class InputError(ValueError):
    """An input nkt rejects, from a caller, the command line or a file: the
    root of every nkt error, printed by the CLI as one ``error:`` line."""


class ScalarAlgebraError(InputError):
    """Base class for errors raised by this module."""


class ZeroDenominator(ScalarAlgebraError, ZeroDivisionError):
    """The denominator polynomial is identically zero."""


class DivisionByZero(ScalarAlgebraError, ZeroDivisionError):
    """Division by zero: either by the zero expression, or a denominator
    vanished at an evaluation point (a side condition was violated)."""


class UnboundIndeterminate(ScalarAlgebraError):
    """An evaluation point does not bind every indeterminate that occurs."""


class NonlinearInVariable(ScalarAlgebraError):
    """solve_linear was given an expression of degree >= 2 in the variable."""


class ExprSyntaxError(ScalarAlgebraError):
    """parse_expr could not parse its input."""


class ExponentOverflow(ScalarAlgebraError):
    """An exponent would exceed MAX_EXPONENT, the width of its packed field."""


class Record:
    """A frozen record without generated code: the fields are the class
    annotations in order, a class-level value is a default.  ``==`` holds
    within one class only; ``__dict__`` stays, so cached_property works."""

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        values = {**self._defaults, **given}
        if len(given) < len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}{self._fields} cannot take {args} {kwargs}")
        self.__dict__.update((name, values[name]) for name in self._fields)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validation hook, run once the fields are set."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:  # an 'e' marks the exponent; bound it before Fraction computes 10^e
            if abs(int(value.lower().partition("e")[2] or 0)) <= MAX_DECIMAL_EXPONENT:
                return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExprSyntaxError(f"not a rational: {value!r}") from exc
        raise ExprSyntaxError(f"decimal exponent above {MAX_DECIMAL_EXPONENT} in {value!r}")
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def as_int(text: str, field: str) -> int:
    """The integer in one field of a text input; an error names the field."""
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{field} is not an integer: {text!r}") from None


def numbered_lines(text: str):
    """(line number, text) of each line left nonblank by stripping its ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _pack(exps) -> int:
    """Packed monomial of an exponent tuple, reduced under s*s -> n."""
    if min(exps) < 0:
        raise InputError(f"negative exponent in {tuple(exps)}")
    exps = list(exps)
    exps[_N] += exps[_S] // 2
    exps[_S] %= 2
    if max(exps) > MAX_EXPONENT:
        raise ExponentOverflow(f"exponent above {MAX_EXPONENT} in {tuple(exps)}")
    return sum(e << shift for e, shift in zip(exps, _SHIFTS))


def _shift(name: str) -> int:
    """Offset of an indeterminate's packed field; rejects unknown names."""
    if name not in _VAR_INDEX:
        raise ExprSyntaxError(f"unknown indeterminate {name!r}; expected one of {VARIABLES}")
    return _SHIFTS[_VAR_INDEX[name]]


def _unpack(key: int) -> tuple:
    return tuple(key >> shift & MAX_EXPONENT for shift in _SHIFTS)


def _mono_min(a: int, b: int) -> int:
    # fieldwise minimum: with the guards set, a field of a - b keeps its guard
    # exactly where a's exponent >= b's; mask spans those fields' exponents
    t = ((a | _GUARDS) - b) & _GUARDS
    mask = t - (t >> (_WIDTH - 1))
    return (b & mask) | (a & ~mask)


def _used(keys) -> list:
    """Indeterminates occurring in any of the packed monomials, in order."""
    seen = reduce(or_, keys, 0)
    return [v for v, shift in zip(VARIABLES, _SHIFTS) if seen >> shift & MAX_EXPONENT]


def _poly(terms: dict) -> "Poly":
    # wrap a dict already keyed by reduced packed monomials
    poly = Poly.__new__(Poly)
    poly.terms = terms
    return poly


class Poly:
    """Multivariate polynomial over Z in the fixed indeterminate set.

    ``terms`` maps packed monomials (see the module docs) to nonzero
    ``int`` coefficients.  The constructor takes exponent tuples, reduces
    them under s*s -> n and packs them; ``monomials`` reads them back as
    tuples.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[tuple, int]] = None):
        clean: dict = {}
        for exps, coeff in (terms or {}).items():
            if type(coeff) is not int:
                raise TypeError(f"a Poly coefficient is an int, not {coeff!r}")
            key = _pack(exps)
            acc = clean.get(key, 0) + coeff
            if acc:
                clean[key] = acc
            elif key in clean:
                del clean[key]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: int) -> "Poly":
        if type(value) is not int:
            raise TypeError(f"a Poly coefficient is an int, not {value!r}")
        return _poly({0: value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return _poly({1 << _shift(name): 1})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def variables(self) -> frozenset:
        return frozenset(_used(self.terms))

    def monomials(self) -> dict:
        """{exponent tuple: coefficient}, largest monomial first."""
        return {_unpack(k): self.terms[k] for k in sorted(self.terms, reverse=True)}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps, 0) + coeff
            if acc:
                out[exps] = acc
            elif exps in out:
                del out[exps]
        return _poly(out)

    def __neg__(self) -> "Poly":
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = e1 + e2
                if key & _S_SQUARE:
                    key += _N_UNIT - _S_SQUARE
                acc = get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        if reduce(or_, out, 0) & _GUARDS:
            raise ExponentOverflow(f"a product has an exponent above {MAX_EXPONENT}")
        return _poly(out)

    def scale(self, factor: int) -> "Poly":
        if not factor:
            return Poly()
        return _poly({e: c * factor for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise InputError("negative power of a polynomial")
        if not exponent:
            return Poly.constant(1)
        # start from the lowest set bit, and square only while a bit is
        # left: a square past the last bit could overflow a field that the
        # result itself fits in
        base = self
        while not exponent & 1:
            base, exponent = base * base, exponent >> 1
        out, exponent = base, exponent >> 1
        while exponent:
            base = base * base
            if exponent & 1:
                out = out * base
            exponent >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def leading(self) -> tuple:
        """(packed monomial, coefficient) of the lex-largest monomial."""
        key = max(self.terms)
        return key, self.terms[key]

    def degree(self, name: str) -> int:
        shift = _shift(name)
        return max((k >> shift & MAX_EXPONENT for k in self.terms), default=0)

    def coefficients_in(self, name: str) -> dict:
        """Split into {power: coefficient Poly} with respect to one variable."""
        shift = _shift(name)
        buckets: dict = {}
        for key, coeff in self.terms.items():
            power = key >> shift & MAX_EXPONENT
            buckets.setdefault(power, {})[key - (power << shift)] = coeff
        return {p: _poly(t) for p, t in buckets.items()}

    def split_s(self) -> tuple:
        """Write the polynomial as A + B*s with A, B s-free."""
        a_terms: dict = {}
        b_terms: dict = {}
        for key, coeff in self.terms.items():
            if key & 1:
                b_terms[key - 1] = coeff
            else:
                a_terms[key] = coeff
        return _poly(a_terms), _poly(b_terms)

    def primitive(self) -> "Poly":
        if not self.terms:
            return self
        return _primitive((self,), self.leading()[1] < 0)[0]

    def evaluate(self, bindings: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for key, coeff in self.terms.items():
            value = coeff
            for name, e in zip(VARIABLES, _unpack(key)):
                if not e:
                    continue
                if name not in bindings:
                    raise UnboundIndeterminate(f"no value supplied for indeterminate {name!r}")
                value *= bindings[name] ** e
            total += value
        return total

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, reverse=True):
            coeff = self.terms[key]
            mono = "*".join(
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(VARIABLES, _unpack(key))
                if e
            )
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


def _primitive(polys: tuple, negate: bool) -> tuple:
    """The polys divided by the gcd of all their coefficients, so that these
    are jointly coprime, and negated as well when ``negate`` is set."""
    # a list, not a generator: CPython 3.11 resizes a tuple unpacked from a
    # generator, and its tuple free lists then keep megabytes of them
    g = gcd(*[c for p in polys for c in p.terms.values()])
    if g == 1 and not negate:
        return polys
    if negate:
        g = -g
    return tuple(_poly({e: c // g for e, c in p.terms.items()}) for p in polys)


# ---------------------------------------------------------------------------
# multivariate GCD (s-free polynomials only)


def _div_exact(num: Poly, den: Poly) -> Poly:
    """Exact multivariate division; raises ArithmeticError on a remainder
    or a quotient coefficient that is no integer.  For a primitive den that
    divides num there is none (Gauss's lemma).  One rest dict is reduced in
    place: a quotient term cancels rest's lead and subtracts its multiple
    of den's other terms, folding s*s -> n as ``Poly.__mul__`` does."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if den.is_one() or num.is_zero():
        return num
    den_lm, den_lc = den.leading()
    if len(den.terms) == 1:
        out: dict = {}
        for key, coeff in num.terms.items():
            diff = key - den_lm
            out[diff], inexact = divmod(coeff, den_lc)
            if diff & _GUARDS or inexact:
                raise ArithmeticError("inexact polynomial division")
        return _poly(out)
    tail = [(key, coeff) for key, coeff in den.terms.items() if key != den_lm]
    quotient, rest = {}, dict(num.terms)
    get = rest.get
    while rest:
        lm = max(rest)
        diff = lm - den_lm
        coeff, inexact = divmod(rest.pop(lm), den_lc)
        if diff & _GUARDS or inexact:
            raise ArithmeticError("inexact polynomial division")
        quotient[diff] = coeff
        for key, c in tail:
            key += diff
            if key & _S_SQUARE:
                key += _N_UNIT - _S_SQUARE
            if key & _GUARDS:
                raise ExponentOverflow(f"a product has an exponent above {MAX_EXPONENT}")
            acc = get(key, 0) - coeff * c
            if acc:
                rest[key] = acc
            elif key in rest:
                del rest[key]
    return _poly(quotient)


# exponents k of the Mersenne primes 2^k - 1 from 2^61 - 1 on (OEIS A000043)
_MERSENNE = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
             11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091, 756839,
             859433, 1257787, 1398269, 2976221, 3021377)


def _univariate_gcd(a: Poly, b: Poly, shift: int) -> Poly:
    """gcd of integer primitive inputs in the one variable at ``shift``, from
    their images in GF(p) for the Mersenne primes p (Brown 1971, J. ACM 18).
    Where neither lead vanishes mod p, the images' gcd is a multiple of the
    gcd's image: a constant one answers 1.  Else the monic image is scaled
    to lead with a multiple of lc(gcd): lead, the gcd of the leads, once
    p > 2 lead, and below that the lcm of the denominators rational
    reconstruction finds.  Lifted to (-p/2, p/2), its primitive part is the
    gcd if it divides a and b, as it then divides the gcd and has at least
    its degree; an unlucky p, or one too small, moves on to the next."""
    lead = gcd(a.leading()[1], b.leading()[1])
    dense = [[q.terms.get(i << shift, 0) for i in range((max(q.terms) >> shift) + 1)]
             for q in (a, b)]
    for p in ((1 << k) - 1 for k in _MERSENNE):
        f, g = ([c % p for c in q] for q in dense)
        if not (f[-1] and g[-1]):
            continue
        while g:
            inverse = pow(g[-1], -1, p)
            while len(f) >= len(g):
                factor = f[-1] * inverse % p
                for i, x in enumerate(g, len(f) - len(g)):
                    f[i] = (f[i] - factor * x) % p
                while f and not f[-1]:
                    f.pop()
            f, g = g, f
        if len(f) == 1:
            return Poly.constant(1)
        root = isqrt(p // 2)  # inverse is that of f's lead: f is Euclid's last divisor
        # x = u/v mod p, |u| and v < sqrt(p/2): k/v is the nearest fraction to x/p, u = xv - kp
        multiple = lead if p > 2 * lead else lcm(*(
            Fraction(x * inverse % p, p).limit_denominator(root).denominator for x in f if x))
        scale = multiple * inverse % p  # a multiple of lc(gcd) over f's lead
        lifted = {i << shift: c - p if 2 * c > p else c
                  for i, c in enumerate(x * scale % p for x in f) if c}
        candidate = _poly(lifted).primitive()
        with suppress(ArithmeticError):
            _div_exact(a, candidate)
            _div_exact(b, candidate)
            return candidate
    raise ScalarAlgebraError(f"no one-variable gcd image up to the prime 2^{_MERSENNE[-1]} - 1")


def _over(poly: Poly, shift: int) -> dict:
    # {monomial free of the variable at ``shift``: its coefficient in that variable}
    out: dict = {}
    for key, coeff in poly.terms.items():
        power = key & (MAX_EXPONENT << shift)
        out.setdefault(key - power, {})[power] = coeff
    return {k: _poly(t) for k, t in out.items()}


def _at(poly: Poly, shift: int, point: int) -> Poly:
    # the poly with the variable at ``shift`` set to an integer
    out: dict = {}
    for key, coeff in poly.terms.items():
        e = key >> shift & MAX_EXPONENT
        key -= e << shift
        out[key] = out.get(key, 0) + coeff * point ** e
    return _poly({k: c for k, c in out.items() if c})


def _brown_gcd(a: Poly, b: Poly, shift: int) -> Poly:
    """gcd of integer primitive inputs by evaluation and interpolation in
    the variable y at ``shift`` (Brown 1971, J. ACM 18).

    With the contents in Z[y] divided out, G = gcd(a, b) is y-primitive and
    its leading coefficient in the other variables divides gamma in Z[y]:
    the primitive gcd of a's and b's times the integer content they share.
    At y = 0, 1, -1, 2, ... where neither of those vanishes, the images' gcd
    is a multiple of G(y), and G(y) up to a constant if it has G's leading
    monomial: scaled to lead with gamma(y), a value of H = gamma/lc(G) * G,
    which is integral because lc(G) divides gamma.  Newton interpolation
    skips an unlucky image, one with a larger leading monomial or a lead
    that does not divide gamma(y), and restarts on a smaller leading
    monomial.  Its divided differences are integers, an integer
    polynomial's at integer nodes; one that is not shows that every image
    kept so far was unlucky, and a smaller leading monomial will come.
    When a point adds nothing, H's y-primitive part is G if it divides a
    and b, as it then divides G and has G's leading monomial.  A constant
    image means G = 1."""
    parts = []
    for p in (a, b):
        coeffs = _over(p, shift)
        content = reduce(poly_gcd, coeffs.values())
        parts.append((content, _div_exact(p, content), _div_exact(coeffs[max(coeffs)], content)))
    (cont_a, a, lc_a), (cont_b, b, lc_b) = parts
    scalar = poly_gcd(cont_a, cont_b)
    gamma = poly_gcd(lc_a, lc_b).scale(gcd(*lc_a.terms.values(), *lc_b.terms.values()))
    mono = _GUARDS  # above every monomial
    for i in count():
        point = (i + 1) // 2 if i % 2 else -(i // 2)
        if not (_at(lc_a, shift, point) and _at(lc_b, shift, point)):
            continue
        image = poly_gcd(_at(a, shift, point), _at(b, shift, point))
        lm, lc = image.leading()
        if not lm:
            return scalar
        lead = _at(gamma, shift, point).terms[0]
        if lm > mono or lead % lc:
            continue
        value = image.scale(lead // lc)
        with suppress(ArithmeticError):
            if lm < mono:
                interpolant, mono, modulus = value, lm, Poly.constant(1)
            elif (change := value - _at(interpolant, shift, point)).terms:
                step = _div_exact(change, _at(modulus, shift, point))
                interpolant = interpolant + step * modulus
            else:
                h = interpolant.primitive()
                candidate = _div_exact(h, reduce(poly_gcd, _over(h, shift).values()))
                _div_exact(a, candidate)
                _div_exact(b, candidate)
                return (scalar * candidate).primitive()
        modulus = modulus * (_poly({1 << shift: 1}) + Poly.constant(-point))


MAX_HEU_BITS = 1 << 16  # bound on radix product x bits(xi) of a heuristic gcd image


def _heu_gcd(a: Poly, b: Poly) -> Optional[Poly]:
    """GCDHEU (Char, Geddes & Gonnet 1989) on integer primitive inputs, or
    None.  A Kronecker substitution (radix deg + 1 per used variable, n most
    significant) maps a and b to integers at up to six growing xi from
    2 min(|a|, |b|) + 29, each coprime to a's lowest coefficient; the
    balanced xi-adic digits of their integer gcd read back one candidate.
    For such xi a candidate dividing both inputs is their gcd, and nothing
    else is accepted.  No image above MAX_HEU_BITS bits is built."""
    keys = list(chain(a.terms, b.terms))
    shifts = [_shift(v) for v in _used(keys)]
    radices = [max(k >> shift & MAX_EXPONENT for k in keys) + 1 for shift in shifts]
    weights = [prod(radices[i + 1:]) for i in range(len(radices))]
    xi = 2 * min(max(map(abs, p.terms.values())) for p in (a, b)) + 29
    common = _mono_min(reduce(_mono_min, a.terms), reduce(_mono_min, b.terms))
    low = a.terms[min(a.terms)]

    def image(poly):
        return sum(c * xi ** sum((k >> sh & MAX_EXPONENT) * w for sh, w in zip(shifts, weights))
                   for k, c in poly.terms.items())

    for _ in range(6):
        while gcd(xi, low) != 1:
            xi += 1
        if prod(radices) * xi.bit_length() > MAX_HEU_BITS:
            return None
        value, terms = gcd(image(a), image(b)), {}
        for p in range(prod(radices)):
            value, digit = divmod(value, xi)
            if 2 * digit > xi:
                value, digit = value + 1, digit - xi
            if digit:
                terms[sum(p // w % r << s for w, r, s in zip(weights, radices, shifts))] = digit
            if not value:
                break
        # digits past the radix box have no monomial, and a power of xi in
        # the gcd of the images can be spurious: the candidate's monomial
        # factor is the one the answer implies instead
        if not value:
            lo = reduce(_mono_min, terms)
            candidate = _poly({k - lo + common: c for k, c in terms.items()}).primitive()
            with suppress(ArithmeticError):
                _div_exact(a, candidate)
                _div_exact(b, candidate)
                return candidate
        xi = xi * isqrt(isqrt(xi)) * 3 // 2
    return None


def poly_gcd(first: Poly, second: Poly) -> Poly:
    """Primitive GCD in Q[vars] of s-free inputs, on one path: closed forms
    for monomials and constants, integer primitive parts, then the heuristic
    GCD (``_heu_gcd``).  Where that declines, Brown's evaluation and
    interpolation in the variable of least degree (``_brown_gcd``), or in one
    variable ``_univariate_gcd``'s images mod Mersenne primes."""
    if first.is_zero():
        return second.primitive()
    if second.is_zero():
        return first.primitive()
    if len(first.terms) == 1 or len(second.terms) == 1:
        # a monomial's divisors are monomials: the answer is the smallest
        # power of each variable over all terms (a constant input gives 1)
        return _poly({reduce(_mono_min, chain(first.terms, second.terms)): 1})
    # the answer is primitive, so the integer primitive parts can stand in
    # for the inputs from here on
    first, second = first.primitive(), second.primitive()
    heuristic = _heu_gcd(first, second)
    if heuristic is not None:
        return heuristic
    # y of least degree (first in VARIABLES on ties) keeps the interpolation short
    used = _used(chain(first.terms, second.terms))
    name = min(used, key=lambda v: max(first.degree(v), second.degree(v)))
    fallback = _brown_gcd if len(used) > 1 else _univariate_gcd
    return fallback(first, second, _shift(name))


# ---------------------------------------------------------------------------
# rational expressions


def _gcd_against_sfree(num: Poly, den: Poly) -> Poly:
    """gcd of a possibly s-carrying polynomial with an s-free one.  The
    denominator goes first: it is often small or constant, and then the gcd
    ends in a divisibility test, not a gcd of the numerator's two halves."""
    a, b = num.split_s()
    common = poly_gcd(den, a)
    return poly_gcd(common, b) if b.terms else common


def _s_free(*polys) -> bool:
    return not any(key & 1 for p in polys for key in p.terms)


def _lowest_terms(num: Poly, den: Poly) -> "RationalExpr":
    """num/den already in lowest terms over an s-free den: only the joint
    content and the sign of den's leading coefficient are normalised.  The
    ring is Q[s, vars] (n = s^2), but canonical dens are s-free, so 1+s, a
    factor of n-1, stays a numerator, and a product of two s-carrying
    numerators need not be coprime: (1+s)*((1-s)/(n-1)) = (1-n)/(n-1).
    With one s-free factor B it is, once cross-cancelled: an s-free prime
    dividing both halves of A*B divides B or both halves of A, and so
    shares a factor with a canonical operand or a cross-cancelled pair.
    A Henrici sum is coprime with s too: an s-free prime divides A + B*s
    exactly when it divides A and B.  A power N^k/D^k can share only a power
    of n: a prime p of Q[n, vars] divides N^k but not N only if p(s^2, ...)
    has a repeated factor in Q[s, vars], and n = s*s is the one such prime."""
    if not num.terms:
        return RationalExpr(num)
    out = RationalExpr.__new__(RationalExpr)
    out.num, out.den = _primitive((num, den), den.leading()[1] < 0)
    return out


class RationalExpr:
    """A multivariate rational function in canonical form (see module docs)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly.constant(1)
        if den.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if num.is_zero():
            self.num = Poly()
            self.den = Poly.constant(1)
            return
        den_a, den_b = den.split_s()
        if not den_b.is_zero():
            # clear s from the denominator with the conjugate; the norm
            # A^2 - n*B^2 cannot vanish while n stays symbolic
            s = Poly.variable("s")
            conj = den_a - den_b * s
            num = num * conj
            den = den * conj
        common = _gcd_against_sfree(num, den)
        num = _div_exact(num, common)
        den = _div_exact(den, common)
        # joint content: integer coefficients overall, coprime across the
        # fraction, denominator's leading coefficient positive
        self.num, self.den = _primitive((num, den), den.leading()[1] < 0)

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value: RationalLike) -> "RationalExpr":
        value = as_rational(value)
        return _lowest_terms(Poly.constant(value.numerator), Poly.constant(value.denominator))

    @classmethod
    def variable(cls, name: str) -> "RationalExpr":
        return cls(Poly.variable(name))

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return not self.variables()

    def as_rational(self) -> Fraction:
        if not self.is_constant():
            raise UnboundIndeterminate(f"{self} is not constant")
        return Fraction(self.num.terms.get(0, 0), self.den.terms[0])

    def variables(self) -> frozenset:
        return self.num.variables() | self.den.variables()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalExpr.constant(other)
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- field operations -------------------------------------------------

    @staticmethod
    def _coerce(value) -> "RationalExpr":
        if isinstance(value, RationalExpr):
            return value
        if isinstance(value, (int, Fraction)):
            return RationalExpr.constant(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # add over the lcm of the denominators so a shared factor never
        # inflates the numerator handed to canonical reduction
        shared = poly_gcd(self.den, other.den)
        self_co = _div_exact(self.den, shared)
        other_co = _div_exact(other.den, shared)
        num = self.num * other_co + other.num * self_co
        # Henrici: num can share a factor of the lcm only within shared
        common = _gcd_against_sfree(num, shared)
        return _lowest_terms(_div_exact(num, common), self_co * _div_exact(other.den, common))

    __radd__ = __add__

    def __neg__(self):
        out = RationalExpr.__new__(RationalExpr)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other is self:
            return self ** 2
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # cancel across the two fractions before multiplying out
        a_num, a_den = self.num, self.den
        b_num, b_den = other.num, other.den
        g = _gcd_against_sfree(a_num, b_den)
        a_num = _div_exact(a_num, g)
        b_den = _div_exact(b_den, g)
        g = _gcd_against_sfree(b_num, a_den)
        b_num = _div_exact(b_num, g)
        a_den = _div_exact(a_den, g)
        build = _lowest_terms if _s_free(a_num) or _s_free(b_num) else RationalExpr
        return build(a_num * b_num, a_den * b_den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        build = _lowest_terms if _s_free(other.num) else RationalExpr
        return self * build(*_reciprocal(other.num, other.den))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return RationalExpr.constant(1) / self ** (-exponent)
        num, den = self.num ** exponent, self.den ** exponent
        # the one factor N^k and D^k can share is n^t (see _lowest_terms)
        drop = min(key >> _SHIFTS[_N] for key in chain(num.terms, den.terms)) * _N_UNIT
        if drop:
            num = _poly({key - drop: c for key, c in num.terms.items()})
            den = _poly({key - drop: c for key, c in den.terms.items()})
        return _lowest_terms(num, den)

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        if self.is_constant():
            return str(self.as_rational())
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalExpr({self})"


ExprLike = Union[RationalExpr, int, Fraction, str]


def expr(value: ExprLike) -> RationalExpr:
    """Coerce an int, Fraction, infix string or RationalExpr to an expression."""
    if isinstance(value, RationalExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalExpr.constant(value)
    if isinstance(value, str):
        return parse_expr(value)
    raise TypeError(f"cannot interpret {value!r} as an expression")


def normalize(value: RationalExpr) -> RationalExpr:
    """Recompute the canonical form (idempotent by construction)."""
    return RationalExpr(value.num, value.den)


def eval_at(value: RationalExpr, bindings: Mapping[str, RationalLike]) -> Fraction:
    """Exact value at a rational point; every occurring indeterminate must
    be bound and the denominator must not vanish there."""
    point = {name: as_rational(v) for name, v in bindings.items()}
    den = value.den.evaluate(point)
    if den == 0:
        at = ", ".join(f"{name} = {v}" for name, v in point.items())
        raise DivisionByZero(f"denominator of {value} vanishes at {at}")
    return value.num.evaluate(point) / den


def substitute(value: RationalExpr, name: str, replacement: ExprLike) -> RationalExpr:
    """Substitute an expression for one indeterminate: each side of the
    fraction is evaluated at it by Horner's rule in the field."""
    replacement = expr(replacement)

    def horner(poly):
        coeffs = poly.coefficients_in(name)
        out = RationalExpr.constant(0)
        for k in range(max(coeffs, default=0), -1, -1):
            out = out * replacement + RationalExpr(coeffs.get(k, Poly()))
        return out

    den = horner(value.den)
    if den.is_zero():
        raise DivisionByZero(
            f"denominator of {value} vanishes identically after {name} substitution"
        )
    return horner(value.num) / den


# ---------------------------------------------------------------------------
# linear solver


class LinearSolution(Record):
    """Outcome of solving a degree-<=1 equation ``expression = 0``.

    ``unique``      one root, valid where the side condition (the leading
                    coefficient) does not vanish;
    ``identity``    the expression is identically zero;
    ``no_solution`` the expression is nonzero and free of the variable.
    """

    kind: str
    root: Optional[RationalExpr] = None
    side_condition: Optional[RationalExpr] = None

    @property
    def is_unique(self) -> bool:
        return self.kind == "unique"

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    def __str__(self) -> str:
        if self.kind == "unique":
            return str(self.root)
        return "any value" if self.kind == "identity" else "no solution"


def solve_linear(value: RationalExpr, name: str) -> LinearSolution:
    """Solve ``value = 0`` for one indeterminate appearing at degree <= 1.

    Zero-ness of a fraction is decided by its numerator, so only the
    numerator polynomial is examined.
    """
    coeffs = value.num.coefficients_in(name)
    degree = max(coeffs, default=0)
    if degree >= 2:
        raise NonlinearInVariable(f"{value} has degree {degree} in {name}")
    linear = coeffs.get(1, Poly())
    constant = coeffs.get(0, Poly())
    if linear.is_zero():
        return LinearSolution("identity" if constant.is_zero() else "no_solution")
    root = RationalExpr(constant).__neg__() / RationalExpr(linear)
    return LinearSolution("unique", root, RationalExpr(linear))


# ---------------------------------------------------------------------------
# parsing


def parse_expr(text: str) -> RationalExpr:
    """Parse the deterministic infix form produced by ``str(expr)``.

    Grammar: ``+ - * / ^`` with usual precedence, parentheses, integer
    literals and the fixed indeterminate names.  Parentheses and unary signs
    nest at most ``_MAX_NESTING`` deep, an exponent literal is at most
    ``MAX_EXPONENT``, the largest exponent a packed monomial holds, and an
    integer literal past the interpreter's digit limit is a syntax error.
    Every product and power is bounded before it is formed: an estimate of
    its terms times coefficient bits must not exceed ``MAX_POWER_BITS``, with
    a*b at most min(t_a*t_b, prod_v (deg_a v + deg_b v + 1)) terms of
    bits_a + bits_b + ceil(log2 min(t_a, t_b)) bits and p^k at most
    C(t+k-1, k) terms of k*(bits + ceil(log2 t)) bits (for a single term, the
    bits of lc(p)^k), and the estimates of one parse sum to at most
    ``MAX_PARSE_BITS``.  The parser carries (numerator, denominator)
    polynomial pairs through plain ring arithmetic and canonicalises once.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, text)
    num, den = parser.parse_sum()
    parser.expect_end()
    return RationalExpr(num, den)


def _tokenize(text: str) -> list:
    tokens = []
    for token in _TOKEN.findall(text):
        head = token[0]
        if head.isdecimal():
            tokens.append(("int", token))
        elif head in "+-*/^()":
            tokens.append((head, token))
        elif head.isalpha() or head == "_":
            tokens.append(("name", token))
        else:  # a stray character, or a numeral such as '²' that \w holds
            raise ExprSyntaxError(f"unexpected character {head!r} in {text!r}")
    return tokens


_MAX_NESTING = 100
MAX_POWER_BITS = 1 << 20  # bound on terms x coefficient bits of a parsed product or power
MAX_PARSE_BITS = 2 * MAX_POWER_BITS  # bound on their sum over one parse
_UNIT = Poly.constant(1)  # every atom's denominator
_TOKEN = re.compile(r"\s*(\d+|[^\W\d]\w*|[-+*/^()]|\S)")  # one token after any space


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.kinds = [kind for kind, _ in tokens] + [None]
        self.pos = 0
        self.text = text
        self.depth = 0
        self.spent = 0  # terms x bits of the products and powers formed so far

    def peek(self):
        return self.kinds[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_end(self):
        if self.pos != len(self.tokens):
            raise ExprSyntaxError(f"trailing input in {self.text!r}")

    def mul(self, a: Poly, b: Poly) -> Poly:
        if b.is_one():  # as most denominators are
            return a
        (ta, ba), (tb, bb) = _size(a), _size(b)
        terms, bits = ta * tb, ba + bb + (min(ta, tb) - 1).bit_length()
        if terms * bits > MAX_POWER_BITS:  # the degree box may hold fewer
            terms = min(terms, prod(a.degree(v) + b.degree(v) + 1
                                    for v in _used(chain(a.terms, b.terms))))
        self.bound("product", terms, bits)
        return a * b

    def power(self, p: Poly, k: int) -> Poly:
        if p.is_one():  # charged as the power of a one-term, one-bit poly
            self.bound("power", 1, k)
            return p
        t, bits = _size(p)
        if t:
            self.bound("power", comb(t + k - 1, k), k * (bits + (t - 1).bit_length()))
        return p ** k

    def bound(self, what, terms, bits):
        if terms * bits > MAX_POWER_BITS:
            raise ExprSyntaxError(f"{what} above {MAX_POWER_BITS} bits in {self.text!r}")
        self.spent += terms * bits
        if self.spent > MAX_PARSE_BITS:
            raise ExprSyntaxError(f"products and powers above {MAX_PARSE_BITS} bits "
                                  f"in {self.text!r}")

    # values are (numerator, denominator) Poly pairs; a denominator is never
    # zero, because a reduced A + B*s vanishes only when A = B = 0 and every
    # divisor's numerator is checked

    def parse_sum(self):
        num, den = self.parse_product()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs_num, rhs_den = self.parse_product()
            if op == "-":
                rhs_num = -rhs_num
            if den == rhs_den:
                num = num + rhs_num
            else:
                num = self.mul(num, rhs_den) + self.mul(rhs_num, den)
                den = self.mul(den, rhs_den)
        return num, den

    def parse_product(self):
        num, den = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs_num, rhs_den = self.parse_unary()
            if op == "/":
                rhs_num, rhs_den = _reciprocal(rhs_num, rhs_den)
            num, den = self.mul(num, rhs_num), self.mul(den, rhs_den)
        return num, den

    def parse_unary(self):
        # every nesting level (a parenthesis or a unary sign) passes here
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {_MAX_NESTING} levels")
        if self.peek() in ("-", "+"):
            sign = self.take()[0]
            num, den = self.parse_unary()
            value = (-num if sign == "-" else num), den
        else:
            value = self.parse_power()
        self.depth -= 1
        return value

    def parse_power(self):
        num, den = self.parse_atom()
        if self.peek() == "^":
            self.take()
            negative = False
            while self.peek() == "-":
                self.take()
                negative = not negative
            if self.peek() != "int":
                raise ExprSyntaxError(f"exponent must be an integer in {self.text!r}")
            text = self.take()[1].lstrip("0") or "0"
            if len(text) > len(str(MAX_EXPONENT)) or int(text) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent above {MAX_EXPONENT} in {self.text!r}")
            exponent = int(text)
            if negative and exponent:
                num, den = _reciprocal(num, den)
            return self.power(num, exponent), self.power(den, exponent)
        return num, den

    def parse_atom(self):
        if self.peek() == "(":
            self.take()
            value = self.parse_sum()
            if self.peek() != ")":
                raise ExprSyntaxError(f"missing ')' in {self.text!r}")
            self.take()
            return value
        if self.peek() == "int":
            text = self.take()[1]
            try:
                value = int(text)
            except ValueError:  # past the interpreter's limit on digits
                raise ExprSyntaxError(
                    f"integer literal of {len(text)} digits in {self.text!r}") from None
            return Poly.constant(value), _UNIT
        if self.peek() == "name":
            return Poly.variable(self.take()[1]), _UNIT
        raise ExprSyntaxError(f"could not parse {self.text!r}")


def _size(poly: Poly) -> tuple:
    # (terms, largest coefficient bit length) of an integer polynomial
    terms = poly.terms
    return len(terms), max(map(int.bit_length, terms.values())) if terms else 0


def _reciprocal(num: Poly, den: Poly) -> tuple:
    if num.is_zero():
        raise DivisionByZero("division by the zero expression")
    return den, num


# convenient named generators (``lambda`` is a keyword, hence LAM)
N = RationalExpr.variable("n")
KAPPA = RationalExpr.variable("kappa")
LAM = RationalExpr.variable("lambda")
R = RationalExpr.variable("r")
MU = RationalExpr.variable("mu")
A = RationalExpr.variable("a")
C = RationalExpr.variable("c")
A0 = RationalExpr.variable("a0")
A1 = RationalExpr.variable("a1")
S = RationalExpr.variable("s")
