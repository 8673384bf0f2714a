"""Exact scalar algebra: normalization, evaluation, solving, s-extension."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nkt.scalar_algebra import (
    A,
    A0,
    A1,
    C,
    DivisionByZero,
    KAPPA,
    N,
    NonlinearInVariable,
    Poly,
    RationalExpr,
    S,
    UnboundIndeterminate,
    VARIABLES,
    ZeroDenominator,
    eval_at,
    expr,
    normalize,
    parse_expr,
    poly_gcd,
    solve_linear,
    sqrt_expr,
    substitute,
)

# ---------------------------------------------------------------------------
# pinned examples


def test_annihilation_by_zero():
    assert ((2 * N - 2 + KAPPA) * 0).is_zero()


def test_factor_cancellation():
    assert (N ** 2 - 1) / (N - 1) == N + 1


def test_s_square_reduction():
    assert (S * S - N).is_zero()
    assert S ** 3 == N * S


def test_zero_denominator_raises():
    with pytest.raises(ZeroDenominator):
        RationalExpr((N - N).num, (N - N).num)
    with pytest.raises(DivisionByZero):
        N / (S * S - N)


def test_eval_scalar_curvature_value():
    value = eval_at(2 * N * (2 * N - 2 + KAPPA), {"n": 1, "kappa": Fraction(3, 4)})
    assert value == Fraction(3, 2)


def test_eval_edge_cases():
    assert eval_at((N - 1) / N, {"n": 1}) == 0
    with pytest.raises(DivisionByZero):
        eval_at(1 / (2 * N - 1), {"n": Fraction(1, 2)})
    with pytest.raises(UnboundIndeterminate):
        eval_at(N + KAPPA, {"n": 2})


def test_solve_linear_kinds():
    zero = expr(0)
    assert solve_linear(zero, "kappa").is_identity
    assert solve_linear(N + 1, "kappa").kind == "no_solution"
    with pytest.raises(NonlinearInVariable):
        solve_linear(KAPPA ** 2 - 1, "kappa")


def test_solve_linear_concircular_and_conharmonic():
    # the two flagship roots of the flatness constraint
    concircular = KAPPA - (2 * N - 2 + KAPPA) / (2 * N + 1)
    sol = solve_linear(concircular, "kappa")
    assert sol.is_unique and sol.root == (N - 1) / N

    conharmonic = -(2 * N - 2 + KAPPA) / (2 * N - 1)
    sol = solve_linear(conharmonic, "kappa")
    assert sol.is_unique and sol.root == 2 - 2 * N


def test_side_condition_reported():
    e = (A0 + (2 * N - 1) * A1) * (2 * N * KAPPA - 2 * N + 2)
    sol = solve_linear(e, "kappa")
    assert sol.is_unique
    assert sol.root == (N - 1) / N
    assert sol.side_condition == 2 * N * (A0 + (2 * N - 1) * A1)


def test_parse_render_round_trip():
    samples = [
        (2 * N * KAPPA - 2 * N + 2) / (2 * N + 1),
        1 / (2 * N),
        (A0 + 4 * N * A1) / (A1 * (2 * N + 1)),
        S / N,
        -KAPPA,
        expr(Fraction(-3, 7)),
    ]
    for e in samples:
        assert parse_expr(str(e)) == e


def _assert_square_minus_self(text):
    # binding n = k^2 and s = k is a ring homomorphism, so e*e - e and its
    # parse_expr(str(...)) round trip must evaluate as the Fractions do
    e = parse_expr(text)
    value = e * e - e
    again = parse_expr(str(value))
    for k, kappa, a, c in [(2, 3, 5, 7), (3, Fraction(1, 2), 2, -1),
                           (5, -2, Fraction(3, 4), 1)]:
        point = {"n": Fraction(k * k), "s": Fraction(k), "kappa": Fraction(kappa),
                 "a": Fraction(a), "c": Fraction(c)}
        direct = eval_at(e, point)
        assert eval_at(value, point) == direct * direct - direct
        assert eval_at(again, point) == direct * direct - direct
    assert again == value


def test_pseudo_remainder_keeps_gcd_division_exact():
    # the remainder sequence skips degrees here; the pseudo-remainder must
    # still carry lc^(deg num - deg den + 1) for the subresultant division
    _assert_square_minus_self(
        "(-30*n*kappa*a*s - 120*n*kappa + 15*kappa*a*c*s + 2*kappa*a*s"
        " + 60*kappa*c + 8*kappa + 6*a^2*s + 24*a)/(12*n*a^2 - 192)"
    )


def test_heavy_gcd_entry_and_its_round_trip():
    # the heavy entry of the benchmark corpus: while the canonicaliser took
    # the gcd of the numerator's two s-halves before the denominator, e*e - e
    # took seconds and reading its 75-term result back took minutes
    _assert_square_minus_self(
        "(90*n^2*a - 135*n^2*c + 108*n*kappa*c + 10*n*a^2*s - 15*n*a*c*s - 30*n*a"
        " + 45*n*c + 216*n + 12*kappa*a*c*s - 36*kappa*c + 24*a*s - 72)"
        "/(162*n^2 - 2*n*a^2 - 108*n + 18)"
    )


def test_unknown_indeterminate_rejected():
    from nkt.scalar_algebra import ExprSyntaxError

    with pytest.raises(ExprSyntaxError):
        parse_expr("x + 1")


def test_substitute_scalar_curvature_symbol():
    from nkt.scalar_algebra import R

    f = (KAPPA + R) / (N + 1)
    got = substitute(f, "r", 2 * N * (2 * N - 2 + KAPPA))
    assert got == (KAPPA + 2 * N * (2 * N - 2 + KAPPA)) / (N + 1)


def test_division_in_s_extension():
    # (1 + c) / |1 - c| with c = (s-1)^2/(n-1) collapses to s
    c = (S - 1) ** 2 / (N - 1)
    assert (1 + c) / ((2 * S - 2) / (N - 1)) == S
    assert 1 / (S / N) == S


def test_sqrt_expr_patterns():
    assert sqrt_expr(expr(Fraction(1, 4))) == expr(Fraction(1, 2))
    assert sqrt_expr(1 / N) == S / N
    assert sqrt_expr(expr(2)) is None
    root = sqrt_expr((1 - (S - 1) ** 2 / (N - 1)) ** 2)
    assert root is not None and root ** 2 == (1 - (S - 1) ** 2 / (N - 1)) ** 2


# ---------------------------------------------------------------------------
# randomized properties

_VAR_POOL = (N, KAPPA, A, C, S)


@st.composite
def polys(draw, pool=_VAR_POOL):
    terms = draw(st.integers(min_value=1, max_value=4))
    value = expr(0)
    for _ in range(terms):
        coeff = Fraction(
            draw(st.integers(min_value=-5, max_value=5)),
            draw(st.integers(min_value=1, max_value=3)),
        )
        term = expr(coeff)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            term = term * draw(st.sampled_from(pool))
        value = value + term
    return value


@st.composite
def exprs(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero()))
    return num / den


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_normalize_idempotent(e):
    assert normalize(normalize(e)) == normalize(e) == e


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_equality_of_equal_constructions(a, b, c):
    # distributivity-built pairs must land on the same canonical form
    assert (a + b) * c == a * c + b * c


def _random_point(rng):
    k = rng.randint(1, 5)
    return {
        "n": Fraction(k * k),
        "kappa": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        "a": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        "c": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        "s": Fraction(k),  # consistent with s^2 = n
    }


def test_ring_laws_at_1000_points():
    rng = random.Random(20260809)
    pairs = []
    for _ in range(10):
        e1 = sum((expr(random.Random(rng.random()).randint(-3, 3)) * v for v in _VAR_POOL), expr(rng.randint(-3, 3)))
        e2 = (N + rng.randint(-2, 2)) * KAPPA + rng.randint(-3, 3) * S
        pairs.append((e1, e2))
    checked = 0
    for e1, e2 in pairs:
        prod = e1 * e2
        total = e1 + e2
        for _ in range(100):
            point = _random_point(rng)
            assert eval_at(prod, point) == eval_at(e1, point) * eval_at(e2, point)
            assert eval_at(total, point) == eval_at(e1, point) + eval_at(e2, point)
            checked += 1
    assert checked == 1000


@settings(max_examples=40, deadline=None)
@given(exprs(), st.integers(min_value=1, max_value=6))
def test_s_reduction_sound_under_consistent_bindings(e, k):
    # binding n = k^2 and s = k is a ring homomorphism, so reduction s^2 -> n
    # must be invisible to evaluation
    point = {"n": Fraction(k * k), "s": Fraction(k), "kappa": Fraction(2),
             "a": Fraction(3), "c": Fraction(5)}
    try:
        direct = eval_at(e * e - e, point)
    except DivisionByZero:
        return
    assert direct == eval_at(e, point) ** 2 - eval_at(e, point)


@settings(max_examples=50, deadline=None)
@given(polys(), polys())
def test_solve_linear_round_trip(a, b):
    # a*kappa + b with kappa-free a, b: substituting the root back gives 0
    if "kappa" in (a.variables() | b.variables()):
        return
    e = a * KAPPA + b
    sol = solve_linear(e, "kappa")
    if sol.is_unique:
        assert substitute(e, "kappa", sol.root).is_zero()
        # same zero set: the reported condition is the canonical numerator's
        # leading coefficient, a constant multiple of a
        assert (sol.side_condition / a).is_constant()
    elif sol.kind == "no_solution":
        assert a.is_zero() and not b.is_zero()
    else:
        assert a.is_zero() and b.is_zero()


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs())
def test_equality_sound_for_evaluation(e1, e2):
    if e1 != e2:
        return
    rng = random.Random(7)
    for _ in range(5):
        point = _random_point(rng)
        try:
            assert eval_at(e1, point) == eval_at(e2, point)
        except DivisionByZero:
            continue


# ---------------------------------------------------------------------------
# the parser and substitute against RationalExpr arithmetic


# a tree is (text, thunk): the thunk evaluates the same tree with the
# RationalExpr operators, lazily, so that a zero divisor raises in the test
_TREE_LEAVES = st.one_of(
    st.integers(min_value=0, max_value=4).map(lambda k: (str(k), lambda: expr(k))),
    st.sampled_from(("n", "kappa", "a0", "s")).map(lambda v: (v, lambda: RationalExpr.variable(v))),
)
_TREE_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _extend(children):
    def binary(op):
        return st.tuples(children, children).map(lambda pair: (
            f"({pair[0][0]}) {op} ({pair[1][0]})",
            lambda: _TREE_OPS[op](pair[0][1](), pair[1][1]())))

    return st.one_of(
        *map(binary, _TREE_OPS),
        children.map(lambda c: (f"-({c[0]})", lambda: -c[1]())),
        st.tuples(children, st.integers(min_value=-2, max_value=3)).map(
            lambda c: (f"({c[0][0]})^{c[1]}", lambda: c[0][1]() ** c[1])),
    )


_TREES = st.recursive(_TREE_LEAVES, _extend, max_leaves=8)


def _outcome(thunk):
    try:
        return thunk()
    except DivisionByZero as exc:
        return f"DivisionByZero: {exc}"


@settings(max_examples=150, deadline=None)
@given(_TREES)
def test_parse_expr_agrees_with_field_operators(tree):
    text, value = tree
    assert _outcome(lambda: parse_expr(text)) == _outcome(value)


# a polynomial, or a fraction free of s: a replacement whose denominator
# and numerator both carry s leads the canonicaliser's gcd into
# multi-second cases that have nothing to do with substitute
_REPLACEMENTS = st.one_of(
    polys(),
    st.tuples(polys(_VAR_POOL[:-1]), polys(_VAR_POOL[:-1]).filter(lambda p: not p.is_zero()))
    .map(lambda pair: pair[0] / pair[1]),
)


@settings(max_examples=60, deadline=None)
@given(exprs(), _REPLACEMENTS, st.sampled_from(("n", "kappa", "a", "c", "s")),
       st.integers(min_value=0, max_value=2**32))
def test_substitute_agrees_with_evaluation(e, replacement, name, seed):
    # a canonical form has s-degree <= 1, so evaluating it with name bound to
    # the replacement's value is what the substitution must give
    got = substitute(e, name, replacement)
    rng = random.Random(seed)
    for _ in range(6):
        point = _random_point(rng)
        try:
            shifted = dict(point, **{name: eval_at(replacement, point)})
            assert eval_at(got, point) == eval_at(e, shifted)
        except DivisionByZero:
            continue


def test_substitute_errors():
    with pytest.raises(DivisionByZero, match="vanishes identically"):
        substitute(1 / (KAPPA - N), "kappa", N)
    assert substitute(expr(0), "kappa", N).is_zero()
    assert substitute(N / KAPPA, "a", C) == N / KAPPA


# ---------------------------------------------------------------------------
# closed-form gcds and canonical forms against sympy (test-only dependency)

_SYMPY_VARS = ("n", "kappa", "a", "c")


@st.composite
def raw_polys(draw, max_terms):
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        exps = [0] * len(VARIABLES)
        for name in _SYMPY_VARS:
            exps[VARIABLES.index(name)] = draw(st.integers(min_value=0, max_value=3))
        terms[tuple(exps)] = Fraction(draw(st.integers(min_value=1, max_value=6)),
                                      draw(st.integers(min_value=1, max_value=4)))
        if draw(st.booleans()):
            terms[tuple(exps)] *= -1
    return Poly(terms)


def _to_sympy(sympy, poly):
    symbols = [sympy.Symbol(v) for v in VARIABLES]
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[x ** e for x, e in zip(symbols, exps)])
        for exps, c in poly.terms.items()
    ])


@settings(max_examples=80, deadline=None)
@given(raw_polys(1), raw_polys(5), st.booleans())
def test_monomial_and_constant_gcd_match_sympy(mono, other, constant):
    sympy = pytest.importorskip("sympy")
    if constant:
        mono = Poly.constant(next(iter(mono.terms.values())))
    gens = [sympy.Symbol(v) for v in _SYMPY_VARS]
    want = sympy.Poly(sympy.gcd(_to_sympy(sympy, mono), _to_sympy(sympy, other)), *gens)
    for first, second in ((mono, other), (other, mono)):
        got = poly_gcd(first, second)
        assert list(got.terms.values()) == [1]
        assert sympy.Poly(_to_sympy(sympy, got), *gens).monic() == want.monic()


@settings(max_examples=60, deadline=None)
@given(polys(_VAR_POOL[:-1]), polys(_VAR_POOL[:-1]),
       polys(_VAR_POOL[:-1]).filter(lambda p: not p.is_zero()),
       polys(_VAR_POOL[:-1]).filter(lambda p: not p.is_zero()))
def test_canonical_form_matches_sympy_cancel(a, b, c, d):
    # (a*b)/(c*d) built with the field operators, against sympy's lowest
    # terms of the product of the parts: equal up to a constant factor
    sympy = pytest.importorskip("sympy")

    def as_sympy(value):
        return _to_sympy(sympy, value.num) / _to_sympy(sympy, value.den)

    value = (a * b) / (c * d)
    want_num, want_den = sympy.fraction(sympy.cancel(
        as_sympy(a) * as_sympy(b) / (as_sympy(c) * as_sympy(d))))
    got_num, got_den = _to_sympy(sympy, value.num), _to_sympy(sympy, value.den)
    assert sympy.cancel(want_den / got_den).is_number
    assert sympy.expand(want_num * got_den - got_num * want_den) == 0
    coefficients = list(value.num.terms.values()) + list(value.den.terms.values())
    assert all(x.denominator == 1 for x in coefficients)
    assert value.den.leading()[1] > 0
