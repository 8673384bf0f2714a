"""Exact scalar algebra: normalization, evaluation, solving, s-extension."""

import operator
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import reduce_exps, tuple_divide, tuple_mul, tuple_poly, tuple_str

from nkt.scalar_algebra import (
    A,
    A0,
    A1,
    C,
    DivisionByZero,
    ExponentOverflow,
    ExprSyntaxError,
    KAPPA,
    MAX_EXPONENT,
    MAX_PARSE_BITS,
    MAX_POWER_BITS,
    N,
    NonlinearInVariable,
    Poly,
    RationalExpr,
    S,
    ScalarAlgebraError,
    UnboundIndeterminate,
    VARIABLES,
    ZeroDenominator,
    eval_at,
    expr,
    normalize,
    parse_expr,
    poly_gcd,
    solve_linear,
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
    # a remainder sequence that skips degrees: a subresultant PRS whose
    # pseudo-remainder dropped the owed lc factors divided inexactly here
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


def test_exact_division_of_an_s_carrying_numerator():
    from nkt.scalar_algebra import _div_exact

    divisor = (N * KAPPA + 2 * A - 1).num
    value = (N * N - 3 + (KAPPA - 2 * N) * S).num
    assert _div_exact(value * divisor, divisor) == value
    with pytest.raises(ArithmeticError):
        _div_exact(value * divisor + Poly.constant(1), divisor)


def _decline_heuristic(monkeypatch):
    # the heuristic gcd answers these inputs first; declining it drives the
    # fallback, Brown's interpolation and the one-variable PRS
    from nkt import scalar_algebra

    monkeypatch.setattr(scalar_algebra, "_heu_gcd", lambda a, b: None)


def test_fallback_gcd_of_a_divisor_and_of_a_lower_degree_factor(monkeypatch):
    # one input divides the other; and a gcd of degree 1 in n, below both
    # inputs' degree 2, with a factor in kappa in one input only
    p = (N * KAPPA + A - 2).num
    q = (6 * N + 3 * C + 3).num
    first, second = ((N + 1) * (N + 2)).num, ((N + 1) * (N + 3) * (KAPPA ** 2 + 1)).num
    _decline_heuristic(monkeypatch)
    assert poly_gcd(p * q, q) == q.primitive()
    assert poly_gcd(first, second) == (N + 1).num


def test_fallback_gcd_leaves_out_content_one_input_lacks(monkeypatch):
    # kappa^2 is content of kappa^2*(n+1) in Q[n] that (n+1)*(n+2) lacks
    first, second, answer = (KAPPA ** 2 * (N + 1)).num, ((N + 1) * (N + 2)).num, (N + 1).num
    _decline_heuristic(monkeypatch)
    assert poly_gcd(first, second) == answer
    assert poly_gcd(second, first) == answer


def test_fallback_gcd_rejects_a_candidate_that_divides_one_input(monkeypatch):
    # the images at n = 0 and n = 1 share kappa, which divides kappa^2 + kappa
    # but not kappa + n^2 - n: the interpolated candidate must divide both
    first, second = parse_expr("kappa^2 + kappa").num, parse_expr("kappa + n^2 - n").num
    _decline_heuristic(monkeypatch)
    assert poly_gcd(first, second) == poly_gcd(second, first) == Poly.constant(1)


@pytest.mark.parametrize("first, second, common, seconds", [
    # a PRS in n (degree 151) raised kappa past its packed field
    ("n^150*kappa + a", "kappa^150 + n*a + 1", "n*kappa - a + 2", 1),
    # a PRS in n over these 454- and 486-term products took about a minute
    ("(n+kappa+a+c+1)^7", "(n-kappa+a-c+2)^7", "n - kappa + 2", 5),
    # about 900 terms each: the subresultant PRS did not finish in 120 s
    ("(n+kappa+a+c+1)^8+n*kappa*a*c", "(n-kappa+a-c+2)^8+3*n*a", "n*kappa-a*c+2", 1),
    # coprime pairs that needed a modular degree bound ahead of the PRS
    ("(n+kappa+a+1)^14+1", "(n-kappa+a+2)^14+3", "1", 1),
    ("(n+kappa+a+c+1)^9+1", "(n-kappa+a-c+2)^9+3", "1", 1),
    # one variable: a coprime image mod 2^61 - 1 answers before any PRS
    ("(2^100+1)*n^1000 + 3*n^7 + 1", "(2^100+3)*n^999 + n + 5", "1", 0.1),
], ids=["overflow", "slow", "dense", "coprime-3", "coprime-4", "coprime-1"])
def test_gcd_fallback_runs_on_the_variable_of_least_degree(first, second, common, seconds):
    from nkt.scalar_algebra import _heu_gcd

    common = parse_expr(common).num
    first, second = parse_expr(first).num * common, parse_expr(second).num * common
    assert _heu_gcd(first, second) is None  # both are past the heuristic's size cap
    start = time.perf_counter()
    assert poly_gcd(first, second) == common
    assert time.perf_counter() - start < seconds


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


def test_a_float_is_neither_a_rational_nor_an_expression():
    from nkt.scalar_algebra import as_rational

    with pytest.raises(TypeError, match=r"^cannot interpret 1\.5 as a rational number$"):
        as_rational(1.5)
    with pytest.raises(TypeError, match=r"^cannot interpret 1\.5 as an expression$"):
        expr(1.5)


def test_poly_guards():
    from nkt.scalar_algebra import InputError, _div_exact

    with pytest.raises(InputError, match=r"^negative exponent in \(-1, 0, 0, 0, 0, 0, 0, 0, 0, 0\)$"):
        Poly({(-1,) + (0,) * 9: 1})
    # s*s folds onto n, and the two terms cancel
    assert Poly({(0,) * 9 + (2,): 1, (1,) + (0,) * 9: -1}).is_zero()
    p = (2 * N + 4).num
    assert p.scale(0).is_zero()
    with pytest.raises(InputError, match="^negative power of a polynomial$"):
        p ** -1
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        _div_exact(p, Poly())
    assert str(poly_gcd(Poly(), p)) == "n + 2"
    with pytest.raises(UnboundIndeterminate, match="^n is not constant$"):
        N.as_rational()


@pytest.mark.parametrize("op", [
    lambda: N + "x", lambda: N - 1.5, lambda: N * 1.5, lambda: N / 1.5, lambda: 1.5 / N,
], ids=["add-str", "sub-float", "mul-float", "div-float", "rdiv-float"])
def test_operators_with_other_types_raise_type_error(op):
    # each operator returns NotImplemented, and Python raises
    with pytest.raises(TypeError):
        op()


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
    rng = random.Random(seed)
    try:
        got = substitute(e, name, replacement)
    except DivisionByZero as exc:
        # only a denominator that the substitution sends to zero may raise
        assert "vanishes identically" in str(exc)
        for _ in range(6):
            point = _random_point(rng)
            try:
                shifted = dict(point, **{name: eval_at(replacement, point)})
            except DivisionByZero:
                continue
            assert e.den.evaluate(shifted) == 0
        return
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
        terms[tuple(exps)] = draw(st.integers(min_value=1, max_value=6))
        if draw(st.booleans()):
            terms[tuple(exps)] *= -1
    return Poly(terms)


def _to_sympy(sympy, poly):
    symbols = [sympy.Symbol(v) for v in VARIABLES]
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[x ** e for x, e in zip(symbols, exps)])
        for exps, c in poly.monomials().items()
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


# ---------------------------------------------------------------------------
# the heuristic gcd ahead of the fallback, and the lowest-terms fast paths


@pytest.mark.parametrize("first, second, common, heuristic", [
    # both images hold a power of xi (from kappa^2 and a^3) that no common
    # monomial accounts for: the candidate takes the monomial factor implied
    ("n^3 + 14*kappa^2", "3*n^3*a^3 - 2*a^3", "3*n^2*a - n + 1", "3*n^2*a - n + 1"),
    # the candidate (12*n^2*a - 1)*(kappa + 1) divides the first input only
    ("kappa^3 + 1", "2*n^2 - n*kappa - 3", "12*n^2*a - 1", None),
    # below the size cap, the images share a factor xi^d - 1 at each of the six xi
    ("n - 1", "n*kappa - 1", "1", None),
], ids=["power-of-xi", "divides-one-input", "declined"])
def test_heuristic_gcd_reads_back_one_candidate(first, second, common, heuristic):
    from nkt.scalar_algebra import _heu_gcd

    common = parse_expr(common).num
    first, second = parse_expr(first).num * common, parse_expr(second).num * common
    assert _heu_gcd(first, second) == (None if heuristic is None else parse_expr(heuristic).num)
    assert poly_gcd(first, second) == common  # Brown's interpolation answers a decline


def _fallback_gcd(first, second):
    with pytest.MonkeyPatch.context() as patch:
        _decline_heuristic(patch)
        return poly_gcd(first, second)


@settings(max_examples=60, deadline=None)
@given(raw_polys(3), raw_polys(3), raw_polys(3))
# a candidate read back here divides one input and not the other
@example(*(parse_expr(text).num for text in
           ("-2*kappa^2*a*c^2 - 2*kappa^2*a*c", "-4*n^3 + 4*c^2", "-4*n - 3*kappa^3")))
def test_heuristic_gcd_equals_the_fallback_answer(first, second, common):
    from nkt.scalar_algebra import _div_exact, _heu_gcd

    a, b = first * common, second * common
    if a.leading()[1] > 0:
        a = -a
    want = _fallback_gcd(a, b)
    assert poly_gcd(a, b) == want
    _div_exact(want, common.primitive())  # the planted factor divides the answer
    if len(a.terms) > 1 and len(b.terms) > 1:
        assert _heu_gcd(a.primitive(), b.primitive()) in (None, want)


_ORACLE_VARS = ("n", "kappa", "mu", "a", "c")


def _random_factor(rng, names):
    # up to eight terms of total degree at most 5, spread over the variables
    # in a random order, with coefficients in [-9, 9]
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exps, left = [0] * len(VARIABLES), rng.randint(0, 5)
        for name in rng.sample(names, len(names)):
            exps[VARIABLES.index(name)] = e = rng.randint(0, left)
            left -= e
        terms[tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return Poly(terms)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_fallback_gcd_matches_sympy_on_planted_factors(seed):
    # the fallback alone, against an independent gcd, on products over 4-5
    # variables with a planted common factor; each gcd gets 2 s (the
    # subresultant PRS it replaced took over 3 s on about 1 input in 40)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    names = rng.sample(_ORACLE_VARS, rng.randint(4, 5))
    first, second, common = (_random_factor(rng, names) for _ in range(3))
    a, b = first * common, second * common
    start = time.perf_counter()
    got = _fallback_gcd(a, b)
    assert time.perf_counter() - start < 2
    want = sympy.gcd(_to_sympy(sympy, a), _to_sympy(sympy, b))
    assert sympy.cancel(_to_sympy(sympy, got) / want).is_number


def test_heuristic_gcd_retries_with_a_larger_xi(monkeypatch):
    import math

    from nkt import scalar_algebra

    # at the first xi the integer images share a factor that the inputs do
    # not, so no candidate divides both; xi grows (through isqrt) and the
    # next one answers
    grown = []
    monkeypatch.setattr(scalar_algebra, "isqrt", lambda x: grown.append(x) or math.isqrt(x))
    first, second = ((N + 3) * (N - 1)).num, ((N + 3) * (3 * N * A - 1)).num
    assert scalar_algebra._heu_gcd(first, second) == (N + 3).num
    assert grown
    assert poly_gcd(first, second) == _fallback_gcd(first, second) == (N + 3).num


def test_heuristic_gcd_declines_above_the_size_cap():
    from nkt.scalar_algebra import MAX_HEU_BITS, _heu_gcd

    # an image of 20001^2 digits is never built: the cap is checked first
    huge = parse_expr("n^20000*kappa^20000 + n + 1").num
    start = time.perf_counter()
    assert _heu_gcd(huge, (N * KAPPA + 1).num) is None
    assert time.perf_counter() - start < 0.1
    # 92 * 91 * 2 * 3 digits of 5 bits pass the cap; the fallback answers
    common = (N + C).num
    first = parse_expr("n^90*kappa^90 + a*c + 1").num * common
    second = parse_expr("n*a - kappa^90*c^2").num * common
    assert 92 * 91 * 2 * 3 * 5 > MAX_HEU_BITS
    assert _heu_gcd(first, second) is None
    assert poly_gcd(first, second) == common


def test_substitution_through_a_conjugate_denominator_is_bounded():
    # clearing s from the substituted denominator gives a norm that shares a
    # factor with the replacement's denominator; the PRS alone took more
    # than a minute to find it
    sympy = pytest.importorskip("sympy")
    value = parse_expr("(8*a*s + 4*s + 23)/(6*n*a + 4*kappa - 8*c - 8)")
    replacement = parse_expr(
        "(108*n*kappa^2 - 72*n*kappa*c*s + 120*n*kappa*s - 108*kappa^2 + 135*kappa*a"
        " + 72*kappa*c*s - 120*kappa*s + 54*kappa - 90*a*c*s + 150*a*s - 36*c*s + 60*s)"
        "/(36*n*c^2 - 120*n*c + 100*n - 81*kappa^2)")
    start = time.perf_counter()
    got = substitute(value, "c", replacement)
    assert time.perf_counter() - start < 1
    rng, checked = random.Random(14), 0
    while checked < 8:
        point = _random_point(rng)
        try:
            want = eval_at(value, dict(point, c=eval_at(replacement, point)))
        except DivisionByZero:
            continue
        assert eval_at(got, point) == want
        checked += 1
    # lowest terms: no factor of the denominator divides both s-halves
    halves = [_to_sympy(sympy, half) for half in got.num.split_s()]
    assert sympy.gcd(sympy.gcd(_to_sympy(sympy, got.den), halves[0]), halves[1]) == 1


def test_decimal_exponents_of_rational_literals_are_bounded():
    from nkt.scalar_algebra import MAX_DECIMAL_EXPONENT, as_rational

    assert as_rational("1.5e-3") == Fraction(3, 2000)
    assert as_rational(f"1E+{MAX_DECIMAL_EXPONENT}") == 10 ** MAX_DECIMAL_EXPONENT
    start = time.perf_counter()
    for text in (f"1e{MAX_DECIMAL_EXPONENT + 1}", "2.5e-999999999", "1e99999999999999999"):
        with pytest.raises(ExprSyntaxError, match="decimal exponent above"):
            as_rational(text)
    assert time.perf_counter() - start < 0.1
    for text in ("1e", "e5", "1e1.5", "1e" + "9" * 5000):
        with pytest.raises(ExprSyntaxError, match="not a rational"):
            as_rational(text)


def test_products_with_s_in_both_numerators_take_the_gcd():
    from nkt.scalar_algebra import _lowest_terms

    # the ring is Q[s, vars] with n = s^2, a UFD; canonical denominators are
    # s-free, so 1+s, a factor of n-1 = (s-1)(s+1), stays in a numerator, and
    # two such numerators multiply to a factor of the denominator
    first, second = 1 + S, (1 - S) / (N - 1)
    assert first * second == -1
    raw = _lowest_terms(first.num * second.num, first.den * second.den)
    assert str(raw) == "(-n + 1)/(n - 1)"
    assert raw != -1


@pytest.mark.parametrize("value, want", [
    ((N + S) / N, "(n + 2*s + 1)/(n)"),
    ((N * KAPPA + S) / (N ** 2 * (KAPPA - 1)),
     "(n*kappa^2 + 2*kappa*s + 1)/(n^3*kappa^2 - 2*n^3*kappa + n^3)"),
], ids=["n-cancels", "n-stays"])
def test_squares_cancel_only_powers_of_n(value, want):
    # s*s = n is the one prime of Q[n, ...] that squares in Q[s, ...], so a
    # power of a canonical form can share with its denominator only n^t
    assert str(value * value) == str(value ** 2) == want


def test_shortcuts_take_no_gcd_whose_answer_the_canonical_form_fixes(monkeypatch):
    from nkt import scalar_algebra
    from nkt.scalar_algebra import _divide

    real, calls, depth = scalar_algebra.poly_gcd, [], [0]

    def uncounted(first, second):
        depth[0] += 1
        try:
            return real(first, second)
        finally:
            depth[0] -= 1

    def counted(first, second):
        # top-level calls only: Brown's interpolation recurses through
        # poly_gcd on contents and images, whatever the shortcut did, and
        # the gcds this test computes for its expectations are uncounted
        if not depth[0]:
            calls.append((first, second))
        return uncounted(first, second)

    values = [parse_expr("(kappa + 1)/(n*(kappa - 1))"),
              parse_expr("(n*kappa + s)/(n^2*(kappa - 1))")]
    sums = [((1 + S) / (N * (N + 1)), (1 - S) / (N * (N - 1)), "(2*n - 2*s)/(n^3 - n)"),
            ((1 + S) / ((N + KAPPA) * (N + 1)), (1 - S) / ((N + KAPPA) * (N - 1)),
             "(2*n - 2*s)/(n^3 + n^2*kappa - n - kappa)")]
    monkeypatch.setattr(scalar_algebra, "poly_gcd", counted)
    for value in values:
        -value, value * value, value ** 2, value ** 3
        assert calls == []
    # s in one numerator only: the gcds are the two cross-cancellations,
    # values[1]'s numerator half by half against values[0]'s denominator
    # and values[0]'s numerator against values[1]'s
    with_s, without_s = values[1], values[0]
    halves = with_s.num.split_s()
    calls.clear()
    with_s * without_s
    assert calls == [(without_s.den, halves[0]), (uncounted(without_s.den, halves[0]), halves[1]),
                     (with_s.den, without_s.num)]
    for first, second, want in sums:
        calls.clear()
        assert str(first + second) == want
        # past the gcd of the denominators, only its divisors meet the numerator
        assert calls[0] == (first.den, second.den)
        shared = uncounted(first.den, second.den)
        assert all(_divide(shared, divisor)[1].is_zero() for divisor, _ in calls[1:])


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
               "neg": lambda x, y: -x, "int+": lambda x, y: 3 + x, "int/": lambda x, y: 2 / x,
               "x*x": lambda x, y: x * x, "x**3": lambda x, y: x ** 3}


@settings(max_examples=120, deadline=None)
@given(exprs(), exprs(), st.sampled_from(sorted(_ARITHMETIC)))
# the sum's numerator 2n shares the factor n of both denominators
@example(1 / (N * (N + 1)), 1 / (N * (N - 1)), "+")
# the same with s in both numerators: the shared n meets A and B apart
@example((1 + S) / (N * (N + 1)), (1 - S) / (N * (N - 1)), "+")
# s in one numerator; kappa cancels across the fractions
@example((N + S) / (KAPPA * (N - 1)), KAPPA * (N + KAPPA) / (N + 1), "*")
def test_field_operations_give_canonical_forms(first, second, op):
    # + - * / skip the gcd where the operands' coprimality carries over;
    # the result must still be the canonical form normalize() computes,
    # also with s in either numerator
    if (op == "/" and second.is_zero()) or (op == "int/" and first.is_zero()):
        return
    value = _ARITHMETIC[op](first, second)
    again = normalize(value)
    assert value.num.terms == again.num.terms and value.den.terms == again.den.terms
    assert all(type(c) is int for c in _coefficients(value))


# ---------------------------------------------------------------------------
# the int / Fraction boundary


def test_boundary_values_are_fractions():
    point = {"n": Fraction(4), "kappa": Fraction(1, 3)}
    values = [
        eval_at(expr(2), {}),
        expr("6/4").as_rational(),
        expr(5).as_rational(),
        expr(0).as_rational(),
        Poly.constant(3).evaluate({}),
        Poly().evaluate({}),
        N.num.evaluate({"n": 2}),
        eval_at(solve_linear(2 * N * KAPPA - 6, "kappa").root, point),
        eval_at(solve_linear(3 * KAPPA - 1, "kappa").root, {}),
    ]
    assert all(type(v) is Fraction for v in values)
    assert values[:2] == [2, Fraction(3, 2)]
    assert values[-2:] == [Fraction(3, 4), Fraction(1, 3)]


def _coefficients(value):
    return list(value.num.terms.values()) + list(value.den.terms.values())


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs())
def test_canonical_coefficients_are_ints(e1, e2):
    # the strategy draws Fraction coefficients; canonical forms hold ints
    for value in (e1, e1 * e2, e1 + e2, e1 - e2, e1 ** 2, e1 / e2 if e2 else e1):
        assert all(type(c) is int for c in _coefficients(value))
        assert all(type(c) is int for c in value.num.primitive().terms.values())


# ---------------------------------------------------------------------------
# packed monomials against the tuple-keyed oracle

_HALF = MAX_EXPONENT // 2
# small exponents, and ones whose sums reach MAX_EXPONENT, the largest value
# below a field's guard bit, or pass it
_EXPONENTS = st.sampled_from((0, 0, 1, 1, 2, 3, _HALF, MAX_EXPONENT - 1, MAX_EXPONENT))
_COEFFS = st.integers(min_value=-9, max_value=9).filter(bool)


@st.composite
def tuple_terms(draw, max_terms=5, names=VARIABLES, exponents=_EXPONENTS):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = [0] * len(VARIABLES)
        for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
            limit = 3 if name == "s" else None
            exps[VARIABLES.index(name)] = draw(exponents if limit is None
                                               else st.integers(0, limit))
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + draw(_COEFFS)
    # s^2 -> n can lift an n exponent past the cap; such a term is no input
    return {e: c for e, c in tuple_poly(terms).items() if _fits([e])}


def _fits(terms):
    return all(e <= MAX_EXPONENT for exps in terms for e in exps)


def _agrees(poly, terms):
    assert poly.monomials() == terms
    assert list(poly.monomials()) == sorted(terms, reverse=True)
    assert str(poly) == tuple_str(terms)


def _oracle_or_overflow(build, want):
    if _fits(want):
        _agrees(build(), want)
    else:
        with pytest.raises(ExponentOverflow):
            build()


@settings(max_examples=150, deadline=None)
@given(tuple_terms(), tuple_terms())
def test_product_matches_tuple_oracle(first, second):
    a, b = Poly(first), Poly(second)
    _agrees(a, first)
    _oracle_or_overflow(lambda: a * b, tuple_mul(first, second))


@settings(max_examples=80, deadline=None)
@given(tuple_terms(max_terms=3), st.integers(min_value=0, max_value=4))
def test_power_matches_tuple_oracle(terms, k):
    want = {(0,) * len(VARIABLES): 1}
    for _ in range(k):
        want = tuple_mul(want, terms)
    _oracle_or_overflow(lambda: Poly(terms) ** k, want)


def test_powers_start_from_the_lowest_set_bit(monkeypatch):
    # p ** k multiplies only where a bit of k asks for it, never 1 * p
    real, calls = Poly.__mul__, []
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(b) or real(a, b))
    base = (N + KAPPA + 1).num
    counts = []
    for k in (1, 2, 3, 4):
        calls.clear()
        base ** k
        counts.append(len(calls))
    assert counts == [0, 1, 2, 2]


# small exponents: a divisor's lead of degree 1 against a numerator of
# degree MAX_EXPONENT would take MAX_EXPONENT quotient terms
_DIVIDE_TERMS = [tuple_terms(k, ("n", "kappa", "a", "s"), st.integers(0, 3)) for k in (4, 3, 3)]


@settings(max_examples=150, deadline=None)
@given(*_DIVIDE_TERMS)
# s in the numerator over an s-free divisor; and kappa*s + 7 over
# kappa - 2*s, whose quotient term s meets -2*s and s*s folds into n
@example(*(parse_expr(text).num.monomials() for text in ("3*n*kappa*s + 1", "2*kappa*a - n", "5*s")))
@example(*(parse_expr(text).num.monomials() for text in ("s", "kappa - 2*s", "2*n + 7")))
def test_division_matches_tuple_oracle(quotient, divisor, rest):
    from nkt.scalar_algebra import _divide

    if not divisor:
        return
    # num = quotient * divisor + rest, so the oracle runs through several
    # quotient terms before rest ends it
    num = tuple_mul(quotient, divisor)
    num = tuple_poly({e: num.get(e, 0) + rest.get(e, 0) for e in {**num, **rest}})
    want = tuple_divide(num, divisor)
    if any(c.denominator != 1 for c in want[0].values()):
        # a Poly is over Z: a quotient coefficient that is no integer raises
        with pytest.raises(ArithmeticError):
            _divide(Poly(num), Poly(divisor))
        return
    assert [part.monomials() for part in _divide(Poly(num), Poly(divisor))] == \
        [dict(sorted(part.items(), reverse=True)) for part in want]


def test_division_raises_where_a_quotient_term_overflows_a_field():
    from nkt.scalar_algebra import _divide

    # the quotient term a times the divisor's a^MAX needs a^(MAX + 1), and
    # the quotient term s times n^MAX*s folds s*s into n^(MAX + 1)
    top = MAX_EXPONENT
    for num, den in (("kappa*a", f"kappa + a^{top}"),
                     (f"n^{top}*kappa*s", f"n^{top}*kappa + n^{top}*s")):
        with pytest.raises(ExponentOverflow):
            _divide(parse_expr(num).num, parse_expr(den).num)


@settings(max_examples=100, deadline=None)
@given(tuple_terms(max_terms=6))
def test_structure_matches_tuple_oracle(terms):
    poly = Poly(terms)
    s = VARIABLES.index("s")
    a_half, b_half = poly.split_s()
    assert a_half.monomials() == {e: c for e, c in terms.items() if not e[s]}
    assert b_half.monomials() == {e[:s] + (0,): c for e, c in terms.items() if e[s]}
    for i, name in enumerate(VARIABLES):
        assert poly.degree(name) == max((e[i] for e in terms), default=0)
        buckets = {}
        for exps, c in terms.items():
            buckets.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = c
        got = poly.coefficients_in(name)
        assert {p: q.monomials() for p, q in got.items()} == buckets
    if terms:
        top = max(terms)
        assert poly.leading()[1] == terms[top]
        assert Poly({top: 1}).terms == {poly.leading()[0]: 1}
        assert poly.variables() == {VARIABLES[i] for e in terms for i, x in enumerate(e) if x}


def test_s_square_reduction_at_the_guard():
    n_top = [0] * len(VARIABLES)
    n_top[0], n_top[-1] = MAX_EXPONENT - 1, 1
    near = Poly({tuple(n_top): 1})  # n^(MAX-1) * s
    s = Poly.variable("s")
    assert (near * s).monomials() == {reduce_exps(tuple(n_top[:-1]) + (2,)): 1}
    assert (near * s).degree("n") == MAX_EXPONENT
    with pytest.raises(ExponentOverflow):
        near * near
    top = near * s * s  # n^MAX * s: one more s reduces into n and overflows
    assert top.monomials() == {(MAX_EXPONENT,) + (0,) * 8 + (1,): 1}
    with pytest.raises(ExponentOverflow):
        top * s


def test_fraction_dict_canonicalises_like_its_integer_twin():
    # a Poly is over Z; a Fraction enters a form through RationalExpr
    # arithmetic, and the result is the integer twin over a denominator
    twin = {(1, 2, 0, 0, 0, 0, 0, 0, 0, 1): 9,
            (0, 0, 0, 0, 0, 1, 0, 0, 0, 0): -10,
            (0,) * 10: 24}
    value = RationalExpr(Poly(twin)) * Fraction(1, 12)
    assert value == RationalExpr(Poly(twin), Poly.constant(12))
    assert value / RationalExpr(Poly(twin)) == expr(Fraction(1, 12))
    assert all(type(c) is int for c in _coefficients(value))
    # Fraction arithmetic that comes out integral leaves an integer form
    half = expr(Fraction(1, 2))
    whole = (half + half) * N + 1
    assert whole.den.is_one() and all(type(c) is int for c in _coefficients(whole))
    for build in (lambda: Poly({(0,) * 10: Fraction(1, 2)}), lambda: Poly({(0,) * 10: Fraction(2)}),
                  lambda: Poly.constant(Fraction(1, 2))):
        with pytest.raises(TypeError):
            build()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_raw_fraction_polys_canonicalise_like_integer_twins(data):
    twin = data.draw(raw_polys(5))
    scale = data.draw(st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool))
    frac_form = RationalExpr(twin) * scale
    int_form = RationalExpr(twin.scale(scale.numerator), Poly.constant(scale.denominator))
    assert frac_form.num.terms == int_form.num.terms
    assert frac_form.den.terms == int_form.den.terms
    assert all(type(c) is int for c in _coefficients(frac_form))
    assert frac_form.num.primitive() == twin.primitive()


def test_gcd_intermediates_hold_ints(monkeypatch):
    from nkt import scalar_algebra

    # every polynomial the run builds passes _poly: Brown's images, values
    # and interpolants too
    calls = {"_divide": 0, "_div_exact": 0, "_poly": 0}

    def checked(name, fn):
        def wrapper(*args):
            out = fn(*args)
            calls[name] += 1
            polys = out if isinstance(out, tuple) else (out,)
            for poly in polys if name == "_poly" else (args[0], args[1], *polys):
                assert all(type(c) is int for c in poly.terms.values()), name
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(scalar_algebra, name, checked(name, getattr(scalar_algebra, name)))
    _decline_heuristic(monkeypatch)
    # the heavy corpus entry: its e*e - e runs Brown's interpolation, whose
    # images run the one-variable PRS
    e = parse_expr("(90*n^2*a - 135*n^2*c + 108*n*kappa*c + 10*n*a^2*s - 15*n*a*c*s"
                   " - 30*n*a + 45*n*c + 216*n + 12*kappa*a*c*s - 36*kappa*c + 24*a*s - 72)"
                   "/(162*n^2 - 2*n*a^2 - 108*n + 18)")
    assert all(type(c) is int for c in _coefficients(e * e - e))
    # a planted factor whose lead 2*n in kappa has integer content 2: with
    # gamma primitive, H = G / 2 would take Fraction coefficients
    common = parse_expr("2*n*kappa^2 + a").num
    first = parse_expr("kappa + n*a").num * common
    second = parse_expr("kappa*a - n + 3").num * common
    assert poly_gcd(first, second) == common
    assert all(calls.values())


# ---------------------------------------------------------------------------
# bounded exponents


def test_exponent_literals_above_the_cap_are_rejected():
    assert parse_expr(f"n^{MAX_EXPONENT}").num.degree("n") == MAX_EXPONENT
    for text in (f"n^{MAX_EXPONENT + 1}", "kappa^100000", "2^" + "9" * 5000,
                 f"(n+1)^-{MAX_EXPONENT + 1}", f"n^{'0' * 30}{MAX_EXPONENT + 1}"):
        with pytest.raises(ExprSyntaxError, match="exponent"):
            parse_expr(text)
    assert parse_expr("n^" + "0" * 30 + "2") == N ** 2


def test_powers_of_huge_constants_are_rejected_before_computing():
    # (9^32767)^1024 would be a 134-million-bit integer; the bound is on
    # terms times coefficient bits, so it also stops (n+kappa+a+c+1)^40,
    # 135,751 terms that took 28 s to form
    for text in ("(9^32767)^1024", "1/(9^32767)^1024", "(2^32767)^33", "((9^32767)^7)^7",
                 "(n+kappa+a+c+1)^40", "(n+1)^6000", "(99999*n+99999)^1000"):
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError, match=f"power above {MAX_POWER_BITS} bits"):
            parse_expr(text)
        assert time.perf_counter() - start < 0.1
    # up to the budget a power is computed: 32768 bits times 32
    assert parse_expr("(2^32767)^32") == RationalExpr.constant(2 ** (32767 * 32))
    assert parse_expr("(1/9)^-32767") == RationalExpr.constant(9 ** 32767)
    # each factor is within the bound and is formed (a few tenths of a
    # second each); their product is rejected before it is formed
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError, match=f"product above {MAX_POWER_BITS} bits"):
        parse_expr("(n+kappa+a+c+1)^20*(n+kappa+a+c+1)^20")
    assert time.perf_counter() - start < 5
    assert len(parse_expr("(n+kappa+a+c+1)^12").num.terms) == 1820
    assert parse_expr("(n+1)^400") == (N + 1) ** 400


def test_one_parse_has_one_budget():
    # each power is within MAX_POWER_BITS and takes a few tenths of a second
    # to form; their estimates are summed over the parse, so the sum is
    # rejected after a few of them
    assert MAX_PARSE_BITS >= 2 * MAX_POWER_BITS
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError, match=f"products and powers above {MAX_PARSE_BITS} bits"):
        parse_expr(" + ".join(["(n+kappa+a+c+1)^20"] * 50))
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("text, spent, want", [
    ("n^5", 10, N ** 5),
    ("2^7", 21, RationalExpr.constant(128)),
    ("(n+1)^-3", 27, 1 / (N + 1) ** 3),
    ("(n^2*kappa)^-4*(kappa - 1)^2", 37, (KAPPA - 1) ** 2 / (N ** 8 * KAPPA ** 4)),
    ("1*n*kappa", 4, N * KAPPA),
    ("n*1/1", 0, N),
    ("(n+1)^200*(n-1)^200", 321600, (N * N - 1) ** 200),
    # unary signs and signed or zero-padded exponents
    ("--n", 0, N),
    ("+-+n", 0, -N),
    ("n^--3", 6, N ** 3),
    ("-(n+1)^2*+n", 23, -(N + 1) ** 2 * N),
    ("n^007", 14, N ** 7),
])
def test_parse_budget_charges_each_product_and_power(text, spent, want):
    # a denominator of 1 is charged as a one-term, one-bit poly, k bits for
    # its k-th power, whether or not the power is formed
    from nkt.scalar_algebra import _Parser, _tokenize

    parser = _Parser(_tokenize(text), text)
    value = RationalExpr(*parser.parse_sum())
    assert (parser.spent, value) == (spent, want)


@pytest.mark.parametrize("text", ["n^-+3", "n^(3)"])
def test_exponent_is_minus_signs_then_an_integer_literal(text):
    with pytest.raises(ExprSyntaxError, match=r"^exponent must be an integer in "):
        parse_expr(text)


@pytest.mark.parametrize("text, message", [
    ("2\u00b2", "unexpected character '\u00b2' in '2\u00b2'"),
    ("\u2167+1", "unexpected character '\u2167' in '\u2167+1'"),
    ("x.", "unexpected character '.' in 'x.'"),  # before the name x is looked up
    ("n\u00b2", f"unknown indeterminate 'n\u00b2'; expected one of {VARIABLES}"),
    ("_b", f"unknown indeterminate '_b'; expected one of {VARIABLES}"),
    ("\u00e9", f"unknown indeterminate '\u00e9'; expected one of {VARIABLES}"),
], ids=["superscript-two", "roman-eight", "dot", "n-superscript", "underscore", "e-acute"])
def test_scanner_character_rules(text, message):
    # str's Unicode classes, not ASCII: a name starts with a letter or _ and
    # goes on with letters, digits and numerals; a numeral that is not a
    # decimal digit cannot start a token
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(text)
    assert str(info.value) == message


def test_scanner_reads_unicode_digits_and_spaces():
    assert parse_expr("\u0663+1") == 4  # ARABIC-INDIC DIGIT THREE
    assert parse_expr("n\u00a0+ 1") == N + 1  # NO-BREAK SPACE


def test_product_bound_counts_the_degree_box():
    # t_a * t_b = 40,401 terms of about 400 bits would pass the bound, but
    # (n+1)^200 * (n-1)^200 has at most 200 + 200 + 1 terms: it is formed
    start = time.perf_counter()
    value = parse_expr("(n+1)^200*(n-1)^200")
    assert time.perf_counter() - start < 1
    assert len(value.num.terms) == 201
    assert value == (N * N - 1) ** 200
    # a box of 41^4 terms still exceeds it
    with pytest.raises(ExprSyntaxError, match=f"product above {MAX_POWER_BITS} bits"):
        parse_expr("(n+kappa+a+c+1)^20*(n+kappa+a+c+1)^20")


def test_over_long_integer_literals_are_syntax_errors():
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1
    if digits == 1:
        pytest.skip("this interpreter does not limit the digits of an int literal")
    for text in ("1" * digits, f"n + {'9' * digits}/2"):
        with pytest.raises(ExprSyntaxError, match=f"integer literal of {digits} digits"):
            parse_expr(text)
    # a long exponent literal of leading zeros is read by its value
    assert parse_expr("n^" + "0" * digits + "2") == N ** 2


_FUZZ_TOKENS = st.sampled_from(
    tuple("0123456789+-*/^()") + (" ", " ") + VARIABLES + ("x", ".", "_", "\u00b2", "#"))


@settings(max_examples=300, deadline=None)
@given(st.lists(_FUZZ_TOKENS, max_size=12).map("".join))
@example("(n+kappa+a+c+1)^40")
@example("(n+1)^6000")
@example("(99999*n+99999)^1000")
@example("(n+kappa+a+c+1)^20*(n+kappa+a+c+1)^20")
@example("1" * 5000)
@example("2\u00b2")
@example("n^" + "0" * 5000 + "2")
def test_parse_expr_accepts_or_raises_its_own_errors(text):
    try:
        parse_expr(text)
    except ScalarAlgebraError:
        pass


def test_products_and_powers_beyond_a_field_raise():
    half = N ** 20000  # its square would overflow, the result itself fits
    assert half.num.degree("n") == 20000
    with pytest.raises(ExponentOverflow):
        half * half
    with pytest.raises(ExponentOverflow):
        half ** 2
    with pytest.raises(ExponentOverflow):
        S ** (2 * MAX_EXPONENT + 2)
    assert (S ** (2 * MAX_EXPONENT + 1)).num.degree("n") == MAX_EXPONENT
    with pytest.raises(ExponentOverflow):
        Poly({(MAX_EXPONENT + 1,) + (0,) * 9: 1})
    # a denominator overflows the same way; no exponent ever carries over
    with pytest.raises(ExponentOverflow):
        (1 / (KAPPA ** 20000)) * (1 / (KAPPA ** 20000))
