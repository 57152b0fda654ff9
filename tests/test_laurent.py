"""Exact Laurent-polynomial arithmetic and canonical text."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteralg.laurent import (
    LaurentPolynomial,
    NonExactDivision,
    RationalExpression,
    lp_canonical_text,
    lp_denominator_vector,
    lp_exact_div,
    lp_exchange_monomials,
    lp_from_json,
    lp_parse,
    lp_rename,
    lp_substitute_monomial,
    lp_to_json,
)

VARS = ("x", "y")


def poly(terms):
    return LaurentPolynomial(VARS, terms)


exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exps, st.integers(-5, 5), max_size=5).map(poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + poly({}) == p
    assert p * poly({(0, 0): 1}) == p


@given(polys, nonzero_polys)
def test_exact_division_round_trip(p, q):
    assert lp_exact_div(p * q, q) == p


# -- packed-key edges: up to 8 variables, exponents in +-40, and total
# degrees that sit exactly on a bit-width boundary --------------------------


def naive_product(p, q):
    """Reference product on exponent tuples, no packing."""
    t = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            t[e] = t.get(e, 0) + c1 * c2
    return LaurentPolynomial(p.vars, t)


coefs = st.integers(-6, 6).filter(bool)


@st.composite
def wide_pairs(draw):
    """Two polynomials in 1..8 variables with exponents in [-40, 40]."""
    n = draw(st.integers(1, 8))
    names = tuple("v%d" % i for i in range(n))
    exps_n = st.tuples(*[st.integers(-40, 40)] * n)
    terms = st.dictionaries(exps_n, coefs, max_size=6)
    return LaurentPolynomial(names, draw(terms)), LaurentPolynomial(names, draw(terms))


@st.composite
def edge_factor(draw, n, offset, degree):
    """A polynomial whose terms, shifted by -offset, have exponents >= 0,
    minimum 0 in every variable, and top total degree exactly `degree`."""
    i = draw(st.integers(0, n - 1))
    top = tuple(degree if j == i else 0 for j in range(n))
    low = st.tuples(*[st.integers(0, degree // n)] * n)
    terms = {(0,) * n: draw(coefs), top: draw(coefs)}
    terms.update(draw(st.dictionaries(low, coefs, max_size=3)))
    shifted = {tuple(a + o for a, o in zip(e, offset)): c for e, c in terms.items()}
    return LaurentPolynomial(tuple("v%d" % j for j in range(n)), shifted)


@st.composite
def edge_pairs(draw):
    """(a, b) whose product has top shifted degree 2^k - 1 or 2^k: small
    degrees, and the 8/16/32/64-bit field boundaries 127/128, 32767/32768,
    2^31 - 1/2^31 and 2^63 - 1/2^63."""
    n = draw(st.integers(1, 8))
    k = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 15, 31, 63)))
    total = (1 << k) - draw(st.integers(0, 1))
    da = draw(st.integers(1, total - 1)) if total > 1 else 1
    offsets = st.tuples(*[st.integers(-40, 40)] * n)
    a = draw(edge_factor(n, draw(offsets), da))
    b = draw(edge_factor(n, draw(offsets), max(total - da, 1)))
    return a, b


pairs = st.one_of(wide_pairs(), edge_pairs())


@given(pairs)
@settings(max_examples=80, deadline=None)
def test_packed_product_matches_naive_product(ab):
    a, b = ab
    assert a * b == naive_product(a, b)
    assert b * a == naive_product(a, b)


@given(pairs, st.sampled_from(["a", "a*q", "a*q + a", "a*q + lead"]))
@settings(max_examples=80, deadline=None)
def test_exact_division_is_exact_or_refuses(aq, form):
    a, q = aq
    if q.is_zero():
        return
    p = a * q
    if form == "a":
        p = a
    elif form == "a*q + a":
        p = p + a
    elif form == "a*q + lead" and not p.is_zero():
        # the leading coefficient of the dividend no longer divides evenly
        p = p + LaurentPolynomial(p.vars, {p.sorted_terms()[0][0]: 1})
    try:
        r = lp_exact_div(p, q)
    except NonExactDivision:
        return
    assert naive_product(r, q) == p


@given(pairs)
@settings(max_examples=80, deadline=None)
def test_division_undoes_multiplication_across_field_widths(ab):
    p, q = ab
    if q.is_zero():
        return
    assert lp_exact_div(p * q, q) == p
    if not p.is_zero():
        assert lp_exact_div(p * q, p) == q


def naive_sum(p, q):
    """Reference sum on exponent tuples, no packing."""
    t = dict(p.terms)
    for e, c in q.terms.items():
        t[e] = t.get(e, 0) + c
    return LaurentPolynomial(p.vars, t)


@st.composite
def chain_quads(draw):
    """Four polynomials in 1..6 variables whose degrees put their products
    in different field widths, so packed and eager operands of different
    widths meet."""
    n = draw(st.integers(1, 6))
    offsets = st.tuples(*[st.integers(-40, 40)] * n)
    degrees = st.sampled_from((1, 2, 5, 63, 64, 120, 127, 128, 200))
    return tuple(draw(edge_factor(n, draw(offsets), draw(degrees))) for _ in range(4))


@given(chain_quads())
@settings(max_examples=60, deadline=None)
def test_packed_chains_match_naive_arithmetic(abcd):
    a, b, c, d = abcd
    ab, cd = naive_product(a, b), naive_product(c, d)
    assert (a * b) * c == naive_product(ab, c)
    assert c * (a * b) == naive_product(ab, c)
    assert a * b + c * d == naive_sum(ab, cd)
    assert a * b - c * d == naive_sum(ab, naive_product(cd, LaurentPolynomial.const(a.vars, -1)))
    # a packed operand meets an eager one, possibly of another width
    assert a * b + c == naive_sum(ab, c)
    assert c + a * b == naive_sum(ab, c)
    assert (a * b) * 3 * d == naive_product(naive_product(ab, d), LaurentPolynomial.const(a.vars, 3))
    assert lp_exact_div(a * b + a * c, a) == naive_sum(b, c)
    assert lp_exact_div(a * b * c, a * b) == c
    # cancelling sums fall back to fewer terms
    assert (a * b + c) - a * b == c
    assert (a * b - naive_product(a, b)).is_zero()


def test_exchange_dividend_is_divided_without_unpacking():
    x = lp_parse("x + 1", VARS)
    y = lp_parse("y^2 + x*y + 1", VARS)
    dividend = x * y + x * x * x
    assert lp_exact_div(dividend, x) == naive_sum(y, naive_product(x, x))
    # the terms slot of the packed dividend is still unset
    with pytest.raises(AttributeError):
        LaurentPolynomial.terms.__get__(dividend)
    assert dividend == naive_sum(naive_product(x, y), naive_product(naive_product(x, x), x))


def boundary_factors(n, degree, offset):
    """x^offset * (1 + x_{i}^degree + a few mixed terms) for i < n: minimum
    exponents offset and top shifted degree exactly `degree`."""
    for i in range(n):
        terms = {(0,) * n: 1 + i % 3, tuple(degree if j == i else 0 for j in range(n)): 2}
        mixed = tuple((j + i) % 3 for j in range(n))
        if 0 < sum(mixed) < degree:
            terms[mixed] = -1
        shifted = {tuple(a + offset for a in e): c for e, c in terms.items()}
        yield LaurentPolynomial(tuple("v%d" % j for j in range(n)), shifted)


@pytest.mark.slow
@pytest.mark.parametrize("top", (126, 127, 128, 129))
def test_products_and_divisions_on_the_8_to_16_bit_boundary(top):
    for n in range(1, 13):
        for da in (1, top // 2, top - 1):
            for a in boundary_factors(n, da, -3):
                for b in boundary_factors(n, top - da, 2):
                    p = a * b
                    assert p == naive_product(a, b)
                    assert lp_exact_div(p, a) == b
                    assert lp_exact_div(p, b) == a
                    lead = LaurentPolynomial(p.vars, {p.sorted_terms()[0][0]: 1})
                    with pytest.raises(NonExactDivision):
                        lp_exact_div(p + lead, a * lead * lead)


@given(pairs, st.integers(2, 9), st.integers(-40, 40))
@settings(max_examples=60, deadline=None)
def test_monomial_divisor_with_non_unit_coefficient(ab, c, shift):
    p, _ = ab
    n = len(p.vars)
    m = LaurentPolynomial.monomial(p.vars, [shift] * n, -c)
    assert lp_exact_div(p * m, m) == p
    if any(v % c for v in p.terms.values()):
        with pytest.raises(NonExactDivision):
            lp_exact_div(p, m)
    else:
        assert naive_product(lp_exact_div(p, m), m) == p


def test_exact_division_detects_remainder():
    p = lp_parse("x + y", VARS)
    q = lp_parse("x + 1", VARS)
    with pytest.raises(NonExactDivision):
        lp_exact_div(p, q)
    # exponents divide term by term, but 2 does not divide 3
    with pytest.raises(NonExactDivision):
        lp_exact_div(lp_parse("3*x + 2", VARS), lp_parse("2*x + 2", VARS))


@given(nonzero_polys)
def test_canonical_text_parse_round_trip(p):
    assert lp_parse(lp_canonical_text(p), VARS) == p


@given(polys)
def test_json_round_trip(p):
    assert lp_from_json(lp_to_json(p), VARS) == p


def test_canonical_text_is_grlex_descending():
    p = poly({(1, 1): 1, (2, 0): 3, (0, 0): 1, (1, 0): 2})
    # total degree descending, then exponent tuple descending
    assert lp_canonical_text(p) == "3*x^2 + x*y + 2*x + 1"


def test_negative_exponents_render_with_carets():
    p = poly({(-1, 2): 1, (0, -2): -1})
    assert lp_canonical_text(p) == "x^-1*y^2 - y^-2"
    assert lp_parse("x^-1*y^2 - y^-2", VARS) == p


def test_denominator_vector_reads_min_exponents():
    # (x*y + 1) / (x^2 * y)  has denominator vector (2, 1)
    p = poly({(-1, 0): 1, (-2, -1): 1})
    assert lp_denominator_vector(p, 2) == (2, 1)
    # positive-only polynomial: clamped at zero from the monomial x*y
    q = poly({(1, 1): 1, (2, 0): 1})
    assert lp_denominator_vector(q, 2) == (-1, 0)


def test_substitute_monomial():
    p = lp_parse("x^2 + x*y", VARS)
    out = lp_substitute_monomial(
        p,
        {
            "x": LaurentPolynomial.monomial(VARS, (0, 2)),
            "y": LaurentPolynomial.var(VARS, "y"),
        },
    )
    assert out == lp_parse("y^4 + y^3", VARS)


def test_rename_reindexes_into_a_new_ambient_tuple():
    p = lp_parse("x^2*y + y", VARS)
    q = lp_rename(p, ("z", "x", "y"))
    assert q.vars == ("z", "x", "y")
    assert q == lp_parse("x^2*y + y", ("z", "x", "y"))
    # with a variable map, names are translated before reindexing
    r = lp_rename(p, VARS, var_map={"x": "y", "y": "x"})
    assert lp_canonical_text(r) == "x*y^2 + x"


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=50)
def test_rational_equality_is_cross_multiplication(p, q, r):
    a = RationalExpression(p * r, q * r)
    b = RationalExpression(p, q)
    assert a == b
    assert a.simplify() == b


def test_equal_rational_expressions_hash_alike():
    a = LaurentPolynomial.var(VARS, "x")
    b = LaurentPolynomial.var(VARS, "y")
    r = RationalExpression(a * a - b * b, a - b)
    s = RationalExpression.from_poly(a + b)
    assert r == s
    assert len({r, s}) == 1


def test_rational_expression_equals_only_rational_expressions():
    # equality across types would need a hash shared with the other type
    p = LaurentPolynomial.var(VARS, "x") + LaurentPolynomial.var(VARS, "y")
    r = RationalExpression.from_poly(p)
    assert r != p and p != r
    assert len({r, p}) == 2
    one = RationalExpression.from_poly(LaurentPolynomial.const(VARS, 1))
    assert one != 1 and 1 != one
    assert len({one, 1}) == 2


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=50)
def test_rational_hash_ignores_a_common_factor(p, q, r):
    assert hash(RationalExpression(p * r, q * r)) == hash(RationalExpression(p, q))


def test_rational_arithmetic():
    one = LaurentPolynomial.const(VARS, 1)
    x = LaurentPolynomial.var(VARS, "x")
    y = LaurentPolynomial.var(VARS, "y")
    a = RationalExpression(x + one, y)
    b = RationalExpression(y, x + one)
    assert a * b == RationalExpression.from_poly(one)
    assert a.inverse() == b
    s = a + b
    assert s == RationalExpression((x + one) ** 2 + y * y, y * (x + one))


@given(polys)
@settings(max_examples=50)
def test_first_power_is_the_polynomial_itself(p):
    # immutable, so p ** 1 need not copy; other powers are repeated products
    assert p ** 1 is p
    acc = LaurentPolynomial.const(VARS, 1)
    for k in range(5):
        assert p ** k == acc
        acc = acc * p


def test_exchange_monomials_skip_constant_one_factors(monkeypatch):
    one = LaurentPolynomial.const(VARS, 1)
    x = poly({(1, 0): 1})
    f = poly({(0, 0): 1, (0, 1): 2})
    calls = []
    real = LaurentPolynomial.__mul__

    def counting_mul(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counting_mul)
    assert lp_exchange_monomials([(one, 2), (x, 1), (one, -3)], VARS) == (x, one)
    assert lp_exchange_monomials([(one, 1), (one, -1)], VARS) == (one, one)
    assert calls == []
    assert lp_exchange_monomials([(x, 1), (one, 1), (f, 1)], VARS) == (x * f, one)
    assert len(calls) == 2  # x * f above and here
