"""Semifield carriers and subtraction-free evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteralg.laurent import LaurentPolynomial, lp_parse
from clusteralg.semifield import (
    GeneratorMismatch,
    NonPositiveCoefficient,
    PositiveRationalSemifield,
    TrivialSemifield,
    TropicalSemifield,
    UniversalSemifield,
    sf_eval_poly,
    trop_eval_positive_poly,
)

GENS = ("a", "b")
TROP = TropicalSemifield(GENS)

trop_monomials = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
    TROP.monomial
)


def test_tropical_addition_is_componentwise_min():
    u = TROP.monomial((2, -1))
    v = TROP.monomial((0, 3))
    assert TROP.oplus(u, v) == TROP.monomial((0, -1))


@given(trop_monomials, trop_monomials, trop_monomials)
def test_tropical_semifield_laws(u, v, w):
    assert TROP.oplus(u, v) == TROP.oplus(v, u)
    assert TROP.oplus(TROP.oplus(u, v), w) == TROP.oplus(u, TROP.oplus(v, w))
    assert TROP.mul(u, v) == TROP.mul(v, u)
    assert TROP.mul(u, TROP.inverse(u)) == TROP.one()
    # multiplication distributes over oplus
    assert TROP.mul(u, TROP.oplus(v, w)) == TROP.oplus(
        TROP.mul(u, v), TROP.mul(u, w)
    )
    # oplus is idempotent
    assert TROP.oplus(u, u) == u


def test_tropical_constants_collapse_to_one():
    assert TROP.from_const(7) == TROP.one()
    with pytest.raises(ValueError):
        TROP.from_const(0)


def test_trivial_semifield_has_one_element():
    S = TrivialSemifield()
    assert S.one() == 1
    assert S.oplus(S.one(), S.one()) == 1
    assert S.mul(S.generator("a"), S.inverse(S.one())) == 1
    assert S.from_const(5) == 1


@given(
    st.fractions(min_value=Fraction(1, 9), max_value=9),
    st.fractions(min_value=Fraction(1, 9), max_value=9),
)
def test_positive_rational_semifield(a, b):
    S = PositiveRationalSemifield()
    assert S.oplus(a, b) == a + b
    assert S.mul(a, S.inverse(a)) == S.one()
    assert S.from_const(3) == Fraction(3)


def test_universal_semifield_is_rational_arithmetic():
    U = UniversalSemifield(GENS)
    a = U.generator("a")
    b = U.generator("b")
    v = U.div(U.oplus(a, U.one()), b)
    expected_num = lp_parse("a + 1", GENS)
    expected_den = lp_parse("b", GENS)
    assert v.num * expected_den == v.den * expected_num


def test_sf_eval_poly_matches_direct_substitution():
    yvars = ("y1", "y2")
    F = lp_parse("y1*y2 + y1 + 1", yvars)
    S = PositiveRationalSemifield()
    val = sf_eval_poly(F, {"y1": Fraction(2), "y2": Fraction(3, 2)}, S)
    assert val == Fraction(2) * Fraction(3, 2) + Fraction(2) + 1


def test_sf_eval_poly_tropical_drops_sums():
    yvars = ("y1", "y2")
    F = lp_parse("y1*y2 + y1 + 1", yvars)
    S = TropicalSemifield(("u1", "u2"))
    val = sf_eval_poly(
        F, {"y1": S.monomial((-1, 0)), "y2": S.monomial((2, 1))}, S
    )
    # min over the exponent vectors of the three terms:
    # (1,1), (-1,0), (0,0) -> (-1, 0)
    assert val == S.monomial((-1, 0))


def test_trop_eval_positive_poly_agrees_with_sf_eval_poly():
    yvars = ("y1", "y2")
    F = lp_parse("y1^2*y2 + 2*y1 + 1", yvars)
    S = TropicalSemifield(("u1", "u2"))
    assign = {"y1": S.monomial((1, -2)), "y2": S.monomial((0, 3))}
    assert trop_eval_positive_poly(F, assign) == sf_eval_poly(F, assign, S)


@st.composite
def trop_eval_inputs(draw):
    """A Laurent polynomial with positive coefficients in 1-4 variables and
    an assignment of its variables in Trop of 1-3 generators."""
    nvars = draw(st.integers(1, 4))
    ngens = draw(st.integers(1, 3))
    exponent = st.integers(-5, 5)
    yvars = tuple("y%d" % (j + 1) for j in range(nvars))
    S = TropicalSemifield(tuple("u%d" % (i + 1) for i in range(ngens)))
    terms = draw(
        st.dictionaries(
            st.tuples(*[exponent] * nvars), st.integers(1, 9), min_size=1, max_size=6
        )
    )
    assign = {v: S.monomial(draw(st.tuples(*[exponent] * ngens))) for v in yvars}
    return LaurentPolynomial(yvars, terms), assign, S


@given(trop_eval_inputs())
@settings(max_examples=50)
def test_integer_tropical_evaluation_matches_semifield_evaluation(inputs):
    F, assign, S = inputs
    assert trop_eval_positive_poly(F, assign) == sf_eval_poly(F, assign, S)


def test_trop_eval_positive_poly_errors():
    yvars = ("y1", "y2")
    S = TropicalSemifield(("u1",))
    assign = {"y1": S.monomial((1,)), "y2": S.monomial((-2,))}
    with pytest.raises(NonPositiveCoefficient):
        trop_eval_positive_poly(lp_parse("y1 - y2 + 1", yvars), assign)
    other = {"y1": S.monomial((1,)), "y2": TropicalSemifield(("v1",)).monomial((1,))}
    with pytest.raises(GeneratorMismatch):
        trop_eval_positive_poly(lp_parse("y1*y2 + 1", yvars), other)
    # a variable that does not occur needs no image over the same generators
    assert trop_eval_positive_poly(lp_parse("y1 + 1", yvars), other) == S.one()
    with pytest.raises(ValueError, match="empty assignment"):
        trop_eval_positive_poly(lp_parse("y1 + 1", yvars), {})
    with pytest.raises(ValueError, match="zero polynomial"):
        trop_eval_positive_poly(LaurentPolynomial.zero(yvars), assign)
