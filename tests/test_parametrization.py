"""Denominator vectors, g-vectors, and their exact linkage."""

import pytest

from clusteralg.laurent import LaurentPolynomial, RationalExpression
from clusteralg.mutation import named_matrix, principal_extension, rank2_matrix
from clusteralg.parametrization import (
    NotInM,
    RankDeficient,
    d_g_relation_check,
    d_vector,
    g_vector_general,
    monomial_vectors,
)
from clusteralg.principal import PrincipalPattern

A2 = named_matrix("A2")
B2 = named_matrix("B2")
WALK = (2, 1, 2, 1, 2)


def test_d_vectors_along_the_pentagon_walk():
    # hand-computed from the cluster variables:
    # x1, x2, (x1 y2 + 1)/x2, (x1 y1 y2 + y1 + x2)/(x1 x2), (y1 + x2)/x1
    expected = {
        1: (0, 1),
        2: (1, 1),
        3: (1, 0),
        4: (0, -1),
        5: (-1, 0),
    }
    for m, d in expected.items():
        ell = WALK[m - 1]
        assert d_vector(A2, WALK[:m], ell) == d


def test_d_vector_routes_agree_for_b2():
    # the Laurent-extraction route and the max-recurrence route are both
    # computed and compared inside d_vector; exercise every vertex
    pat = PrincipalPattern(B2)
    path = ()
    for k in (1, 2, 1, 2, 1, 2):
        path = path + (k,)
        for ell in (1, 2):
            d_vector(B2, path, ell, pattern=pat)


def test_g_vector_general_recovers_pattern_g():
    pat = PrincipalPattern(A2)
    Bt = principal_extension(A2)
    for m in range(6):
        st = pat.state(WALK[:m])
        for ell in (1, 2):
            z = RationalExpression.from_poly(st.X[ell - 1])
            assert g_vector_general(Bt, z) == st.g[ell - 1]


def _binomial(variables, e):
    """1 + the monomial with exponent vector e, as a RationalExpression."""
    one = LaurentPolynomial.const(variables, 1)
    return RationalExpression.from_poly(one + LaurentPolynomial.monomial(variables, e))


def test_g_vector_general_rejects_a_rank_deficient_matrix():
    with pytest.raises(RankDeficient):
        g_vector_general(((0, 0), (0, 0), (1, 1)), _binomial(("a", "b", "c"), (0, 0, 1)))


BT_RANK2 = ((0, 2), (-2, 0), (2, 0), (0, 2))
AMBIENT4 = ("x1", "x2", "y1", "y2")


@pytest.mark.parametrize(
    "e",
    [(1, 0, 0, 0), (0, -1, 1, 0)],
    ids=["outside-the-column-span", "half-a-column"],
)
def test_g_vector_general_rejects_exponent_differences_outside_the_lattice(e):
    # columns (0,-2,2,0) and (2,0,0,2): (0,-1,1,0) is half the first
    with pytest.raises(NotInM):
        g_vector_general(BT_RANK2, _binomial(AMBIENT4, e))


def test_monomial_vectors_are_additive():
    pat = PrincipalPattern(A2)
    path = (2, 1)
    d1 = d_vector(A2, path, 1, pattern=pat)
    d2 = d_vector(A2, path, 2, pattern=pat)
    g1 = pat.g_value(path, 1)
    g2 = pat.g_value(path, 2)
    a = (2, 3)
    d, g = monomial_vectors(A2, path, a, pattern=pat)
    assert d == tuple(2 * u + 3 * v for u, v in zip(d1, d2))
    assert g == tuple(2 * u + 3 * v for u, v in zip(g1, g2))


def test_d_g_relation_holds_on_small_patterns():
    for B in (A2, B2, rank2_matrix(1, 3)):
        pat = PrincipalPattern(B)
        path = ()
        for k in (2, 1, 2, 1, 2, 1):
            path = path + (k,)
            for ell in (1, 2):
                out = d_g_relation_check(B, path, ell, pattern=pat)
                assert out["exact_d_plus_g"]
                assert out["conjectural_d"] in (None, True)
