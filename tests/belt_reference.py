"""The sparse route for the belt F-polynomials, kept as the test oracle for
`belt_f_recurrence`: the same two-term recurrence, run on exact Laurent
polynomials with one exact division per new F.  Also the text-comparison
route of the non-repetition certificate, the oracle for `belt_distinct`."""

from clusteralg.bipartite import Belt, NotBipartite, orbit_vector, tau_action
from clusteralg.laurent import LaurentPolynomial, lp_canonical_text, lp_exact_div
from clusteralg.mutation import cartan_counterpart_and_sign, matrix
from clusteralg.principal import CrossCheckFailure


def _pos(a):
    return a if a > 0 else 0


def belt_f_reference(B, m_hi):
    """{(i, m): F(i;m)} over y1..yn from
    F(j;m-1) F(j;m+1) = y^[-d]+ prod F(i;m)^(-a_ij) + y^[d]+, d = d(j;m-1),
    by exact sparse division."""
    B = matrix(B)
    A, eps = cartan_counterpart_and_sign(B)
    if eps is None:
        raise NotBipartite("belt recurrence needs a bipartite matrix")
    n = len(A)
    yvars = tuple("y%d" % (i + 1) for i in range(n))
    one = LaurentPolynomial.const(yvars, 1)
    table = {}
    for i in range(n):
        table[(i + 1, 0 if eps[i] == 1 else -1)] = one
    for m in range(0, m_hi):
        for j in range(n):
            if eps[j] != (1 if (m + 1) % 2 == 0 else -1):
                continue
            d = orbit_vector(A, eps, j, m - 1, tau_action)
            t1 = LaurentPolynomial.monomial(yvars, tuple(_pos(-v) for v in d))
            for i in range(n):
                if i != j and A[i][j]:
                    t1 = t1 * table[(i + 1, m)] ** (-A[i][j])
            t2 = LaurentPolynomial.monomial(yvars, tuple(_pos(v) for v in d))
            table[(j + 1, m + 1)] = lp_exact_div(t1 + t2, table[(j + 1, m - 1)])
    return table


def distinct_reference(belt, cap):
    """The text-comparison route for the infinite-type branch of
    `periodicity_check`: the tracked x_{i;m} and Y_{i;m}, m = 0..cap, by
    canonical text, Y after gcd-free simplification.  Texts of equal Y can
    differ, so this route can miss a repeat; kept as the oracle the residue
    route must agree with."""
    seen_x = {}
    seen_y = {}
    eps = belt.eps
    for m in range(0, cap + 1):
        for i in range(1, belt.n + 1):
            if eps[i - 1] == (1 if m % 2 == 0 else -1):
                t = lp_canonical_text(belt.x_im(i, m))
                if t in seen_x:
                    raise CrossCheckFailure(
                        "x repeats: (%d;%d) vs %s" % (i, m, seen_x[t])
                    )
                seen_x[t] = (i, m)
            if eps[i - 1] == (1 if (m - 1) % 2 == 0 else -1):
                v = belt.y_universal(i, m).simplify()
                t = (lp_canonical_text(v.num), lp_canonical_text(v.den))
                if t in seen_y:
                    raise CrossCheckFailure(
                        "y repeats: (%d;%d) vs %s" % (i, m, seen_y[t])
                    )
                seen_y[t] = (i, m)


def periodicity_reference(B, cap):
    """`periodicity_check` on an infinite type by the text-comparison route."""
    distinct_reference(Belt(B), cap)
    return {"finite": False, "no_period_up_to": cap}
