"""The sparse route for the belt F-polynomials, kept as the test oracle for
`belt_f_recurrence`: the same two-term recurrence, run on exact Laurent
polynomials with one exact division per new F."""

from clusteralg.bipartite import NotBipartite, orbit_vector, tau_action
from clusteralg.laurent import LaurentPolynomial, lp_exact_div
from clusteralg.mutation import cartan_counterpart_and_sign, matrix


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
