"""Denominator-vector and g-vector parametrizations of cluster monomials."""

from __future__ import annotations

from fractions import Fraction

from .mutation import exchanged_d_vector, matrix
from .principal import (
    CrossCheckFailure,
    PrincipalPattern,
    _d_g_assignments,
    _d_g_relation,
)


class RankDeficient(ValueError):
    pass


class NotInM(ValueError):
    pass


def recurrence_d_vectors(pat, path):
    """The d-vectors of the cluster at each vertex of path, the root first,
    by the max-recurrence: one exchanged_d_vector call per step, on the
    column of the pattern's matrix at the vertex before it."""
    pat.state(path)  # a direction above the rank fails here, not on a column
    n = pat.n
    d = tuple(tuple(-1 if i == l else 0 for i in range(n)) for l in range(n))
    yield d
    for t, k in enumerate(path):
        col = [row[k - 1] for row in pat.state(path[:t]).Btilde]
        d = d[: k - 1] + (exchanged_d_vector(d, col, k),) + d[k:]
        yield d


def checked_d_vector(pat, path, ell, recurred):
    """The d-vector of x_ell at the end of path by Laurent extraction,
    which must equal recurred, its value by the max-recurrence."""
    extracted = pat.d_value(path, ell)
    if extracted != recurred:
        msg = "d-vector of x_%d after path %r: %r by Laurent extraction, %r by the max-recurrence"
        raise CrossCheckFailure(msg % (ell, tuple(path), extracted, recurred))
    return extracted


def d_vector(B0, path, ell, pattern=None):
    """Denominator vector at (path, ell), by Laurent extraction and by the
    max-recurrence; the two routes must agree."""
    pat = pattern if pattern is not None else PrincipalPattern(B0)
    *_, d = recurrence_d_vectors(pat, path)
    return checked_d_vector(pat, path, ell, d[ell - 1])


def _row_reduce(rows):
    """Reduced row echelon form of rows over the rationals, exactly, and
    its pivot columns."""
    M = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(M[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [a / M[r][c] for a in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
    return M, pivots


def _solve_integer(columns, target):
    """Solve sum_j c_j * columns[j] = target over the integers, or None."""
    n = len(columns)
    R, pivots = _row_reduce(
        [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    )
    if n in pivots:  # a pivot in the target column: no rational solution
        return None
    sol = [0] * n
    for row, c in enumerate(pivots):
        sol[c] = R[row][n]
    if any(s.denominator != 1 for s in sol):
        return None
    return tuple(int(s) for s in sol)


def g_vector_general(Btilde, z):
    """g-vector of z (a RationalExpression over the m ambient variables at
    one vertex) via the unique primitive hatted-coefficient presentation."""
    Bt = matrix(Btilde)
    m = len(Bt)
    n = len(Bt[0])
    cols = [tuple(Bt[i][j] for i in range(m)) for j in range(n)]
    if len(_row_reduce(Bt)[1]) != n:
        raise RankDeficient("extended matrix does not have full rank")

    def reduce_part(poly):
        if poly.is_zero():
            raise NotInM("zero has no presentation")
        terms = list(poly.terms)
        base = terms[0]
        gammas = []
        for e in terms:
            diff = tuple(a - b for a, b in zip(e, base))
            sol = _solve_integer(cols, diff)
            if sol is None:
                raise NotInM("term exponents do not differ by coefficient columns")
            gammas.append(sol)
        mins = tuple(min(g[j] for g in gammas) for j in range(n))
        # base exponent of the primitive polynomial part
        off = list(base)
        for j in range(n):
            if mins[j]:
                for i in range(m):
                    off[i] += mins[j] * cols[j][i]
        return tuple(off)

    s = z.simplify()
    en = reduce_part(s.num)
    ed = reduce_part(s.den)
    return tuple(en[i] - ed[i] for i in range(n))


def monomial_vectors(B0, path, a, pattern=None):
    """(denominator vector, g-vector) of the cluster monomial with
    exponents a at the end of path."""
    pat = pattern if pattern is not None else PrincipalPattern(B0)
    n = pat.n
    if any(ai < 0 for ai in a):
        raise ValueError("cluster-monomial exponents must be nonnegative")
    d = [0] * n
    g = [0] * n
    for ell in range(1, n + 1):
        if not a[ell - 1]:
            continue
        dl = d_vector(B0, path, ell, pat)
        gl = pat.g_value(path, ell)
        for r in range(n):
            d[r] += a[ell - 1] * dl[r]
            g[r] += a[ell - 1] * gl[r]
    return tuple(d), tuple(g)


def d_g_relation_check(B0, path, ell, pattern=None):
    """Exact d+g tropical-F identity plus the conjectural pure-d form."""
    pat = pattern if pattern is not None else PrincipalPattern(B0)
    exact, conjectural = _d_g_relation(
        pat, pat.state(path), ell - 1, _d_g_assignments(pat)
    )
    return {"exact_d_plus_g": exact, "conjectural_d": conjectural}
