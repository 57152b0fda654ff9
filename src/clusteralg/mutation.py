"""Exchange matrices, extended matrices, labeled seeds, and mutation rules.

Matrices are immutable tuples of row tuples (m rows, n columns, m >= n);
the top n x n block is the exchange matrix proper, rows below it encode
geometric coefficients.  Directions are 1-based throughout.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, neg

from .laurent import LaurentPolynomial, lp_exact_div, lp_exchange_monomials


class NotSkewSymmetrizable(ValueError):
    pass


class SizeGuardExceeded(RuntimeError):
    pass


class InvalidDirection(ValueError):
    pass


class MalformedMatrix(ValueError):
    pass


def _direction(k, n):
    """0-based index of the 1-based mutation direction k of a rank-n seed."""
    if not 1 <= k <= n:
        raise InvalidDirection("mutation direction %r is not in 1..%d" % (k, n))
    return k - 1


def _pos(a):
    return a if a > 0 else 0


def matrix(rows):
    M = tuple(tuple(int(v) for v in row) for row in rows)
    if not M or not M[0]:
        raise MalformedMatrix("matrix is empty")
    n = len(M[0])
    for row in M:
        if len(row) != n:
            raise MalformedMatrix("matrix rows have unequal lengths")
    return M


def principal_part(M, n):
    return tuple(row for row in M[:n])


def tree_symmetrizer(M, sign):
    """Integers d with d_i m_ij = sign * d_j m_ji, coprime on each component
    and positive at its least index, found along a spanning tree; None when
    two tree paths disagree.

    Weights stay reduced pairs (p, q), q > 0, standing for p / q.  An entry
    m_ij != 0 with m_ji = 0 raises ZeroDivisionError, as Fraction(m_ij, 0)
    does.
    """
    n = len(M)
    num = [None] * n
    den = [None] * n
    for root in range(n):
        if num[root] is not None:
            continue
        num[root] = den[root] = 1
        stack = [root]
        comp = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                a = M[i][j]
                if i == j or not a:
                    continue
                b = sign * M[j][i]
                if not b:
                    raise ZeroDivisionError("Fraction(%d, 0)" % a)
                p, q = num[i] * a, den[i] * b
                if q < 0:
                    p, q = -p, -q
                g = gcd(p, q)
                p, q = p // g, q // g
                if num[j] is None:
                    num[j], den[j] = p, q
                    comp.append(j)
                    stack.append(j)
                elif num[j] != p or den[j] != q:
                    return None
        # the root weighs 1, so scaling by the lcm of the denominators
        # leaves coprime integers: the minimal ones
        ell = lcm(*(den[i] for i in comp))
        for i in comp:
            num[i] *= ell // den[i]
    return tuple(num)


def skew_symmetrizer(B):
    """Minimal positive integer d with d_i b_ij = -d_j b_ji, per component."""
    n = len(B)
    for i in range(n):
        if len(B[i]) != n:
            raise ValueError("exchange matrix must be square")
        if B[i][i] != 0:
            raise NotSkewSymmetrizable("nonzero diagonal entry")
        for j in range(n):
            if (B[i][j] == 0) != (B[j][i] == 0):
                raise NotSkewSymmetrizable("zero pattern is not symmetric")
            if B[i][j] * B[j][i] > 0:
                raise NotSkewSymmetrizable("entries b_ij, b_ji have equal signs")
    d = tree_symmetrizer(B, -1)
    if d is None:
        raise NotSkewSymmetrizable("inconsistent symmetrizer weights")
    for i in range(n):
        for j in range(n):
            if d[i] * B[i][j] != -d[j] * B[j][i]:
                raise NotSkewSymmetrizable("symmetrizer check failed")
    return d


# (row k, k) -> {b_ik: the increment of a row with that b_ik under mutation
# at k}, shared by every caller: it is a function of its key alone
_INCREMENTS = {}


def mutate_matrix(M, k):
    """Matrix mutation in direction k (1-based), applied to all m rows.

    Row k is negated and a row with b_ik = 0 is unchanged.  Any other row
    gains sgn(b_ik) [b_ik b_kj]+ = [-b_ik]+ b_kj + b_ik [b_kj]+, with -2 b_ik
    at k: a function of (b_ik, row k, k) alone.  Both formulas are computed
    and asserted equal once per such key, and the increment is kept in a
    module-level table that every later row with that key reads.
    """
    n = len(M[0])
    kk = _direction(k, n)
    rowk = tuple(M[kk])
    incs = _INCREMENTS.setdefault((rowk, kk), {})
    out = []
    for row in M:
        bik = row[kk]
        if not bik:
            out.append(tuple(row))
            continue
        inc = incs.get(bik)
        if inc is None:
            sgn = 1 if bik > 0 else -1
            neg_bik = -bik if bik < 0 else 0
            inc = [sgn * p if (p := bik * bkj) > 0 else 0 for bkj in rowk]
            if inc != [neg_bik * bkj + (bik * bkj if bkj > 0 else 0) for bkj in rowk]:
                raise AssertionError("matrix mutation formulas disagree")
            inc[kk] = -2 * bik
            inc = incs[bik] = tuple(inc)
        out.append(tuple(map(add, row, inc)))
    out[kk] = tuple(map(neg, rowk))
    return tuple(out)


def _permute_rows(Bt, n, sigma):
    """Bt under a relabeling sigma (tuple: new index -> old index) of its
    first n rows and of its columns."""
    if n == 1:  # itemgetter of one index gives the entry, not a tuple
        return tuple(Bt)
    rows = [Bt[i] for i in sigma]
    rows += Bt[n:]
    return tuple(map(itemgetter(*sigma), rows))


def _permutation_group(gens, n):
    """The set of permutations of range(n) in the group generated by gens.
    A generator already in the group is skipped, so the closure is redone
    at most log2(n!) times."""
    group = [tuple(range(n))]
    members = set(group)
    used = []
    for g in gens:
        if g not in members:
            used.append(g)
            # the loop reaches each element as it is appended
            for p in group:
                for s in used:
                    q = tuple(p[i] for i in s)
                    if q not in members:
                        members.add(q)
                        group.append(q)
    return members


def exchanged_d_vector(d, col, k):
    """The d-vector of x'_k from the cluster's d-vectors d and column k of
    the matrix: -d_k + max(sum [b_ik]+ d_i, sum [-b_ik]+ d_i) over the
    mutable i, componentwise (exact by positivity, see _cluster_walk)."""
    kk = _direction(k, len(d))
    plus = minus = (0,) * len(d[kk])
    for di, b in zip(d, col):
        if b > 0:
            plus = tuple(p + b * v for p, v in zip(plus, di))
        elif b < 0:
            minus = tuple(m - b * v for m, v in zip(minus, di))
    return tuple(max(p, m) - v for p, m, v in zip(plus, minus, d[kk]))


class LabeledYSeed:
    __slots__ = ("y", "B", "S")

    def __init__(self, y, B, S):
        self.y = tuple(y)
        self.B = matrix(B)
        self.S = S
        if len(self.y) != len(self.B):
            raise ValueError("coefficient tuple length mismatch")


def mutate_y(ys, k):
    """Y-seed mutation: y'_k = 1/y_k; y'_j = y_j y_k^{[b_kj]+} (y_k+1)^{-b_kj}."""
    S = ys.S
    kk = _direction(k, len(ys.B))
    yk = ys.y[kk]
    yk1 = S.oplus(yk, S.one())
    new = []
    for j, yj in enumerate(ys.y):
        if j == kk:
            new.append(S.inverse(yk))
        else:
            bkj = ys.B[kk][j]
            v = S.mul(yj, S.power(yk, _pos(bkj)))
            v = S.mul(v, S.power(yk1, -bkj))
            new.append(v)
    return LabeledYSeed(new, mutate_matrix(ys.B, k), S)


class LabeledSeedGeometric:
    """Cluster of Laurent polynomials in m ambient variables + extended matrix.

    A constructed seed is validated and starts a new exchange table;
    mutate_seed_geometric hands it on to every seed it derives, so a seed
    and its descendants make one division per exchangeable pair, mutation
    being an involution (see mutate_seed_geometric).
    """

    __slots__ = ("x", "Btilde", "n", "vars", "_exchanges")

    def __init__(self, x, Btilde, n, variables):
        self.x = tuple(x)
        self.Btilde = matrix(Btilde)
        self.n = n
        self.vars = tuple(variables)
        self._exchanges = {}
        if len(self.x) != n or len(self.Btilde[0]) != n:
            raise ValueError("cluster/matrix size mismatch")
        if len(set(self.x)) != n:
            raise ValueError("cluster repeats a cluster variable")
        if len(self.Btilde) != len(self.vars):
            raise ValueError("ambient variable count mismatch")
        skew_symmetrizer(principal_part(self.Btilde, n))

    def frozen_monomial(self, i):
        """The ambient variable with index i (0-based) as a Laurent monomial."""
        e = [0] * len(self.vars)
        e[i] = 1
        return LaurentPolynomial.monomial(self.vars, e)


def initial_geometric_seed(Btilde, variables=None):
    Bt = matrix(Btilde)
    m = len(Bt)
    n = len(Bt[0])
    if variables is None:
        variables = tuple("x%d" % (i + 1) for i in range(m))
    x = []
    for ell in range(n):
        e = [0] * m
        e[ell] = 1
        x.append(LaurentPolynomial.monomial(variables, e))
    return LabeledSeedGeometric(x, Bt, n, variables)


def exchange_key(x, col, kk):
    """The key of an exchange table: x_k, the set of (x_i, b_ik) over
    mutable i with b_ik != 0, and the frozen column.

    x is the cluster, col the full column k of the extended matrix.  The
    cluster variables of a seed are distinct, so the pairs are too, and
    the key fixes the dividend and the divisor of the exchange relation.
    """
    return x[kk], frozenset((v, b) for v, b in zip(x, col) if b), tuple(col[len(x):])


def mutate_seed_geometric(seed, k):
    """The seed mutated in direction k: the extended matrix mutated and x_k
    replaced by x'_k = (prod v^{[b_ik]+} + prod v^{[-b_ik]+}) / x_k.

    x_k, the set of (x_i, b_ik) over mutable i with b_ik != 0, and the
    frozen column fix the dividend and the divisor, so x'_k is read from
    the seed's exchange table, divided once per exchangeable pair: the
    division also records x_k under the key of the step back (x'_k at k,
    column k negated, frozen rows included), which fixes the same dividend
    and the divisor x'_k, so its exact quotient is x_k.
    """
    n = seed.n
    kk = _direction(k, n)
    col = [row[kk] for row in seed.Btilde]
    key = exchange_key(seed.x, col, kk)
    new_xk = seed._exchanges.get(key)
    if new_xk is None:
        factors = list(zip(seed.x, col)) + [
            (seed.frozen_monomial(i), col[i]) for i in range(n, len(col)) if col[i]
        ]
        plus, minus = lp_exchange_monomials(factors, seed.vars)
        new_xk = seed._exchanges[key] = lp_exact_div(plus + minus, seed.x[kk])
        back = exchange_key(seed.x[:kk] + (new_xk,) + seed.x[k:], [-b for b in col], kk)
        seed._exchanges[back] = seed.x[kk]
    # the child shares vars and the exchange table, and skips the validation:
    # mutation keeps the skew-symmetrizer (FZ I, Prop. 4.5) and distinct x
    child = object.__new__(LabeledSeedGeometric)
    child.x = seed.x[:kk] + (new_xk,) + seed.x[k:]
    child.Btilde = mutate_matrix(seed.Btilde, k)
    child.n, child.vars, child._exchanges = seed.n, seed.vars, seed._exchanges
    return child


def mutate_seed_rational_oracle(x, ys, k, max_rank=3):
    """General exchange relation over explicit rational functions.

    Desk-scale oracle: x'_k = (y_k prod x^{[b_ik]+} + prod x^{[-b_ik]+})
    / ((y_k + 1) x_k), coefficients mutated in the universal semifield.
    """
    n = len(ys.B)
    if n > max_rank:
        raise SizeGuardExceeded("oracle limited to rank <= %d" % max_rank)
    kk = _direction(k, n)
    S = ys.S
    yk = ys.y[kk]
    yk1 = S.oplus(yk, S.one())
    plus = yk
    minus = S.one()
    for i in range(n):
        b = ys.B[i][kk]
        if b > 0:
            plus = plus * x[i] ** b
        elif b < 0:
            minus = minus * x[i] ** (-b)
    new_xk = (plus + minus) / (yk1 * x[kk])
    out = list(x)
    out[kk] = new_xk
    return tuple(out), mutate_y(ys, k)


def oracle_walk(Btilde_or_B, path, S, max_rank=3, max_steps=8):
    """Iterate the rational-function oracle along a path from the initial seed."""
    if len(path) > max_steps:
        raise SizeGuardExceeded("oracle limited to paths of length <= %d" % max_steps)
    B = matrix(Btilde_or_B)
    n = len(B[0])
    B = principal_part(B, n)
    xs = tuple(S.generator("x%d" % (i + 1)) for i in range(n))
    y0 = tuple(S.generator("y%d" % (j + 1)) for j in range(n))
    ys = LabeledYSeed(y0, B, S)
    for k in path:
        xs, ys = mutate_seed_rational_oracle(xs, ys, k, max_rank=max_rank)
    return xs, ys


def cartan_counterpart_and_sign(B):
    """Cartan counterpart a_ij = -|b_ij| (a_ii = 2) and the bipartite sign.

    Returns (A, eps) with eps=None when the matrix is not bipartite; raises
    NotSkewSymmetrizable unless B is skew-symmetrizable.  Then b_ij > 0 =>
    eps(i) = +1, eps(j) = -1 fixes eps on every vertex that is not
    isolated: eps(i) = -1 exactly when row i has a negative entry.
    Isolated vertices take +1.
    """
    skew_symmetrizer(B)
    n = len(B)
    A = tuple(
        tuple(2 if i == j else -abs(B[i][j]) for j in range(n)) for i in range(n)
    )
    eps = tuple(-1 if min(row) < 0 else 1 for row in B)
    for i, row in enumerate(B):
        for j, b in enumerate(row):
            if b > 0 and (eps[i] != 1 or eps[j] != -1):
                return A, None
    return A, eps


def positive_definite(A, d):
    """Whether the symmetric matrix (d_i a_ij) is positive definite:
    Fraction elimination without row exchanges, every pivot > 0 (Sylvester).
    """
    n = len(A)
    M = [[Fraction(d[i] * A[i][j]) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = M[c][c]
        if piv <= 0:
            return False
        for r in range(c + 1, n):
            f = M[r][c] / piv
            if f:
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return True


# -- named types ----------------------------------------------------------

CARTAN = {}


def _path_cartan(n):
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


CARTAN["A1"] = _path_cartan(1)
CARTAN["A2"] = _path_cartan(2)
CARTAN["A3"] = _path_cartan(3)
CARTAN["A4"] = _path_cartan(4)
CARTAN["B2"] = ((2, -1), (-2, 2))
CARTAN["B3"] = ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
CARTAN["C3"] = ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
CARTAN["G2"] = ((2, -1), (-3, 2))
CARTAN["D4"] = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)
CARTAN["A1xA1"] = ((2, 0), (0, 2))


def _e_cartan(n):
    # nodes 1..n-1 form a path; node n attaches to node 3 (Bourbaki E-series)
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 2):
        A[i][i + 1] = A[i + 1][i] = -1
    A[2][n - 1] = A[n - 1][2] = -1
    return tuple(tuple(r) for r in A)


CARTAN["E6"] = _e_cartan(6)
CARTAN["E7"] = _e_cartan(7)
CARTAN["E8"] = _e_cartan(8)


def bipartite_sign_from_cartan(A):
    """Two-coloring of the Coxeter graph, +1 on least index per component."""
    n = len(A)
    eps = [0] * n
    for root in range(n):
        if eps[root]:
            continue
        eps[root] = 1
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and A[i][j] != 0:
                    if eps[j] == 0:
                        eps[j] = -eps[i]
                        stack.append(j)
                    elif eps[j] != -eps[i]:
                        raise ValueError("Coxeter graph is not bipartite")
    return tuple(eps)


def bipartite_matrix_from_cartan(A, eps=None):
    """b_ij = -eps(i) a_ij off the diagonal."""
    n = len(A)
    if eps is None:
        eps = bipartite_sign_from_cartan(A)
    return tuple(
        tuple(0 if i == j else -eps[i] * A[i][j] for j in range(n)) for i in range(n)
    )


def named_matrix(name):
    if name in CARTAN:
        return bipartite_matrix_from_cartan(CARTAN[name])
    raise KeyError("unknown type %r" % name)


def rank2_matrix(b, c):
    if b * c < 0:
        raise NotSkewSymmetrizable("b and c must have equal signs")
    B = ((0, b), (-c, 0))
    skew_symmetrizer(B)  # rejects exactly one of b, c being zero
    return B


def principal_extension(B):
    n = len(B)
    rows = [tuple(row) for row in B]
    for j in range(n):
        rows.append(tuple(1 if i == j else 0 for i in range(n)))
    return tuple(rows)


def trivial_extension(B):
    return matrix(B)


def matrix_to_json(M, n=None):
    M = [list(row) for row in M]
    if n is None or n == len(M):
        return json.dumps({"B": M}, separators=(",", ":"))
    return json.dumps({"Btilde": M, "n": n}, separators=(",", ":"))


def matrix_from_json(text):
    """(M, n) from {"B": rows} or {"Btilde": rows, "n": n}.

    Raises MalformedMatrix unless the JSON is an object holding a list of
    lists of integers with n columns, 1 <= n <= rows (n = rows for "B"),
    and NotSkewSymmetrizable unless the top n x n block is an exchange
    matrix.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise MalformedMatrix("matrix file is not JSON: %s" % exc) from None
    if not isinstance(data, dict) or ("B" in data) == ("Btilde" in data):
        raise MalformedMatrix('matrix file must be a JSON object with "B" or "Btilde"')
    rows = data.get("B", data.get("Btilde"))
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in rows
    ):
        raise MalformedMatrix("matrix must be a list of lists of integers")
    M = matrix(rows)
    m, n = len(M), len(M[0])
    if "B" in data and m != n:
        raise MalformedMatrix("B must be square, not %dx%d" % (m, n))
    if "Btilde" in data:
        k = data.get("n")
        if type(k) is not int or k != n or k > m:
            raise MalformedMatrix(
                '"n" must be an integer equal to the column count %d and at '
                "most the row count %d, not %r" % (n, m, k)
            )
    skew_symmetrizer(principal_part(M, n))
    return M, n
