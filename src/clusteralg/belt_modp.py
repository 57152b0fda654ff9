"""Belt F-polynomials by evaluation and interpolation modulo a prime: the
route behind `bipartite.belt_f_recurrence`, which imports this module on its
first call, so importing `bipartite` costs no more than it did.

The recurrence F(j;m-1) F(j;m+1) = y^[-d]+ prod F(i;m)^(-a_ij) + y^[d]+,
d = d(j;m-1), is run three ways:

- on degrees, which gives each F's degree box exactly, because the
  coefficients of every F are positive (Lee-Schiffler, Annals 2015;
  Gross-Hacking-Keel-Kontsevich, JAMS 2018), so the two terms never cancel;
- on exact integers at y = (1, ..., 1), which gives each F's coefficient sum
  and so a bound on every coefficient;
- on exact integers at the integer nodes of [0, D], D the componentwise
  maximum of the boxes.  With positive coefficients and constant term 1,
  every F is at least 1 there, so each division is exact, node by node; a
  remainder or a divisor of 0 is a CrossCheckFailure.  Each F is evaluated
  on the bounding box of its own box and of the boxes of the F's computed
  from it, and only the two latest layers are kept.  Each new F's values
  are reduced mod p and interpolated on its own box one axis at a time.

With p above twice the largest coefficient sum, the residues are the
coefficients themselves.  Every F is checked for positive residues below
p/2, for its coefficient sum, for its degree box, and for its exact value at
D + (1, ..., 1): a box too small on one axis gives a polynomial that agrees
with F at every node, (1, ..., 1) included, but not beyond them.  p is the
first Mersenne prime of a fixed list above that bound.

`belt_distinct` is the infinite-type branch of
`bipartite.periodicity_check`: it runs the belt's mutations on values mod p
at one fixed point and compares residues.  It builds no polynomial unless
two residues are equal.
"""

from __future__ import annotations

import random
from itertools import product, repeat
from math import prod
from operator import add, floordiv, mod, mul

from .bipartite import initial_keys, orbit_vectors, tau_action, tracked
from .laurent import LaurentPolynomial
from .mutation import _pos, mutate_matrix, principal_extension
from .principal import CrossCheckFailure, g_recurrence

# Mersenne primes 2^k - 1, ascending: the moduli the route may use.
_PRIMES = tuple((1 << k) - 1 for k in (61, 89, 107, 127, 521, 607, 1279))


def _inverse_vandermonde(L, p):
    """Rows of the inverse of the Vandermonde matrix (k^l) on nodes
    k = 0..L-1, mod p: row l maps values at the nodes to the coefficient
    of y^l."""
    V = [
        [pow(k, l, p) for l in range(L)] + [int(k == r) for r in range(L)]
        for k in range(L)
    ]
    for c in range(L):
        inv = pow(V[c][c], -1, p)
        V[c] = [v * inv % p for v in V[c]]
        for r in range(L):
            if r != c and V[r][c]:
                f = V[r][c]
                V[r] = [(a - f * b) % p for a, b in zip(V[r], V[c])]
    return [row[L:] for row in V]


def _belt_degrees(A, eps, m_hi):
    """The recurrence's schedule [(j, m, [-d]+, [d]+, ((i, -a_ij), ...))],
    one step per F(j+1;m+1), and the degree box of every F in the table,
    keyed (i, m) as the table is: deg_r F(j;m+1) = max(deg_r t1, deg_r t2)
    - deg_r F(j;m-1)."""
    n = len(A)
    steps = []
    box = dict.fromkeys(initial_keys(eps), (0,) * n)
    d_vector = orbit_vectors(A, eps, tau_action)
    for m in range(0, m_hi):
        for j in tracked(eps, m + 1):
            d = d_vector(j, m - 1)
            lo = tuple(_pos(-v) for v in d)
            hi = tuple(_pos(v) for v in d)
            nbrs = tuple((i, -A[i][j]) for i in range(n) if i != j and A[i][j])
            t1 = list(lo)
            for i, k in nbrs:
                t1 = [a + k * b for a, b in zip(t1, box[(i + 1, m)])]
            b = tuple(max(a, c) - e for a, c, e in zip(t1, hi, box[(j + 1, m - 1)]))
            if min(b) < 0:
                raise CrossCheckFailure(
                    "belt recurrence is not polynomial at j=%d m=%d" % (j + 1, m + 1)
                )
            box[(j + 1, m + 1)] = b
            steps.append((j, m, lo, hi, nbrs))
    return steps, box


def _belt_values(steps, eps, point):
    """The exact value of every F in the table at a point of positive
    integers, from the recurrence."""
    value = dict.fromkeys(initial_keys(eps), 1)
    for j, m, lo, hi, nbrs in steps:
        t1 = prod(z ** e for z, e in zip(point, lo))
        for i, k in nbrs:
            t1 *= value[(i + 1, m)] ** k
        t2 = prod(z ** e for z, e in zip(point, hi))
        value[(j + 1, m + 1)], rem = divmod(t1 + t2, value[(j + 1, m - 1)])
        if rem:
            raise CrossCheckFailure(
                "belt recurrence is not polynomial at j=%d m=%d" % (j + 1, m + 1)
            )
    return value


def _grid(op, columns):
    """op folded over one entry of each column, at every point of their
    grid, row-major: each entry of an axis is combined with the whole block
    of the axes after it in one map."""
    block = columns[-1]
    for column in reversed(columns[:-1]):
        out = []
        for c in column:
            out += map(op, repeat(c), block)
        block = out
    return block


def _last_axis(values, L, rows, p):
    """Each row of rows applied, mod p, to the last axis of values, an array
    row-major with that axis of length L: output block l is
    sum_k rows[l][k] * values[k::L], so the axis moves to the front."""
    columns = [values[k::L] for k in range(L)]
    out = []
    for row in rows:
        acc = map(mul, columns[0], repeat(row[0]))
        for c, column in zip(row[1:], columns[1:]):
            acc = map(add, acc, map(mul, column, repeat(c)))
        out += map(mod, acc, repeat(p))
    return out


def _interpolate(values, box, p, vinv):
    """Coefficients, row-major over [0, box], of the polynomial of degree
    <= box_r in y_r whose values at the nodes of [0, box] (row-major) are
    values, mod p, solved one axis at a time from the last, so after every
    axis the order is row-major again."""
    for L in reversed([b + 1 for b in box]):
        if L == 1:
            continue
        if L not in vinv:
            vinv[L] = _inverse_vandermonde(L, p)
        values = _last_axis(values, L, vinv[L], p)
    return values


def _evaluate(coeffs, box, point, p):
    """Value mod p at point of the polynomial whose coefficients are given
    row-major over [0, box], summed out one axis at a time from the last."""
    for L, z in zip(reversed([b + 1 for b in box]), reversed(point)):
        coeffs = _last_axis(coeffs, L, [[pow(z, e, p) for e in range(L)]], p)
    return coeffs[0]


def _table_mod_p(n, eps, steps, box, at_one, p):
    """The belt table from exact values at the nodes, interpolated mod p,
    with every F checked."""
    yvars = tuple("y%d" % (i + 1) for i in range(n))
    # each F is needed on its own box and on the boxes of the F's made from it
    need = dict(box)
    for j, m, _, _, nbrs in reversed(steps):
        b = need[(j + 1, m + 1)]
        for dep in [(j + 1, m - 1)] + [(i + 1, m) for i, _ in nbrs]:
            need[dep] = tuple(map(max, need[dep], b))
    D = tuple(map(max, zip(*box.values())))
    # one past the last node on every axis, where a wrong box shows
    beyond = tuple(x + 1 for x in D)
    at_beyond = _belt_values(steps, eps, beyond)
    vinv = {}

    def monomial(e, b):
        """y^e at the nodes of [0, b], row-major."""
        return _grid(mul, [[x ** k for x in range(d + 1)] for k, d in zip(e, b)])

    def restrict(src, v, b):
        """v, given at the nodes of [0, src], at the nodes of [0, b]."""
        if src == b:
            return v
        strides = [prod(s + 1 for s in src[r + 1 :]) for r in range(n)]
        idx = _grid(add, [range(0, (x + 1) * s, s) for x, s in zip(b, strides)])
        return list(map(v.__getitem__, idx))

    one = LaurentPolynomial.const(yvars, 1)
    table = {}
    vals = {}  # vertex -> (box, values) of its F in layer m or m - 1
    for key in initial_keys(eps):
        table[key] = one
        vals[key[0] - 1] = (need[key], [1] * prod(x + 1 for x in need[key]))
    for j, m, lo, hi, nbrs in steps:
        key = (j + 1, m + 1)
        b = need[key]
        factors = [restrict(*vals[i], b) for i, k in nbrs for _ in range(k)]
        if any(lo) or not factors:
            factors.append(monomial(lo, b))
        num = list(map(add, map(prod, zip(*factors)), monomial(hi, b)))
        old = restrict(*vals[j], b)
        # every F is at least 1 at the nodes, so neither check fails on a belt
        if 0 in old:
            raise CrossCheckFailure("F(%d;%d) divides by 0 at a node" % key)
        if any(map(mod, num, old)):
            raise CrossCheckFailure("F(%d;%d) leaves a remainder at a node" % key)
        new = list(map(floordiv, num, old))
        vals[j] = (b, new)
        residues = list(map(mod, restrict(b, new, box[key]), repeat(p)))
        coeffs = _interpolate(residues, box[key], p, vinv)
        if _evaluate(coeffs, box[key], beyond, p) != at_beyond[key] % p:
            raise CrossCheckFailure("F(%d;%d) misses its value beyond the nodes" % key)
        if max(coeffs) > p >> 1:
            raise CrossCheckFailure("F(%d;%d) has a negative coefficient" % key)
        terms = {
            e: c
            for e, c in zip(product(*(range(x + 1) for x in box[key])), coeffs)
            if c
        }
        if sum(terms.values()) != at_one[key]:
            raise CrossCheckFailure("F(%d;%d) does not sum to its value at 1" % key)
        if tuple(map(max, zip(*terms))) != box[key]:
            raise CrossCheckFailure("F(%d;%d) misses its degree box" % key)
        table[key] = LaurentPolynomial._of(yvars, terms)
    return table


def belt_table(A, eps, m_hi):
    """{(i, m): F(i;m)} for m up to m_hi, for the Cartan counterpart A and
    the sign eps of a bipartite exchange matrix."""
    steps, box = _belt_degrees(A, eps, m_hi)
    at_one = _belt_values(steps, eps, (1,) * len(A))
    p = next((p for p in _PRIMES if p > 2 * max(at_one.values())), None)
    if p is None:
        raise ArithmeticError("belt F-polynomials need a prime above the fixed list")
    return _table_mod_p(len(A), eps, steps, box, at_one, p)


# -- non-repetition on the belt ---------------------------------------------


def _point(n):
    """The fixed pseudo-random point (x1..xn, y1..yn) of the residue walk,
    with coordinates in [2, 2^61 - 1), so nonzero modulo every listed prime."""
    rng = random.Random(_PRIMES[0])
    v = [rng.randrange(2, _PRIMES[0]) for _ in range(2 * n)]
    return v[:n], v[n:]


def _inverse(v, p):
    """The inverse of v mod p; ZeroDivisionError when v is 0 mod p."""
    v %= p
    if not v:
        raise ZeroDivisionError("a divisor is 0 modulo %d" % p)
    return pow(v, -1, p)


def _monomials(values, exps, p):
    """(prod v^e over e > 0, prod v^-e over e < 0) mod p."""
    plus = minus = 1
    for v, e in zip(values, exps):
        if e > 0:
            plus = plus * pow(v, e, p) % p
        elif e < 0:
            minus = minus * pow(v, -e, p) % p
    return plus, minus


def _ratio(values, exps, p):
    """prod v^e mod p over integer exponents e."""
    plus, minus = _monomials(values, exps, p)
    return plus * _inverse(minus, p) % p


def _mutate_y(Y, row, kk, p):
    """Y-seed mutation at kk mod p, row being row kk of the exchange matrix:
    y_k' = 1/y_k and y_j' = y_j y_k^[b_kj]+ (1 + y_k)^-b_kj, which is
    y_j (y_k / (1 + y_k))^b_kj for b_kj > 0 and y_j (1 + y_k)^-b_kj for
    b_kj < 0."""
    yk = Y[kk]
    ratio = yk * _inverse(1 + yk, p) % p
    out = [
        y * pow(ratio if b > 0 else 1 + yk, abs(b), p) % p if b else y
        for y, b in zip(Y, row)
    ]
    out[kk] = _inverse(yk, p)
    return out


def belt_residues(belt, cap, p):
    """[(kind, i, m, residue)] for m = 0..cap and i = 1..n, in that order:
    kind "x" with the value of x_{i;m} where eps(i) = (-1)^m, kind "y" with
    the value of Y_{i;m} where eps(i) = (-1)^(m-1), at the fixed point mod p.

    One walk along the belt's path keeps the extended matrix, the g-vectors,
    the cluster variables X, the F-polynomials at y and at
    yhat_j = y_j prod_i x_i^{b_ij}, and the coefficients Y by y-seed
    mutation.  Each new X_k must equal x^{g_k} F_k(yhat), and at every belt
    vertex each Y_j must equal y^{c_j} prod_i F_i^{b_ij}; CrossCheckFailure
    otherwise, ZeroDivisionError when X_k, F_k or 1 + Y_k is 0 mod p.
    """
    n = belt.n
    b0cols = [tuple(row[j] for row in belt.B) for j in range(n)]
    xs, ys = _point(n)
    yhat = [y * _ratio(xs, col, p) % p for y, col in zip(ys, b0cols)]
    Bt = principal_extension(belt.B)
    g = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    X, Fy, Fh, Y = list(xs), [1] * n, [1] * n, list(ys)
    out = []
    done = 0
    for m in range(cap + 1):
        path = belt.path(m)
        for k in path[done:]:
            kk = k - 1
            col = [row[kk] for row in Bt]
            new = []
            for vals, frozen in ((X, ys), (Fy, ys), (Fh, yhat)):
                plus, minus = _monomials(vals + frozen, col, p)
                new.append((plus + minus) * _inverse(vals[kk], p) % p)
            X[kk], Fy[kk], Fh[kk] = new
            gk = g_recurrence(Bt, g, k, b0cols)
            other = _ratio(xs, gk, p) * Fh[kk] % p
            if X[kk] != other:
                raise CrossCheckFailure(
                    "X_%d on the way to belt seed %d: %d by the exchange relation,"
                    " %d by x^g F(yhat), mod %d" % (k, m, X[kk], other, p)
                )
            g = g[:kk] + (gk,) + g[kk + 1 :]
            Y = _mutate_y(Y, Bt[kk], kk, p)
            Bt = mutate_matrix(Bt, k)
        done = len(path)
        for j in range(n):
            other = _ratio(Fy + ys, [row[j] for row in Bt], p)
            if Y[j] != other:
                raise CrossCheckFailure(
                    "Y_%d at belt seed %d: %d by y-seed mutation,"
                    " %d by y^c prod F^b, mod %d" % (j + 1, m, Y[j], other, p)
                )
        for i in range(n):
            if i in tracked(belt.eps, m):
                out.append(("x", i + 1, m, X[i]))
            else:
                out.append(("y", i + 1, m, Y[i]))
    return out


def belt_distinct(belt, cap):
    """Certify that the tracked x_{i;m} and Y_{i;m}, m = 0..cap, of the belt
    are pairwise distinct, or raise CrossCheckFailure naming the first
    repeat.

    Evaluation at a point mod p is a ring homomorphism, so different
    residues prove different values.  Equal residues are compared exactly
    (x_im by its terms, y_universal by cross-multiplication), and only an
    exact match is a repeat.  When a divisor is 0 mod p the walk moves to the
    next prime of the list.
    """
    for p in _PRIMES:
        try:
            residues = belt_residues(belt, cap, p)
        except ZeroDivisionError:
            continue
        break
    else:
        raise ArithmeticError("belt residues hit a zero divisor modulo every listed prime")
    seen = {}
    for kind, i, m, r in residues:
        value = belt.x_im if kind == "x" else belt.y_universal
        earlier = seen.setdefault((kind, r), [])
        for i0, m0 in earlier:
            if value(i, m) == value(i0, m0):
                raise CrossCheckFailure(
                    "%s repeats: (%d;%d) vs %s" % (kind, i, m, (i0, m0))
                )
        earlier.append((i, m))
