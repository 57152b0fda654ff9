"""Bipartite belt dynamics, Y-systems, and root-lattice machinery."""

from __future__ import annotations

from .laurent import (
    _P61,
    LaurentPolynomial,
    RationalExpression,
    _fingerprint,
    lp_denominator_vector,
    lp_substitute_monomial,
)
from .mutation import (
    _pos,
    bipartite_matrix_from_cartan,
    bipartite_sign_from_cartan,
    cartan_counterpart_and_sign,
    matrix,
    positive_definite,
    tree_symmetrizer,
)
from .principal import (
    CrossCheckFailure,
    PrincipalPattern,
    g_mutation_rule,
    g_walk,
    seed_signature,
)
from .semifield import UniversalSemifield


class NotBipartite(ValueError):
    pass


# -- root lattice ---------------------------------------------------------


def _simple(n, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(n))


def reflect(A, ks, v, w):
    """v with each v_k, k in ks, replaced by -v_k - sum_{j != k} a_kj w_j.
    With w = v that is s_k(v)_k, so the result is the product of the simple
    reflections s_k when no two k are joined; tau_action passes w = [v]+."""
    out = list(v)
    for k in ks:
        out[k] = -v[k] - sum(A[k][j] * w[j] for j in range(len(w)) if j != k)
    return tuple(out)


def t_action(A, eps, sign, v):
    """Product of simple reflections over the indices with eps(k) = sign."""
    return reflect(A, [k for k, e in enumerate(eps) if e == sign], v, v)


def tau_action(A, eps, sign, v):
    """Piecewise-linear involution: like t but truncating at zero."""
    ks = [k for k, e in enumerate(eps) if e == sign]
    return reflect(A, ks, v, tuple(map(_pos, v)))


def e_action(eps, v):
    return tuple(-e * c for e, c in zip(eps, v))


def tracked(eps, m):
    """The 0-based indices i with eps(i) = (-1)^m: the belt tracks x_{i;m}
    at these i, and y_{j;m} at the j of tracked(eps, m - 1)."""
    sign = -1 if m % 2 else 1
    return tuple(i for i, e in enumerate(eps) if e == sign)


def initial_keys(eps, lag=0):
    """The keys (i + 1, m), m = -1 or 0, of the belt's initial values in
    the order of i: the x_{i;m} at the i of tracked(eps, m), or with lag=1
    the y_{i;m} at the i of tracked(eps, m - 1)."""
    return sorted((i + 1, m) for m in (-1, 0) for i in tracked(eps, m - lag))


def orbit_vector(A, eps, i, m, op=t_action):
    """alpha(i;m) (op=t_action) or d(i;m) (op=tau_action), 0-based i."""
    return orbit_vectors(A, eps, op)(i, m)


def orbit_vectors(A, eps, op=t_action):
    """(i, m) -> orbit_vector(A, eps, i, m, op), which keeps per i the vector
    of each prefix of the alternating word applied so far and extends the
    longest one."""
    prefixes = {}

    def at(i, m):
        if i not in tracked(eps, m):
            raise ValueError("alpha(i;m) requires eps(i) = (-1)^m")
        r = m if m >= 0 else -m - 1
        vs = prefixes.setdefault(i, [_simple(len(A), i, -1)])
        # the alternating word, first applied first: signs eps(i), -eps(i), ...
        while len(vs) <= r:
            vs.append(op(A, eps, eps[i] * (-1) ** (len(vs) - 1), vs[-1]))
        return vs[r]

    return at


def _mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _t_matrix(A, eps, sign):
    n = len(A)
    cols = []
    for j in range(n):
        cols.append(t_action(A, eps, sign, _simple(n, j)))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def cartan_symmetrizer(A):
    """Minimal positive integers d with d_i a_ij = d_j a_ji."""
    d = tree_symmetrizer(A, 1)
    if d is None:
        raise ValueError("Cartan matrix is not symmetrizable")
    return d


def coxeter_data(A):
    """t+/t- matrices, the order h of t+t- (or None), finite-type flag."""
    A = matrix(A)
    eps = bipartite_sign_from_cartan(A)
    tp = _t_matrix(A, eps, 1)
    tm = _t_matrix(A, eps, -1)
    finite = positive_definite(A, cartan_symmetrizer(A))
    h = None
    # t+t- is a Coxeter element, of infinite order in infinite type
    # (Howlett 1982) and of finite order in finite type, where the Weyl
    # group is finite, so its order is searched for only in finite type
    if finite:
        C = _mat_mul(tp, tm)
        ident = _identity(len(A))
        h, P = 1, C
        while P != ident:
            h, P = h + 1, _mat_mul(P, C)
    return {"eps": eps, "t_plus": tp, "t_minus": tm, "h": h, "finite_type": finite}


# -- the belt -------------------------------------------------------------


class Belt:
    """Principal-coefficient bipartite belt built on a memoized pattern."""

    def __init__(self, B):
        B = matrix(B)
        A, eps = cartan_counterpart_and_sign(B)
        if eps is None:
            raise NotBipartite("exchange matrix is not bipartite")
        self.B = B
        self.A = A
        self.eps = eps
        self.n = len(B)
        self.pattern = PrincipalPattern(B)
        # d(i;m), 0-based i, filled on demand and shared by every reader
        self.d_vector = orbit_vectors(A, eps, tau_action)
        self.mu_minus = tuple(k + 1 for k in tracked(eps, 1))
        self._paths = {0: ()}

    def path(self, m):
        """Tree path from the initial vertex to the belt seed at index m;
        the step to m mutates at tracked(eps, r), r = m above 0, m + 1
        below."""
        if m not in self._paths:
            prev, r = (m - 1, m) if m > 0 else (m + 1, m + 1)
            word = tuple(k + 1 for k in tracked(self.eps, r))
            self._paths[m] = self.path(prev) + word
        return self._paths[m]

    def state(self, m):
        return self.pattern.state(self.path(m))

    def seed_key(self, m):
        return seed_signature(self.state(m))

    def x_im(self, i, m):
        """Cluster variable x_{i;m}; requires eps(i) = (-1)^m."""
        if i - 1 not in tracked(self.eps, m):
            raise ValueError("x_{i;m} requires eps(i) = (-1)^m")
        return self.state(m).X[i - 1]

    def c_vector(self, j, m):
        return self.state(m).c_vector(j)

    def y_jm_tracked(self, j, m):
        """Tropical value of y_{j;m} (requires eps(j) = (-1)^(m-1))."""
        if j - 1 not in tracked(self.eps, m - 1):
            raise ValueError("y_{j;m} requires eps(j) = (-1)^(m-1)")
        return self.c_vector(j, m)

    def y_universal(self, j, m):
        """Universal-semifield y_{j;m} from the factored representation."""
        return self.pattern.y_value(self.path(m), j)

    def verify_parity(self, m):
        """x and y parity relations between consecutive belt seeds."""
        st0 = self.state(m)
        st1 = self.state(m + 1)
        for i in tracked(self.eps, m):
            if st0.X[i] != st1.X[i]:
                raise CrossCheckFailure("x-parity fails at i=%d m=%d" % (i + 1, m))
        for j in tracked(self.eps, m - 1):
            c0 = self.c_vector(j + 1, m)
            c1 = self.c_vector(j + 1, m + 1)
            if tuple(-v for v in c0) != c1:
                raise CrossCheckFailure("y-parity fails at j=%d m=%d" % (j + 1, m))

    def verify_exchange(self, j, m):
        """x_{j;m-1} x_{j;m+1} = y^{[-d]+} prod x_{i;m}^{-a_ij} + y^{[d]+}
        with d = d(j;m-1)."""
        n = self.n
        A = self.A
        d = self.d_vector(j - 1, m - 1)
        lhs = self.x_im(j, m - 1) * self.x_im(j, m + 1)
        ambient = self.pattern.vars
        mon_plus = [0] * (2 * n)
        mon_minus = [0] * (2 * n)
        for r in range(n):
            mon_plus[n + r] = _pos(d[r])
            mon_minus[n + r] = _pos(-d[r])
        term1 = LaurentPolynomial.monomial(ambient, mon_minus)
        for i in range(n):
            if i != j - 1 and A[i][j - 1]:
                term1 = term1 * self.x_im(i + 1, m) ** (-A[i][j - 1])
        term2 = LaurentPolynomial.monomial(ambient, mon_plus)
        if lhs != term1 + term2:
            raise CrossCheckFailure("belt exchange relation fails at j=%d m=%d" % (j, m))

    def verify_tropical_y(self, j, m):
        d = self.d_vector(j - 1, m - 1)
        if self.y_jm_tracked(j, m) != tuple(-v for v in d):
            raise CrossCheckFailure("tropical y formula fails at j=%d m=%d" % (j, m))


def belt_walk(B, m_range, verify=True):
    """Build belt seeds over an inclusive index range with invariant checks."""
    belt = Belt(B)
    lo, hi = m_range
    for m in range(0, hi + 1):
        belt.state(m)
    for m in range(0, lo - 1, -1):
        belt.state(m)
    if verify:
        for m in range(lo, hi):
            belt.verify_parity(m)
        for m in range(lo + 1, hi):
            for j in tracked(belt.eps, m - 1):
                belt.verify_exchange(j + 1, m)
                belt.verify_tropical_y(j + 1, m)
    return belt


def belt_f_recurrence(B, m_hi):
    """Belt F-polynomials {(i, m): F(i;m)} over y1..yn from the two-term
    recurrence F(j;m-1) F(j;m+1) = y^[-d]+ prod F(i;m)^(-a_ij) + y^[d]+ with
    d = d(j;m-1), on exact values at integer nodes, interpolated modulo a
    prime (see `belt_modp`), with every F checked as it is made."""
    from .belt_modp import belt_table

    B = matrix(B)
    A, eps = cartan_counterpart_and_sign(B)
    if eps is None:
        raise NotBipartite("belt recurrence needs a bipartite matrix")
    return belt_table(A, eps, m_hi)


# -- Y-systems ------------------------------------------------------------


def y_system_solve(A, S, steps, initial="u", initial_values=None, eps=None):
    """Iterate y_{i;m-1} y_{i;m+1} = prod_{eps(j)=-eps(i)} (y_{j;m} + 1)^{-a_ji}.

    Tracked values: y_{i;m} with eps(i) = (-1)^(m-1).  Initial data is the
    u-tuple (u_i = y_{i;-1} for eps(i)=+1, u_i = y_{i;0} for eps(i)=-1) or
    the y0-tuple (u_i = y_i^{-1} for eps(i)=+1, y_i otherwise).  In a
    UniversalSemifield the values are read off the belt (`_belt_y_values`).
    """
    A = matrix(A)
    n = len(A)
    if eps is None:
        eps = bipartite_sign_from_cartan(A)
    if initial not in ("u", "y"):
        raise ValueError("initial must be 'u' or 'y'")
    if initial_values is None:
        initial_values = [S.generator("u%d" % (i + 1)) for i in range(n)]
    vals = {}
    for key, v in zip(initial_keys(eps, lag=1), initial_values, strict=True):
        vals[key] = S.inverse(v) if initial == "y" and key[1] == -1 else v
    if isinstance(S, UniversalSemifield):
        _belt_y_values(A, eps, steps, vals)
        return vals
    for m in range(0, steps):
        for i in tracked(eps, m):
            prod = S.one()
            for j in range(n):
                if eps[j] == -eps[i] and A[j][i]:
                    w = S.oplus(vals[(j + 1, m)], S.one())
                    prod = S.mul(prod, S.power(w, -A[j][i]))
            vals[(i + 1, m + 1)] = S.div(prod, vals[(i + 1, m - 1)])
    return vals


def _unit_monomial(v):
    """The exponents of v = num / den, a Laurent monomial of coefficient 1."""
    if v.num.is_monomial() and v.den.is_monomial():
        ((e, c),), ((f, d),) = v.num.terms.items(), v.den.terms.items()
        if c == d:
            return tuple(a - b for a, b in zip(e, f))
    raise ValueError("initial value is not a Laurent monomial of coefficient 1")


def _belt_y_values(A, eps, steps, vals):
    """Add y_{j;m}, 0 < m <= steps, to vals, which holds the initial values:
    the belt's Y_{j;m} = y^{c_j} prod_i F_i^{b_ij} (FZ IV Prop. 3.13; they
    solve the Y-system, section 8) with y_i -> y_{i;-1}^{-1} (eps(i) = +1)
    or y_{i;0} (eps(i) = -1), the belt's own initial coefficients.

    Each value is checked by the recurrence y_{j;m-2} y_{j;m} =
    prod_i (y_{i;m-1} + 1)^{-a_ij}, cross-multiplied, modulo 2^61 - 1 at
    the point `laurent._fingerprint` uses: a wrong value passes only if the
    difference of the two sides vanishes there (Schwartz-Zippel)."""
    belt = Belt(bipartite_matrix_from_cartan(A, eps))
    if belt.A != A or belt.eps != tuple(eps):
        raise ValueError("eps is not the bipartite sign of the belt of A")
    mapping, fps = {}, {}
    for (i, m), v in vals.items():
        e = [-a if m == -1 else a for a in _unit_monomial(v)]
        mapping[belt.pattern.yvars[i - 1]] = LaurentPolynomial.monomial(v.vars, e)
        fps[(i, m)] = (_fingerprint(v.num), _fingerprint(v.den))
    for m in range(1, steps + 1):
        for j in tracked(eps, m - 1):
            y = belt.y_universal(j + 1, m)
            num, den = (lp_substitute_monomial(p, mapping) for p in (y.num, y.den))
            v = vals[(j + 1, m)] = RationalExpression(num, den).simplify()
            fp = fps[(j + 1, m)] = (_fingerprint(v.num), _fingerprint(v.den))
            left, right = fps[(j + 1, m - 2)]
            left, right = left * fp[0], right * fp[1]
            for i, row in enumerate(A):
                if i != j and row[j]:
                    N, D = fps[(i + 1, m - 1)]
                    left = left * pow(D, -row[j], _P61) % _P61
                    right = right * pow(N + D, -row[j], _P61) % _P61
            if left % _P61 != right % _P61:
                raise CrossCheckFailure("y-system fails at (%d;%d)" % (j + 1, m))


def periodicity_check(B, mode="seeds", cap=40):
    """Finite type: exact period dividing 2(h+2); infinite type: pairwise
    distinctness of the tracked family up to cap (see `belt_distinct`)."""
    if mode not in ("seeds", "y-system"):
        raise ValueError("mode must be seeds or y-system")
    B = matrix(B)
    A, eps = cartan_counterpart_and_sign(B)
    if eps is None:
        raise NotBipartite("periodicity check needs a bipartite matrix")
    cox = coxeter_data(A)
    belt = Belt(B)
    if cox["finite_type"]:
        h = cox["h"]
        period = 2 * (h + 2)
        if mode == "seeds":
            k0 = belt.seed_key(0)
            k1 = belt.seed_key(1)
            if belt.seed_key(period) != k0 or belt.seed_key(period + 1) != k1:
                raise CrossCheckFailure("belt period does not divide 2(h+2)")
            minimal = period
            for p in range(2, period, 2):
                if period % p:
                    continue
                if belt.seed_key(p) == k0 and belt.seed_key(p + 1) == k1:
                    minimal = p
                    break
            return {"finite": True, "h": h, "period": minimal, "divides": period}
        for m in (0, 1):
            for j in tracked(eps, m - 1):
                if belt.y_universal(j + 1, m) != belt.y_universal(j + 1, m + period):
                    raise CrossCheckFailure("Y-value period fails")
        return {"finite": True, "h": h, "divides": period}
    belt_distinct(belt, cap)
    return {"finite": False, "no_period_up_to": cap}


def _belt_keys(belt, cap):
    """(kind, i, m, key) for m = 0..cap and i = 1..n, in that order: "x"
    and the g-vector of x_{i;m} where eps(i) = (-1)^m, else "y" and the
    c-vector of Y_{i;m}, read off one g_walk of the principal pattern.

    Each key is a function of its value: g is the multidegree of x (see
    g_walk), and the c-vector is Y's image under Q_sf(y) -> Trop(y)."""
    n = belt.n
    walk = g_walk(belt.B)
    for m in range(cap + 1):
        Bt, g = walk(belt.path(m))
        xs = tracked(belt.eps, m)
        for i in range(n):
            if i in xs:
                yield "x", i + 1, m, g[i]
            else:
                yield "y", i + 1, m, tuple(row[i] for row in Bt[n:])


def belt_distinct(belt, cap):
    """Certify that the tracked x_{i;m} and Y_{i;m}, m = 0..cap, of the belt
    are pairwise distinct, or raise CrossCheckFailure naming the first
    repeat.

    Equal values have equal keys (`_belt_keys`), so values are compared
    exactly (x_im by its terms, y_universal by cross-multiplication) only
    within one key, and only an exact match is a repeat.
    """
    seen = {}
    for kind, i, m, key in _belt_keys(belt, cap):
        value = belt.x_im if kind == "x" else belt.y_universal
        earlier = seen.setdefault((kind, key), [])
        for i0, m0 in earlier:
            if value(i, m) == value(i0, m0):
                raise CrossCheckFailure(
                    "%s repeats: (%d;%d) vs %s" % (kind, i, m, (i0, m0))
                )
        earlier.append((i, m))


# -- belt theorems --------------------------------------------------------


def involution_from_boundary(A, eps, h):
    """i -> i* read off alpha(i;h+1) = -alpha_{i*} (and the -h-2 side)."""
    n = len(A)
    star = {}
    for i in range(n):
        if i in tracked(eps, h + 1):
            v = orbit_vector(A, eps, i, h + 1, t_action)
        else:
            v = orbit_vector(A, eps, i, -h - 2, t_action)
        neg = [r for r in range(n) if v[r]]
        if len(neg) != 1 or v[neg[0]] != -1:
            raise CrossCheckFailure("boundary vector is not a negative simple root")
        star[i + 1] = neg[0] + 1
    return star


def belt_verify(B, m_range=None):
    """d/g theorems, constant terms, and the adjacent-seed g relation.

    x_{i;m}, its d-vector and its g-vector come from the belt's pattern.
    The adjacent-seed relation is the g-vector mutation rule (FZ IV Conj.
    7.12) from Sigma_1 = mu_-(Sigma_0), whose exchange matrix is -B, to
    Sigma_0; the g-vectors with respect to Sigma_1 are read off a g_walk
    of -B, which builds no cluster variable."""
    B = matrix(B)
    A, eps = cartan_counterpart_and_sign(B)
    cox = coxeter_data(A)
    if m_range is None:
        if not cox["finite_type"]:
            raise ValueError("m_range required for infinite type")
        h = cox["h"]
        m_range = (-h - 2, h + 1)
    belt = Belt(B)
    n = belt.n
    report = {"checked": 0, "violations": []}

    def note(ok, what):
        report["checked"] += 1
        if not ok:
            report["violations"].append(what)

    # g-vectors seen from the adjacent belt seed Sigma_1 = mu_-(Sigma_0)
    B1 = tuple(tuple(-v for v in row) for row in B)
    walk1 = g_walk(B1)
    wminus = belt.mu_minus
    for m in range(m_range[0], m_range[1] + 1):
        for i in tracked(eps, m):
            X = belt.x_im(i + 1, m)
            d = belt.d_vector(i, m)
            note(lp_denominator_vector(X, n) == d, "d(%d;%d)" % (i + 1, m))
            g = belt.pattern.g_value(belt.path(m), i + 1)
            note(
                g == e_action(eps, tau_action(A, eps, -1, d)),
                "g(%d;%d)" % (i + 1, m),
            )
            # numerator constant term: X has the term x^{-d} (coefficient != 0)
            ct = any(
                all(e[r] == -d[r] for r in range(n)) for e in X.terms
            )
            note(ct, "constant-term(%d;%d)" % (i + 1, m))
            # adjacent-seed g relation: Sigma_0 = mu_-(Sigma_1), and mutation
            # at one k of mu_- leaves the column of every other one as it is
            gp = walk1(tuple(reversed(wminus)) + belt.path(m))[1][i]
            for k in wminus:
                gp = g_mutation_rule(B1, k, gp)
            note(g == gp, "g-transition-bipartite(%d;%d)" % (i + 1, m))
        # sign coherence of the d-vectors across the adjacent tracked family
        ys = tracked(eps, m - 1)
        fam = []
        for j in range(n):
            fam.append(belt.d_vector(j, m - 1 if j in ys else m))
        ok = all(
            all(v[r] >= 0 for v in fam) or all(v[r] <= 0 for v in fam)
            for r in range(n)
        )
        note(ok, "d-sign-coherence(m=%d)" % m)
    # positive-root multiset invariant and boundary involution in finite type
    if cox["finite_type"]:
        h = cox["h"]
        positives = _positive_roots(A)
        alpha = orbit_vectors(A, eps, t_action)
        for lo, hi, tag in ((1, h, "forward"), (-h - 1, -2, "backward")):
            produced = []
            for m in range(lo, hi + 1):
                for i in tracked(eps, m):
                    produced.append(alpha(i, m))
            note(
                sorted(produced) == sorted(positives),
                "positive-root multiset (%s track)" % tag,
            )
        involution_from_boundary(A, eps, h)
    return report


def _positive_roots(A):
    """Reflection closure from the simple roots."""
    n = len(A)
    roots = {_simple(n, i) for i in range(n)}
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for k in range(n):
                w = reflect(A, (k,), v, v)
                if all(c >= 0 for c in w) and w not in roots:
                    roots.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(roots)
