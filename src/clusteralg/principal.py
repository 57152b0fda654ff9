"""Cluster patterns with principal coefficients.

Tracks, per tree vertex reached by a mutation path, the extended matrix,
the cluster variables X (Laurent in x1..xn, y1..yn), the F-polynomials
(in y1..yn), and the g-/c-vectors.  Every quantity is computed by two
independent routes and cross-checked.

The state at a vertex is one immutable PatternState record: the extended
matrix Btilde (its bottom n rows are the c-vectors, read by c_vector), the
cluster variables X, their F-polynomials F and their g-vectors g, each a
tuple indexed from 0.

The exchange relation at a vertex fixes X_k', F_k' = X_k'|_{x=1} and the
g-vector of X_k'.  A pattern divides once per exchangeable pair (mutation
is an involution; see _step), one exact division for X_k', reads F_k' off
X_k' and checks it against its own recurrence by one product, and keeps
the result in its exchange table.  The two g-vector recurrences, whose
agreement is degree consistency, read only what the table's key fixes,
because every stored g is the multidegree of its X; they run against the
multidegree once in each direction of a relation, when it is recorded.
The labeled route of conjecture_suite on A4 and D4 makes 940 runs for
14,787 steps, the route over relabeling classes 940 runs for 2,113 steps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .laurent import (
    LaurentPolynomial,
    RationalExpression,
    lp_denominator_vector,
    lp_equal,
    lp_exact_div,
    lp_exchange_monomials,
    lp_substitute_monomial,
)
from .mutation import (
    LabeledYSeed,
    _permutation_group,
    _permute_rows,
    _pos,
    exchange_key,
    matrix,
    mutate_matrix,
    mutate_y,
    principal_extension,
    skew_symmetrizer,
)
from .semifield import (
    TropicalMonomial,
    TropicalSemifield,
    UniversalSemifield,
    sf_eval_poly,
    trop_eval_exps,
    trop_eval_positive_poly,
)


class CrossCheckFailure(AssertionError):
    pass


class PatternState(NamedTuple):
    """One vertex of a principal pattern."""

    Btilde: tuple
    X: tuple
    F: tuple
    g: tuple

    def c_vector(self, j):
        """The c-vector of index j (1-based): column j of the bottom rows."""
        return tuple(row[j - 1] for row in self.Btilde[len(self.X):])


def g_recurrence(Bt, g, k, b0cols):
    """The g-vector of the variable that replaces x_k (1-based) when the
    vertex with extended matrix Bt and g-vectors g mutates at k, b0cols
    being the columns of the initial exchange matrix.

    It is computed through the b_ik > 0 and through the b_ik < 0.  The two
    differ by sum_i b_ik g_i - sum_j b_{n+j,k} b0_j, so their agreement is
    the degree-consistency identity, and a CrossCheckFailure otherwise.
    """
    n = len(g)
    kk = k - 1
    gk = []
    for s in (1, -1):
        v = [-a for a in g[kk]]
        for i in range(n):
            b = s * Bt[i][kk]
            if b > 0:
                for r in range(n):
                    v[r] += b * g[i][r]
        for j in range(n):
            c = s * Bt[n + j][kk]
            if c > 0:
                col = b0cols[j]
                for r in range(n):
                    v[r] -= c * col[r]
        gk.append(tuple(v))
    if gk[0] != gk[1]:
        raise CrossCheckFailure(
            "g-vector recurrences disagree at k=%d: %s through b_ik > 0, %s through"
            " b_ik < 0, so sum_i b_ik g_i != sum_j b_{n+j,k} b0_j" % (k, gk[0], gk[1])
        )
    return gk[0]


def g_mutation_rule(B0, k, g):
    """The g-vector, with respect to the seed mu_k(t0), of the cluster
    variable whose g-vector with respect to t0 (exchange matrix B0) is g:
    g'_k = -g_k and g'_j = g_j + [b_jk]+ g_k - b_jk min(g_k, 0) for j != k
    (FZ IV Conj. 7.12, proven by Gross-Hacking-Keel-Kontsevich)."""
    kk = k - 1
    gk = g[kk]
    out = [a + _pos(row[kk]) * gk - row[kk] * min(gk, 0) for a, row in zip(g, B0)]
    out[kk] = -gk
    return tuple(out)


class PrincipalPattern:
    """Memoized principal-coefficient walk data keyed by path prefix."""

    def __init__(self, B0):
        self.B0 = matrix(B0)
        self.n = len(self.B0)
        skew_symmetrizer(self.B0)
        n = self.n
        self.xvars = tuple("x%d" % (i + 1) for i in range(n))
        self.yvars = tuple("y%d" % (j + 1) for j in range(n))
        self.vars = self.xvars + self.yvars
        Bt0 = principal_extension(self.B0)
        # constants of every step: the y_j in x,y and in y alone
        self._frozen = tuple(LaurentPolynomial.var(self.vars, v) for v in self.yvars)
        self._y = tuple(LaurentPolynomial.var(self.yvars, v) for v in self.yvars)
        X0 = tuple(LaurentPolynomial.var(self.vars, v) for v in self.xvars)
        F0 = (LaurentPolynomial.const(self.yvars, 1),) * n
        g0 = tuple(tuple(1 if i == ell else 0 for i in range(n)) for ell in range(n))
        self._states = {(): PatternState(Bt0, X0, F0, g0)}
        self._b0cols = [tuple(self.B0[i][j] for i in range(n)) for j in range(n)]
        # exchange_key -> (X_k', F_k', g-vector of X_k'), both directions
        # of each relation; each X_k' and F_k' -> itself; (F, kk) -> h
        self._exchanges = {}
        self._interned = {v: v for v in X0 + F0}
        self._hvals = {}

    # -- walking ------------------------------------------------------
    def state(self, path):
        path = tuple(path)
        if path in self._states:
            return self._states[path]
        prev = self.state(path[:-1])
        st = self._step(prev, path[-1])
        self._states[path] = st
        return st

    def _step(self, st, k):
        """The state mu_k(st).  A new relation is divided by _exchange and
        also recorded for the step back: the key of the mutated cluster and
        the negated column k fixes the same P + M and the divisor X_k', so
        its exact quotient is st's (X_k, F_k, g_k).  Its checks are the
        forward ones read the other way, and X_k's own ran when X_k was made.

        g_recurrence reads x_k, the (x_i, b_ik) with b_ik != 0, the frozen
        column, B0 and the g_i, and every stored g_i is the multidegree of
        x_i: all fixed by the exchange key.  So it runs against the
        multidegree once per direction when the relation is recorded, and a
        table hit runs none."""
        kk = k - 1
        Bt = st.Btilde
        Bt2 = mutate_matrix(Bt, k)
        col = [row[kk] for row in Bt]
        key = exchange_key(st.X, col, kk)
        ex = self._exchanges.get(key)
        if ex is None:
            Xk, Fk, gk = self._exchange(st, k, col)
            # the forward step, then the step back from the mutated vertex;
            # both run before the relation is recorded, so a failure repeats
            self._check_g(Bt, st.g, k, gk)
            self._check_g(Bt2, st.g[:kk] + (gk,) + st.g[k:], k, st.g[kk])
            # equal cluster variables of two relations become one object:
            # the states hold one copy, and dict lookups hit by identity
            Xk = self._interned.setdefault(Xk, Xk)
            Fk = self._interned.setdefault(Fk, Fk)
            ex = self._exchanges[key] = (Xk, Fk, gk)
            back = exchange_key(st.X[:kk] + (Xk,) + st.X[k:], [-b for b in col], kk)
            self._exchanges[back] = (st.X[kk], st.F[kk], st.g[kk])
        Xk, Fk, gk = ex
        return PatternState(
            Bt2,
            st.X[:kk] + (Xk,) + st.X[k:],
            st.F[:kk] + (Fk,) + st.F[k:],
            st.g[:kk] + (gk,) + st.g[k:],
        )

    def _check_g(self, Bt, g, k, deg):
        """Raise unless g_recurrence at k from (Bt, g) gives the multidegree deg."""
        rec = g_recurrence(Bt, g, k, self._b0cols)
        if rec != deg:
            msg = "g-vector recurrence %s disagrees with multidegree %s at k=%d"
            raise CrossCheckFailure(msg % (rec, deg, k))

    def _exchange(self, st, k, col):
        """(X_k', F_k', g-vector of X_k') of the exchange at k from st, col
        being column k of st's extended matrix.

        Runs once per exchangeable pair (see _step): one exact division
        for X_k', F_k' read off it at x = 1 and checked against the F
        recurrence F_k F_k' = Fp + Fm by one product, the multidegree and
        the structural invariants.
        """
        n = self.n
        kk = k - 1
        plus, minus = lp_exchange_monomials(
            zip(st.X + self._frozen, col), self.vars
        )
        Xk = lp_exact_div(plus + minus, st.X[kk])
        Fk = self._at_x_one(Xk)
        Fp, Fm = lp_exchange_monomials(
            zip(self._y + st.F, col[n:] + col[:n]), self.yvars
        )
        if not lp_equal(st.F[kk] * Fk, Fp + Fm):
            raise CrossCheckFailure("F-polynomial recurrence disagrees at k=%d" % k)
        gk = self._multidegree(Xk)
        # structural invariants, on F's exponents: X's y-exponents
        low = Fk.min_exponents()
        if min(low) < 0:
            raise CrossCheckFailure("negative y-exponent in a cluster variable")
        if any(low):
            raise CrossCheckFailure("F-polynomial divisible by a y-variable")
        return Xk, Fk, gk

    def _at_x_one(self, X):
        """X at x_i = 1, in y alone: each exponent's y-part, coefficients
        summed."""
        n = self.n
        F = {}
        for e, c in X.terms.items():
            f = e[n:]
            F[f] = F.get(f, 0) + c
        return LaurentPolynomial(self.yvars, F)

    def _multidegree(self, X):
        n = self.n
        deg = None
        for e in X.terms:
            d = list(e[:n])
            for j in range(n):
                a = e[n + j]
                if a:
                    col = self._b0cols[j]
                    for r in range(n):
                        d[r] -= a * col[r]
            d = tuple(d)
            if deg is None:
                deg = d
            elif deg != d:
                raise CrossCheckFailure("cluster variable is not homogeneous")
        return deg

    def _h_value(self, F, kk):
        """u^h = F|_Trop(u)(u^{[-b_kj]+}, u^{-1} at kk), b the entries of
        this pattern's B0 and k = kk + 1; memoized per (F, kk)."""
        key = (F, kk)
        h = self._hvals.get(key)
        if h is None:
            h = self._hvals[key] = tropical_one_var_eval(
                F, kk, [_pos(-b) for b in self.B0[kk]]
            )
        return h

    # -- accessors ----------------------------------------------------
    def g_value(self, path, ell):
        return self.state(path).g[ell - 1]

    def d_value(self, path, ell):
        """Denominator vector of X in the x-variables."""
        return lp_denominator_vector(self.state(path).X[ell - 1], self.n)

    def y_value(self, path, j):
        """Y_j = y^{c_j} prod_i F_i^{b_ij} at the end of path, in the
        universal semifield (FZ IV Prop. 3.13): the RationalExpression of
        the factors with positive exponent over the others, unreduced."""
        st = self.state(path)
        n = self.n
        col = [row[j - 1] for row in st.Btilde]
        num, den = lp_exchange_monomials(
            zip(self._y + st.F, col[n:] + col[:n]), self.yvars
        )
        return RationalExpression(num, den)

    def y_hat(self, path):
        """The hatted coefficients at the vertex: monomials in x and y."""
        st = self.state(path)
        n = self.n
        out = []
        for j in range(n):
            e = [st.Btilde[i][j] for i in range(2 * n)]
            out.append(LaurentPolynomial.monomial(self.vars, e))
        return tuple(out)


def y_factored(B0, path):
    """Coefficients at the end of path as (tropical part, F-exponent vector).

    Y_j = y^{c_j} * prod_i F_i^{b_ij}; cross-checked against a direct
    universal-semifield Y-walk.
    """
    pat = PrincipalPattern(B0)
    n = pat.n
    st = pat.state(path)
    S = TropicalSemifield(pat.yvars)
    out = [
        (S.monomial(st.c_vector(j)), tuple(st.Btilde[i][j - 1] for i in range(n)))
        for j in range(1, n + 1)
    ]
    # cross-check against the universal semifield walk
    U = UniversalSemifield(pat.yvars)
    ys = LabeledYSeed([U.generator(v) for v in pat.yvars], B0, U)
    for k in path:
        ys = mutate_y(ys, k)
    for j in range(n):
        if pat.y_value(path, j + 1) != ys.y[j]:
            raise CrossCheckFailure("factored Y disagrees with direct Y-mutation")
    return out


def _embed_trop_monomial(value, variables):
    e = [0] * len(variables)
    for name, a in zip(value.gens, value.exps):
        if a:
            e[list(variables).index(name)] = a
    return RationalExpression.from_poly(
        LaurentPolynomial.monomial(variables, e)
    )


def separation_evaluate(
    B0,
    path,
    ell,
    S,
    x_field=None,
    y_field=None,
    y_in_S=None,
    pattern=None,
):
    """Cluster variable at (path, ell) with coefficients evaluated in S.

    Returns X|_field(x, y) / F|_S(y), cross-checked against the rescaled
    form (F|_field(yhat)/F|_S(y)) * prod x_i^{g_i}.  Field values are
    RationalExpressions; defaults are the generic generators over
    (x1..xn, y1..yn).
    """
    pat = pattern if pattern is not None else PrincipalPattern(B0)
    n = pat.n
    st = pat.state(path)
    variables = pat.vars
    if x_field is None:
        x_field = tuple(
            RationalExpression.from_poly(LaurentPolynomial.var(variables, v))
            for v in pat.xvars
        )
    if y_field is None:
        y_field = tuple(
            RationalExpression.from_poly(LaurentPolynomial.var(variables, v))
            for v in pat.yvars
        )
    if y_in_S is None:
        y_in_S = tuple(S.generator(v) for v in pat.yvars)
    X = st.X[ell - 1]
    F = st.F[ell - 1]
    g = st.g[ell - 1]

    f_s = sf_eval_poly(F, dict(zip(pat.yvars, y_in_S)), S)
    if isinstance(f_s, TropicalMonomial):
        f_s_field = _embed_trop_monomial(f_s, variables)
    elif isinstance(f_s, Fraction):
        f_s_field = RationalExpression(
            LaurentPolynomial.const(variables, f_s.numerator),
            LaurentPolynomial.const(variables, f_s.denominator),
        )
    else:
        f_s_field = f_s

    # form 1: evaluate X in the field
    val1 = _eval_poly_field(X, list(x_field) + list(y_field)) / f_s_field

    # form 2: x^g * F(yhat) / F|_S
    yhat = []
    for j in range(n):
        v = y_field[j]
        for i in range(n):
            b = pat.B0[i][j]
            if b:
                v = v * x_field[i] ** b
        yhat.append(v)
    num = _eval_poly_field(F, yhat, variables=pat.yvars)
    val2 = num / f_s_field
    for i in range(n):
        if g[i]:
            val2 = val2 * x_field[i] ** g[i]
    if val1 != val2:
        raise CrossCheckFailure("separation forms disagree")
    return val1


def _eval_poly_field(p, values, variables=None):
    """Evaluate a Laurent polynomial at RationalExpression values."""
    vs = variables if variables is not None else p.vars
    tvars = values[0].vars
    acc = RationalExpression.from_poly(LaurentPolynomial.zero(tvars))
    for e, c in p.sorted_terms():
        term = RationalExpression.from_poly(LaurentPolynomial.const(tvars, c))
        for a, v in zip(e, values):
            if a:
                term = term * v ** a
        acc = acc + term
    return acc


def tropical_one_var_eval(F, special_index, exps):
    """u^h = F|_Trop(u)(u^{e_1}, ..., u^{-1} at the special slot, ...)."""
    weights = list(exps)
    weights[special_index] = -1
    return trop_eval_exps(F, [weights])[0]


def _pattern(patterns, M):
    """The pattern of M in the cache `patterns` (matrix -> pattern)."""
    if M not in patterns:
        patterns[M] = PrincipalPattern(M)
    return patterns[M]


def g_transition(B0, k, path, ell, patterns=None, return_h=False):
    """g-vector of (path, ell) with respect to the seed mutated at k.

    Verified three ways: a fresh walk from the mutated initial matrix, the
    transition identity through h'_k, and the h/g quotient formula.
    """
    B0 = matrix(B0)
    patterns = patterns if patterns is not None else {}
    pat0 = _pattern(patterns, B0)
    pat1 = _pattern(patterns, mutate_matrix(B0, k))
    gp, hk, hpk = _g_transition(pat0, pat1, k, path, ell)
    if return_h:
        return gp, hk, hpk
    return gp


def _mutated_path(k, path):
    """The vertex of the pattern of mu_k(B0) whose seed is the seed at path
    of the pattern of B0: path read from the initial seed mu_k(t0)."""
    return path[1:] if path[:1] == (k,) else (k,) + path


def _g_transition(pat0, pat1, k, path, ell):
    """g_transition on the patterns of B0 and mu_k(B0); returns (g', h_k, h'_k)."""
    B0 = pat0.B0
    n = pat0.n
    path = tuple(path)
    st0 = pat0.state(path)
    st1 = pat1.state(_mutated_path(k, path))
    g = st0.g[ell - 1]
    gp = st1.g[ell - 1]
    kk = k - 1
    # h'_k from F wrt (B1; t1), h_k from F wrt (B0; t0); B1 = mu_k(B0)
    # negates row k, so both read [-b_kj]+ of their own pattern's matrix
    hpk = pat1._h_value(st1.F[ell - 1], kk)
    hk = pat0._h_value(st0.F[ell - 1], kk)
    if g[kk] != -gp[kk]:
        raise CrossCheckFailure("g-transition fails in the mutated direction")
    for i in range(n):
        if i == kk:
            continue
        b = B0[i][kk]
        if g[i] != gp[i] + _pos(-b) * gp[kk] + b * hpk:
            raise CrossCheckFailure("g-transition identity fails at i=%d" % (i + 1))
    if g[kk] != hk - hpk:
        raise CrossCheckFailure("g_k != h_k - h'_k")
    return gp, hk, hpk


def _d_g_assignments(pat):
    """Images of the y_j in Trop(u_1..u_n): u^{b_j} (column j of B0) for the
    d+g identity, and u_j^{-1} for the pure-d form."""
    n = pat.n
    S = TropicalSemifield(tuple("u%d" % (i + 1) for i in range(n)))
    d_plus_g = {y: S.monomial(col) for y, col in zip(pat.yvars, pat._b0cols)}
    pure_d = {
        y: S.monomial(tuple(-1 if i == j else 0 for i in range(n)))
        for j, y in enumerate(pat.yvars)
    }
    return d_plus_g, pure_d


def _d_g_relation(pat, st, ell, assignments):
    """(exact d+g tropical-F identity, conjectural pure-d form) at cluster
    variable ell (0-based) of state st; the second is None for a monomial."""
    n = pat.n
    d_plus_g, pure_d = assignments
    X = st.X[ell]
    F = st.F[ell]
    g = st.g[ell]
    d = lp_denominator_vector(X, n)
    exact = trop_eval_positive_poly(F, d_plus_g).exps == tuple(
        -d[i] - g[i] for i in range(n)
    )
    conjectural = None
    if not X.is_monomial():
        conjectural = trop_eval_positive_poly(F, pure_d).exps == tuple(
            -d[i] for i in range(n)
        )
    return exact, conjectural


# -- conjecture audit ------------------------------------------------------


def seed_signature(st):
    """A labeled seed up to equality: its extended matrix and cluster."""
    return st.Btilde, st.X


def enumerate_pattern(B0, max_seeds=500, max_depth=None):
    """BFS over labeled principal seeds; returns {signature: path}.

    Mutation is an involution: when mu_k of the seed at `path` is the seen
    seed at q, mu_k of the seed at q is the seed at `path`.  Direction k of
    q is then marked in back[q] and never computed, so each labeled edge is
    computed once.
    """
    pat = PrincipalPattern(B0)
    n = pat.n
    seen = {}
    back = {(): set()}
    frontier = [()]
    seen[seed_signature(pat.state(()))] = ()
    complete = True
    while frontier:
        nxt = []
        for path in frontier:
            if max_depth is not None and len(path) >= max_depth:
                complete = False
                continue
            for k in range(1, n + 1):
                if k in back[path]:
                    continue
                p2 = path + (k,)
                sig = seed_signature(pat.state(p2))
                q = seen.get(sig)
                if q is not None:
                    back[q].add(k)
                    continue
                if len(seen) >= max_seeds:
                    complete = False
                    continue
                seen[sig] = p2
                back[p2] = {k}
                nxt.append(p2)
        frontier = nxt
    return pat, seen, complete


def _dominating_term(F):
    """The unique term whose exponent vector dominates all others, or None."""
    best = None
    for e in F.terms:
        if best is None or all(a >= b for a, b in zip(e, best)):
            best = e
    for e in F.terms:
        if any(a > b for a, b in zip(e, best)):
            return None
    return best


def _f_verdicts(F):
    """(constant term 1, positive coefficients, unique dominating monomial
    with coefficient 1) of an F-polynomial."""
    dom = _dominating_term(F)
    return (
        F.constant_term() == 1,
        all(c > 0 for c in F.terms.values()),
        dom is not None and F.terms[dom] == 1,
    )


def _transition_verdict(pat0, pat1, k, path, ell):
    """(failure message or None, h_equals_min_0_g, g_transition_rule) for
    the cluster variable (path, ell) of pat0 under the change of initial
    seed to pat1, the pattern of mu_k(B0)."""
    try:
        gp, hk, hpk = _g_transition(pat0, pat1, k, path, ell)
    except CrossCheckFailure as exc:
        return str(exc), None, None
    g = pat0.state(path).g[ell - 1]
    kk = k - 1
    h_ok = hpk == -_pos(g[kk]) and hk == min(0, g[kk])
    return None, h_ok, g_mutation_rule(pat0.B0, k, g) == gp


# checked on every (seed, ell); d_through_F only where X is not a monomial
_PER_VARIABLE_CHECKS = (
    "f_constant_term_1",
    "f_positive_coefficients",
    "f_unique_dominating_monomial",
    "c_vector_sign_coherent",
    "three_equivalences_consistent",
    "d_plus_g_through_F",
    "d_through_F",
)


def conjecture_suite(
    B0, max_seeds=500, max_depth=None, transition_checks=True, paths=None
):
    """Audit the open properties on an enumerated pattern; never raises
    for a property violation — returns a machine-readable report.

    With `paths` given, audits exactly those vertices (e.g. a bipartite
    belt) instead of enumerating the whole pattern.  A full enumeration
    audits one seed per relabeling class where that route finishes clean
    (see _class_suite); otherwise the labeled route runs, so a partial
    report and every violation text name labeled paths."""
    B0 = matrix(B0)
    if paths is None and max_depth is None:
        report = _class_suite(B0, max_seeds, transition_checks)
        if report is not None:
            return report
    return _labeled_suite(B0, max_seeds, max_depth, transition_checks, paths)


def _labeled_suite(
    B0, max_seeds=500, max_depth=None, transition_checks=True, paths=None
):
    """conjecture_suite on every labeled seed of the enumeration, or on
    the vertices of paths."""
    if paths is not None:
        pat = PrincipalPattern(B0)
        seen = [tuple(p) for p in paths]
        complete = False
    else:
        pat, seen, complete = enumerate_pattern(B0, max_seeds, max_depth)
        seen = list(seen.values())
    negpat, mutated = _suite_patterns(pat, transition_checks)
    violations, non_monomial, failed = _audit(pat, negpat, mutated, seen)
    return _report(
        complete, len(seen), pat.n, non_monomial, failed, violations, transition_checks
    )


def _class_suite(B0, max_seeds, transition_checks):
    """conjecture_suite on one seed per relabeling class (see
    _relabeling_classes), every instance count times |G|; None, for the
    labeled route to run, when classes * |G| exceeds max_seeds or a
    representative shows a violation or raises CrossCheckFailure."""
    pat = PrincipalPattern(B0)
    negpat, mutated = _suite_patterns(pat, transition_checks)
    try:
        walked = _relabeling_classes(pat, negpat, mutated, max_seeds)
        if walked is None:
            return None
        reps, order = walked
        violations, non_monomial, _ = _audit(pat, negpat, mutated, reps)
    except CrossCheckFailure:
        return None
    if violations:
        return None
    return _report(
        True, len(reps) * order, pat.n, non_monomial * order, 0, {}, transition_checks
    )


def _suite_patterns(pat, transition_checks):
    """The patterns of -B0 and of each mu_k(B0) (none without transition
    checks), pat being B0's; a pattern equal to one already built is
    shared."""
    B0 = pat.B0
    patterns = {B0: pat}
    negpat = _pattern(patterns, matrix([[-v for v in row] for row in B0]))
    if not transition_checks:
        return negpat, []
    return negpat, [_pattern(patterns, mutate_matrix(B0, k)) for k in range(1, pat.n + 1)]


def _relabeling_classes(pat, negpat, mutated, max_seeds):
    """(paths of one seed per relabeling class, order of G), G the group of
    relabelings that mutation realizes; None as soon as the classes found
    times the order of the group of the tau so far exceed max_seeds.

    A BFS over the joint state at a path p: B0's state at p, -B0's at p
    and each mu_k(B0)'s at _mutated_path(k, p), which is all the audit
    reads at p.  A class is keyed by B0's X in g-vector order and its
    extended matrix relabeled to that order; two equal g-vectors raise
    CrossCheckFailure.  On every revisit the relabeling tau (tau[i] the
    index in the representative of the variable at i) must carry every
    component of the representative, X and whole extended matrix, onto
    the new joint state, or CrossCheckFailure.  So the joint state is
    G-equivariant along every path; G acts freely, the X being distinct;
    and each verdict of an orbit is its representative's, |G| times.  This
    rests on no theorem.
    """
    n = pat.n
    identity = tuple(range(n))

    def joint(path):
        return [pat.state(path), negpat.state(path)] + [
            m.state(_mutated_path(k, path)) for k, m in enumerate(mutated, 1)
        ]

    def class_key(st):
        if len(set(st.g)) < n:
            raise CrossCheckFailure("a cluster repeats a g-vector: %s" % (st.g,))
        sigma = tuple(sorted(identity, key=st.g.__getitem__))
        return tuple(st.X[i] for i in sigma), _permute_rows(st.Btilde, n, sigma)

    first = joint(())
    index = {class_key(first[0]): 0}
    # the BFS queue: the loop reaches each class as it is appended
    reps = [((), first)]
    gens = []
    group = {identity}
    for path, _ in reps:
        for k in range(1, n + 1):
            p2 = path + (k,)
            states = joint(p2)
            key = class_key(states[0])
            w = index.get(key)
            if w is None:
                if (len(reps) + 1) * len(group) > max_seeds:
                    return None
                index[key] = len(reps)
                reps.append((p2, states))
                continue
            rep_path, rep_states = reps[w]
            tau = tuple(map(rep_states[0].X.index, states[0].X))
            for st, rep in zip(states, rep_states):
                X = tuple(rep.X[j] for j in tau)
                if st.X != X or st.Btilde != _permute_rows(rep.Btilde, n, tau):
                    raise CrossCheckFailure(
                        "the joint state at path=%s is not the one at path=%s"
                        " relabeled by %s" % (list(p2), list(rep_path), tau)
                    )
            if tau not in group:
                gens.append(tau)
                group = _permutation_group(gens, n)
                if len(reps) * len(group) > max_seeds:
                    return None
    return [path for path, _ in reps], len(group)


def _audit(pat, negpat, mutated, paths):
    """(violations by check name, instances of d_through_F, failed
    transitions) of the seeds of pat at paths; mutated holds the patterns
    of mu_k(B0) whose transitions are checked."""
    n = pat.n
    violations = {}

    def violate(name, path, detail=""):
        violations.setdefault(name, []).append("path=%s%s" % (list(path), detail))

    assignments = _d_g_assignments(pat)
    inv_sub = {v: LaurentPolynomial.var(pat.yvars, v, -1) for v in pat.yvars}
    # Verdicts are computed once per distinct input and recorded once per
    # instance.  Within one pattern X fixes F (X at x = 1) and g (its
    # multidegree), so the d/g relation is keyed by X and the F checks by
    # F.  A transition verdict is keyed by (k, X, X'), X' being variable ell
    # at _mutated_path(k, path) in the pattern of mu_k(B0): X and X' fix g,
    # g', h_k and h'_k, which are all that _g_transition and the two rules
    # read.  This needs no theorem; it is what the checks compute from.
    f_verdicts = {}
    d_g_verdicts = {}
    neg_images = {}
    transitions = {}
    non_monomial = 0
    failed = 0

    for path in paths:
        st = pat.state(path)
        for ell in range(n):
            X = st.X[ell]
            F = st.F[ell]
            fv = f_verdicts.get(F)
            if fv is None:
                fv = f_verdicts[F] = _f_verdicts(F)
            const_ok, positive, dominating = fv
            c = st.c_vector(ell + 1)
            coherent = all(v >= 0 for v in c) or all(v <= 0 for v in c)
            # three equivalent conditions agree
            exactly_one = any(v > 0 for v in c) != any(v < 0 for v in c)
            # d+g through tropical F (exact statement) and d through F (conjecture)
            dg = d_g_verdicts.get(X)
            if dg is None:
                dg = d_g_verdicts[X] = _d_g_relation(pat, st, ell, assignments)
            exact, conjectural = dg
            if conjectural is not None:
                non_monomial += 1
            verdicts = (
                const_ok,
                positive,
                dominating,
                coherent,
                const_ok == coherent == exactly_one,
                exact,
                conjectural is not False,
            )
            if all(verdicts):
                continue
            for name, ok in zip(_PER_VARIABLE_CHECKS, verdicts):
                if not ok:
                    violate(name, path, " ell=%d" % (ell + 1))
        # g-vector sign coherence across the cluster, per coordinate
        gs = st.g
        if not all(
            all(gs[ell][i] >= 0 for ell in range(n))
            or all(gs[ell][i] <= 0 for ell in range(n))
            for i in range(n)
        ):
            violate("g_vectors_sign_coherent", path)
        # F under B vs -B
        stn = negpat.state(path)
        for ell in range(n):
            Fn = stn.F[ell]
            image = neg_images.get(Fn)
            if image is None:
                Fn_inv = lp_substitute_monomial(Fn, inv_sub)
                shift = Fn_inv.min_exponents()
                image = neg_images[Fn] = Fn_inv.shift(tuple(-a for a in shift))
            if st.F[ell] != image:
                violate("f_B_vs_negB", path, " ell=%d" % (ell + 1))
        # transition rules at every direction k
        for k, pat1 in enumerate(mutated, 1):
            try:
                X1 = pat1.state(_mutated_path(k, path)).X
            except CrossCheckFailure as exc:
                X1, walk_failure = None, (str(exc), None, None)
            for ell in range(1, n + 1):
                if X1 is None:
                    verdict = walk_failure
                else:
                    key = (k, st.X[ell - 1], X1[ell - 1])
                    verdict = transitions.get(key)
                    if verdict is None:
                        verdict = transitions[key] = _transition_verdict(
                            pat, pat1, k, path, ell
                        )
                message, h_ok, rule_ok = verdict
                if message is not None:
                    failed += 1
                    violate(
                        "h_and_g_transition_exact",
                        path,
                        " k=%d ell=%d: %s" % (k, ell, message),
                    )
                    continue
                if not h_ok:
                    violate("h_equals_min_0_g", path, " k=%d ell=%d" % (k, ell))
                if not rule_ok:
                    violate("g_transition_rule", path, " k=%d ell=%d" % (k, ell))
    return violations, non_monomial, failed


def _report(complete, seeds, n, non_monomial, failed, violations, transition_checks):
    """The report of an audit of `seeds` labeled seeds of rank n."""
    per_ell = seeds * n
    instances = dict.fromkeys(_PER_VARIABLE_CHECKS + ("f_B_vs_negB",), per_ell)
    instances["d_through_F"] = non_monomial
    instances["g_vectors_sign_coherent"] = seeds
    if transition_checks:
        instances["h_and_g_transition_exact"] = per_ell * n
        instances["h_equals_min_0_g"] = instances["g_transition_rule"] = (
            per_ell * n - failed
        )
    report = [
        {"name": name, "instances": count, "violations": violations.get(name, [])}
        for name, count in sorted(instances.items())
        if count
    ]
    return {"complete": complete, "seeds": seeds, "checks": report}
