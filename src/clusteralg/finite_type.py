"""Root systems, Fibonacci polynomials, universal coefficients, and
coefficient specializations for finite-type exchange matrices."""

from __future__ import annotations

from .bipartite import (
    Belt,
    _positive_roots,
    cartan_symmetrizer,
    coxeter_data,
    orbit_vector,
    tau_action,
)
from .laurent import LaurentPolynomial, lp_canonical_text, lp_denominator_vector
from .mutation import (
    LabeledYSeed,
    _pos,
    cartan_counterpart_and_sign,
    initial_geometric_seed,
    matrix,
    mutate_seed_geometric,
    mutate_y,
    positive_definite,
)
from .principal import CrossCheckFailure
from .semifield import TrivialSemifield, TropicalSemifield


class NotFiniteType(ValueError):
    pass


class VerificationFailure(AssertionError):
    pass


# -- root systems ---------------------------------------------------------


def root_name(coords):
    """Readable label: 'a1+a2', '2a1+3a2', '-a1'."""
    if all(c <= 0 for c in coords):
        nz = [i for i, c in enumerate(coords) if c]
        if len(nz) == 1 and coords[nz[0]] == -1:
            return "-a%d" % (nz[0] + 1)
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        parts.append(("a%d" % (i + 1)) if c == 1 else ("%da%d" % (c, i + 1)))
    if not parts:
        raise ValueError("zero vector has no root label")
    return "+".join(parts)


def root_system_build(A):
    A = matrix(A)
    n = len(A)
    d = cartan_symmetrizer(A)
    if not positive_definite(A, d):
        raise NotFiniteType("symmetrization is not positive definite")
    cox = coxeter_data(A)
    positives = _positive_roots(A)

    def pairing(u, v):
        return sum(
            u[i] * v[j] * d[i] * A[i][j] for i in range(n) for j in range(n)
        )

    def coroot_coords(root):
        norm = pairing(root, root)
        out = []
        for j in range(n):
            num = 2 * d[j] * root[j]
            if num % norm:
                raise VerificationFailure("coroot coordinates are not integral")
            out.append(num // norm)
        return tuple(out)

    neg_simples = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    almost = neg_simples + positives
    allroots = set(positives) | {tuple(-v for v in r) for r in positives}
    for r in allroots:
        for i in range(n):
            s = list(r)
            s[i] = -r[i] - sum(A[i][j] * r[j] for j in range(n) if j != i)
            if tuple(s) not in allroots:
                raise VerificationFailure("root set not reflection-closed")
    if len(almost) != len(positives) + n:
        raise VerificationFailure("almost-positive count mismatch")
    return {
        "A": A,
        "d": d,
        "eps": cox["eps"],
        "h": cox["h"],
        "positive_roots": positives,
        "almost_positive": almost,
        "coroot_coords": coroot_coords,
        "pairing": pairing,
        "almost_positive_coroots": [coroot_coords(r) for r in almost],
    }


# -- Fibonacci polynomials ------------------------------------------------


def _e_plus(p, eps):
    """Invert every variable whose sign is +1 (monomial substitution)."""
    terms = {}
    for e, c in p.terms.items():
        terms[tuple(-v if eps[i] == 1 else v for i, v in enumerate(e))] = c
    return LaurentPolynomial(p.vars, terms)


def fibonacci_polynomials(B, m_range=None):
    """Belt F-polynomials, their variable-inverted forms, and the root
    labeling F[alpha]; every defining identity is re-verified."""
    B = matrix(B)
    A, eps = cartan_counterpart_and_sign(B)
    cox = coxeter_data(A)
    if m_range is None:
        if not cox["finite_type"]:
            raise NotFiniteType("m_range required for infinite type")
        m_range = (0, 2 * (cox["h"] + 2) - 1)
    belt = Belt(B)
    n = belt.n
    yvars = belt.pattern.yvars
    table = {}
    by_root = {}
    for m in range(m_range[0], m_range[1] + 1):
        for ell in range(1, n + 1):
            if eps[ell - 1] != (1 if m % 2 == 0 else -1):
                continue
            F = belt.pattern.state(belt.path(m)).F[ell - 1]
            dv = orbit_vector(A, eps, ell - 1, m, tau_action)
            mon = [0] * n
            for j in range(n):
                if eps[j] == 1:
                    mon[j] = _pos(dv[j])
            f = _e_plus(F, eps) * LaurentPolynomial.monomial(yvars, mon)
            if any(v < 0 for v in f.min_exponents()):
                raise CrossCheckFailure("f is not a polynomial at (%d;%d)" % (ell, m))
            if any(c <= 0 for c in f.terms.values()):
                raise CrossCheckFailure("f coefficient not positive")
            if len(f.terms) != len(F.terms):
                raise CrossCheckFailure("monomial count changed")
            back = _e_plus(f, eps) * LaurentPolynomial.monomial(yvars, mon)
            if back != F:
                raise CrossCheckFailure("f/F round trip failed at (%d;%d)" % (ell, m))
            table[(ell, m)] = {"F": F, "f": f, "d": dv}
            if dv in by_root and by_root[dv] != f:
                raise CrossCheckFailure("F[alpha] is not well defined")
            by_root[dv] = f
    for i in range(n):
        neg = tuple(-1 if j == i else 0 for j in range(n))
        if neg in by_root and not by_root[neg].is_one():
            raise CrossCheckFailure("F[-alpha_i] must be 1")
    return {"A": A, "eps": eps, "table": table, "by_root": by_root}


def fibonacci_recurrence_check(B, fib=None, m_range=None):
    """F[tau+ a] F[tau- a] = y^[-a]+ prod F[d(i;m)]^(-a_ij) + y^[a]+
    for a = d(j;-m-1), checked on every in-range instance."""
    B = matrix(B)
    A, eps = cartan_counterpart_and_sign(B)
    if fib is None:
        fib = fibonacci_polynomials(B, m_range)
    by_root = fib["by_root"]
    n = len(A)
    yvars = tuple("y%d" % (i + 1) for i in range(n))
    checked = 0
    for (j, m1), entry in sorted(fib["table"].items()):
        m = m1 + 1  # entry holds d(j;m-1) = tau+ alpha
        if eps[j - 1] != (1 if (m - 1) % 2 == 0 else -1):
            continue
        alpha = orbit_vector(A, eps, j - 1, -m - 1, tau_action)
        dmin = entry["d"]
        if tau_action(A, eps, 1, alpha) != dmin:
            raise CrossCheckFailure("tau+ alpha mismatch")
        dplus = tau_action(A, eps, -1, alpha)
        if dplus not in by_root or dmin not in by_root:
            continue
        others = []
        ok = True
        for i in range(1, n + 1):
            if i == j or not A[i - 1][j - 1]:
                continue
            di = orbit_vector(A, eps, i - 1, m, tau_action)
            if di not in by_root:
                ok = False
                break
            others.append(by_root[di] ** (-A[i - 1][j - 1]))
        if not ok:
            continue
        lhs = by_root[dmin] * by_root[dplus]
        t1 = LaurentPolynomial.monomial(yvars, tuple(_pos(-v) for v in alpha))
        for q in others:
            t1 = t1 * q
        t2 = LaurentPolynomial.monomial(yvars, tuple(_pos(v) for v in alpha))
        if lhs != t1 + t2:
            raise CrossCheckFailure("F[alpha] recurrence fails at (%d;%d)" % (j, m))
        checked += 1
    return checked


# -- universal coefficients -----------------------------------------------


def universal_build(B, periods=2):
    """Universal tropical coefficient system over generators labeled by
    almost positive coroots, with the belt solution computed two ways."""
    B = matrix(B)
    A, eps = cartan_counterpart_and_sign(B)
    if eps is None:
        raise NotFiniteType("universal coefficients need a bipartite matrix")
    rs = root_system_build(A)
    n = len(A)
    h = rs["h"]
    roots = rs["almost_positive"]
    coroots = rs["almost_positive_coroots"]
    gen_names = tuple("p[%s]" % root_name(r) for r in roots)
    S = TropicalSemifield(gen_names)

    def from_coords(coeff_of):
        """Tropical monomial prod p[g]^coeff_of(g-coroot-coords)."""
        return S.monomial(tuple(coeff_of(w) for w in coroots))

    y0 = tuple(
        from_coords(lambda w, j=j: eps[j] * w[j]) for j in range(n)
    )
    steps = periods * (h + 2) + 1
    initial = [from_coords(lambda w, j=j: -w[j]) for j in range(n)]
    from .bipartite import y_system_solve

    vals = y_system_solve(A, S, steps=2 * steps, initial_values=initial, eps=eps)
    # closed form via the piecewise-linear action of the transpose on coroots
    AT = tuple(zip(*A))
    for (j, m), direct in vals.items():
        if m < 0:
            r = -m - 1
        else:
            r = m
        sign0 = eps[j - 1] * (1 if (r - 1) % 2 == 0 else -1)
        exps = []
        for w in coroots:
            v = w
            s = sign0
            for _ in range(r):
                v = tau_action(AT, eps, s, v)
                s = -s
            exps.append(-v[j - 1])
        if S.monomial(tuple(exps)) != direct:
            raise CrossCheckFailure(
                "universal closed form disagrees at (%d;%d)" % (j, m)
            )
    Btilde = list(B)
    for w in coroots:
        Btilde.append(tuple(eps[j] * w[j] for j in range(n)))
    return {
        "B": B,
        "A": A,
        "eps": eps,
        "h": h,
        "root_system": rs,
        "gen_names": gen_names,
        "gen_roots": tuple(roots),
        "gen_coroots": tuple(coroots),
        "semifield": S,
        "y0": y0,
        "solution": vals,
        "Btilde": tuple(Btilde),
    }


def universal_exchange_relations(U, cap=10000):
    """Enumerate the exchange relations of the geometric realization,
    labeling cluster variables by their denominator roots."""
    Bt = U["Btilde"]
    n = len(U["B"])
    names = tuple("x%d" % (i + 1) for i in range(n)) + U["gen_names"]
    seed = initial_geometric_seed(Bt, names)
    seen = {}
    frontier = [seed]
    relations = {}

    def var_label(p):
        return root_name(lp_denominator_vector(p, n))

    def key(s):
        return tuple(sorted(lp_canonical_text(x) for x in s.x))

    seen[key(seed)] = True
    while frontier:
        nxt = []
        for s in frontier:
            for k in range(1, n + 1):
                s2 = mutate_seed_geometric(s, k)
                beta = var_label(s.x[k - 1])
                beta2 = var_label(s2.x[k - 1])
                pair = tuple(sorted((beta, beta2)))
                if pair not in relations:
                    terms = []
                    for sgn in (1, -1):
                        coeff = [0] * len(U["gen_names"])
                        factors = {}
                        for i in range(len(Bt)):
                            e = _pos(sgn * s.Btilde[i][k - 1])
                            if not e:
                                continue
                            if i < n:
                                lab = var_label(s.x[i])
                                factors[lab] = factors.get(lab, 0) + e
                            else:
                                coeff[i - n] += e
                        terms.append(
                            (tuple(coeff), tuple(sorted(factors.items())))
                        )
                    relations[pair] = tuple(sorted(terms))
                k2 = key(s2)
                if k2 not in seen:
                    if len(seen) > cap:
                        raise VerificationFailure("relation enumeration cap exceeded")
                    seen[k2] = True
                    nxt.append(s2)
        frontier = nxt
    return relations


def _belt_primitive_map(U):
    """Generator -> (j, m) belt relation with {beta, beta'} = {tau+ a, tau- a}."""
    A, eps, h = U["A"], U["eps"], U["h"]
    n = len(A)
    coroot_of = {r: i for i, r in enumerate(U["gen_roots"])}
    assign = {}
    for m in range(0, 2 * (h + 2)):
        for j in range(1, n + 1):
            if eps[j - 1] != (1 if (m - 1) % 2 == 0 else -1):
                continue
            dprev = orbit_vector(A, eps, j - 1, m - 1, tau_action)
            dnext = orbit_vector(A, eps, j - 1, m + 1, tau_action)
            alpha = tau_action(A, eps, 1, dprev)
            if tau_action(A, eps, -1, dnext) != alpha:
                raise CrossCheckFailure("tau+/tau- belt labels disagree")
            gi = coroot_of[alpha]
            # the universal p+ coefficient must be exactly this generator
            y = U["solution"][(j, m)]
            pplus = tuple(_pos(v) for v in y.exps)
            unit = tuple(1 if i == gi else 0 for i in range(len(U["gen_names"])))
            if pplus != unit:
                raise CrossCheckFailure(
                    "primitive coefficient is not a single generator"
                )
            if gi not in assign:
                assign[gi] = (j, m)
    if len(assign) != len(U["gen_names"]):
        raise VerificationFailure("belt does not cover all generators")
    return assign


def specialization_construct(U, target="principal", cap=20000):
    """Unique multiplicative map p[coroot] -> target coefficient, verified
    by a paired sweep over Y-seed mutations."""
    A, eps, h = U["A"], U["eps"], U["h"]
    B = U["B"]
    n = len(A)
    from .bipartite import y_system_solve

    if target == "principal":
        Sbar = TropicalSemifield(tuple("y%d" % (i + 1) for i in range(n)))
        tgt_vals = y_system_solve(
            A, Sbar, steps=2 * (h + 2) + 2, initial="y",
            initial_values=[Sbar.generator("y%d" % (i + 1)) for i in range(n)],
            eps=eps,
        )
        y_init = tuple(Sbar.generator("y%d" % (j + 1)) for j in range(n))
    elif target == "trivial":
        Sbar = TrivialSemifield()
        tgt_vals = None
        y_init = tuple(Sbar.one() for _ in range(n))
    elif target == "universal":
        Sbar = U["semifield"]
        tgt_vals = U["solution"]
        y_init = U["y0"]
    else:
        raise ValueError("unknown target %r" % (target,))

    assign = _belt_primitive_map(U)
    phi = {}
    for gi, (j, m) in sorted(assign.items()):
        if tgt_vals is None:
            phi[gi] = Sbar.one()
        else:
            ybar = tgt_vals[(j, m)]
            phi[gi] = Sbar.div(ybar, Sbar.oplus(ybar, Sbar.one()))

    def apply_phi(mon):
        acc = Sbar.one()
        for gi, e in enumerate(mon.exps):
            if e:
                acc = Sbar.mul(acc, Sbar.power(phi[gi], e))
        return acc

    # paired sweep over all Y-seeds reachable from the shared initial B
    S = U["semifield"]
    start = (LabeledYSeed(U["y0"], B, S), LabeledYSeed(y_init, B, Sbar))

    def skey(pair):
        yu, yt = pair
        tkey = tuple(
            v.exps if hasattr(v, "exps") else v for v in yt.y
        )
        return (yu.B, tuple(v.exps for v in yu.y), tkey)

    seen = {skey(start)}
    frontier = [start]
    checked = 0
    violations = []
    while frontier:
        nxt = []
        for yu, yt in frontier:
            for j in range(n):
                lhs = apply_phi(yu.y[j])
                if not Sbar.eq(lhs, yt.y[j]):
                    violations.append(("phi(y)", j + 1, yu.y[j].text()))
                u1 = S.oplus(yu.y[j], S.one())
                if not Sbar.eq(apply_phi(u1), Sbar.oplus(yt.y[j], Sbar.one())):
                    violations.append(("phi(y+1)", j + 1, yu.y[j].text()))
                checked += 2
            for k in range(1, n + 1):
                pair = (mutate_y(yu, k), mutate_y(yt, k))
                kk = skey(pair)
                if kk not in seen:
                    if len(seen) > cap:
                        raise VerificationFailure("specialization sweep cap exceeded")
                    seen.add(kk)
                    nxt.append(pair)
        frontier = nxt
    if violations:
        raise VerificationFailure("specialization checks failed: %r" % violations[:3])
    return {
        "phi": {U["gen_names"][gi]: phi[gi] for gi in phi},
        "target": target,
        "seeds": len(seen),
        "checked": checked,
    }


# -- rank-2 multiplicative coefficient identities -------------------------


def rank2_mci_verify(A, coeffs="universal"):
    """Walk the (h+2)-cycle and check the displayed identities expressing
    each non-primitive coefficient as a product of primitive ones."""
    A = matrix(A)
    if len(A) != 2:
        raise ValueError("rank-2 types only")
    rs = root_system_build(A)
    h = rs["h"]
    eps = rs["eps"]
    period = h + 2
    from .mutation import bipartite_matrix_from_cartan
    from .bipartite import y_system_solve

    B = bipartite_matrix_from_cartan(A, eps)
    if coeffs == "universal":
        U = universal_build(B)
        S = U["semifield"]
        vals = U["solution"]
    elif coeffs == "principal":
        S = TropicalSemifield(("y1", "y2"))
        vals = y_system_solve(
            A, S, steps=3 * period + 2, initial="y",
            initial_values=[S.generator("y1"), S.generator("y2")], eps=eps,
        )
    else:
        raise ValueError("coeffs must be universal or principal")

    window = 2 * period
    q = {}
    r = {}
    bexp = {}
    beta = {}
    for m in range(0, window + 5):
        j = 1 if eps[0] == (1 if (m - 1) % 2 == 0 else -1) else 2
        i = 3 - j
        y = vals[(j, m)]
        y1 = S.oplus(y, S.one())
        q[m] = S.div(y, y1)
        r[m] = S.inverse(y1)
        bexp[m] = -A[i - 1][j - 1]
        ell = 1 if eps[0] == (1 if m % 2 == 0 else -1) else 2
        beta[m] = orbit_vector(A, eps, ell - 1, m, tau_action)
    report = {"h": h, "cycle": period, "checked": 0, "violations": []}

    def note(ok, what):
        report["checked"] += 1
        if not ok:
            report["violations"].append(what)

    for m in range(0, period):
        note(S.eq(q[m], q[m + period]), "q period at m=%d" % m)
        note(beta[m] == beta[m + period], "beta period at m=%d" % m)
    bc = (-A[0][1]) * (-A[1][0])
    for m in range(1, period + 1):
        if bc == 1:
            rhs = S.mul(q[m + 2], q[m + 3])
        elif bc == 2:
            rhs = S.mul(S.mul(q[m + 2], S.power(q[m + 3], bexp[m])), q[m + 4])
        elif bc == 3:
            norm2 = rs["pairing"](beta[m - 1], beta[m - 1])
            short = norm2 == min(
                rs["pairing"](x, x) for x in rs["positive_roots"]
            )
            note(
                (bexp[m] == 1) == short,
                "exponent/length correspondence at m=%d" % m,
            )
            if short:
                rhs = S.one()
                for mm, e in ((m + 2, 1), (m + 3, 1), (m + 4, 2), (m + 5, 1), (m + 6, 1)):
                    rhs = S.mul(rhs, S.power(q[mm], e))
            else:
                rhs = S.one()
                for mm, e in ((m + 2, 1), (m + 3, 3), (m + 4, 2), (m + 5, 3), (m + 6, 1)):
                    rhs = S.mul(rhs, S.power(q[mm], e))
        else:
            raise NotFiniteType("rank-2 type is not finite")
        note(S.eq(r[m], rhs), "MCI at m=%d" % m)
    return report
