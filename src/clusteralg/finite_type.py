"""Root systems, Fibonacci polynomials, universal coefficients, and
coefficient specializations for finite-type exchange matrices."""

from __future__ import annotations

from .bipartite import (
    Belt,
    _positive_roots,
    cartan_symmetrizer,
    coxeter_data,
    orbit_vector,
    reflect,
    tau_action,
    tracked,
    y_system_solve,
)
from .exchange_graph import _permute_rows
from .laurent import LaurentPolynomial
from .mutation import (
    _pos,
    bipartite_matrix_from_cartan,
    cartan_counterpart_and_sign,
    exchanged_d_vector,
    matrix,
    mutate_matrix,
    positive_definite,
    principal_extension,
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
        raise NotFiniteType("infinite type: symmetrization is not positive definite")
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
            if reflect(A, (i,), r, r) not in allroots:
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
        for i in tracked(eps, m):
            F = belt.pattern.state(belt.path(m)).F[i]
            dv = orbit_vector(A, eps, i, m, tau_action)
            mon = [0] * n
            for j in range(n):
                if eps[j] == 1:
                    mon[j] = _pos(dv[j])
            f = _e_plus(F, eps) * LaurentPolynomial.monomial(yvars, mon)
            if any(v < 0 for v in f.min_exponents()):
                raise CrossCheckFailure("f is not a polynomial at (%d;%d)" % (i + 1, m))
            if any(c <= 0 for c in f.terms.values()):
                raise CrossCheckFailure("f coefficient not positive")
            if len(f.terms) != len(F.terms):
                raise CrossCheckFailure("monomial count changed")
            back = _e_plus(f, eps) * LaurentPolynomial.monomial(yvars, mon)
            if back != F:
                raise CrossCheckFailure("f/F round trip failed at (%d;%d)" % (i + 1, m))
            table[(i + 1, m)] = {"F": F, "f": f, "d": dv}
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
        if j - 1 not in tracked(eps, m - 1):
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


def universal_build(B):
    """Universal tropical coefficient system over generators labeled by
    almost positive coroots, with the belt solution computed two ways."""
    B = matrix(B)
    A, eps = cartan_counterpart_and_sign(B)
    if eps is None:
        raise NotFiniteType("the exchange matrix is not bipartite")
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
    steps = 2 * (h + 2) + 1
    initial = [from_coords(lambda w, j=j: -w[j]) for j in range(n)]
    vals = y_system_solve(A, S, steps=2 * steps, initial_values=initial, eps=eps)
    # closed form via the piecewise-linear action of the transpose on coroots;
    # iterates[s][r]: the coroots after r steps of tau, alternating from sign s
    AT = tuple(zip(*A))
    r_of = {m: -m - 1 if m < 0 else m for _, m in vals}
    iterates = {s: [coroots] for s in (1, -1)}
    for r in range(max(r_of.values())):
        for s, seq in iterates.items():
            seq.append([tau_action(AT, eps, s * (-1) ** r, v) for v in seq[-1]])
    for (j, m), direct in vals.items():
        r = r_of[m]
        sign0 = -eps[j - 1] * (-1) ** r
        exps = tuple(-v[j - 1] for v in iterates[sign0][r])
        if S.monomial(exps) != direct:
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


def _cluster_walk(Bt, cap=10 ** 5):
    """BFS over the seeds mutation reaches from the initial seed of the
    extended matrix Bt, cluster variables labeled by their d-vectors.

    exchanged_d_vector is exact: by positivity (Lee-Schiffler, arXiv
    1306.2415; GHKK, arXiv 1411.1394) cluster variables are Laurent
    polynomials with nonnegative coefficients, so the least exponent of
    x_j adds over products and, nothing cancelling, is the least over
    sums.  In finite type a cluster variable is named by its d-vector, an
    almost positive root (FZ II Thm 1.9), so a vertex is keyed by its
    sorted labels.  Returns the vertices (labels, matrix) as first reached
    and the tau with mu_k(M_v) = _permute_rows(M_w, n, tau) on revisits,
    tau[i] the index in w of the label at i.  Each edge is mutated once,
    from the end walked first.  A revisit with another matrix raises
    CrossCheckFailure, a walk past cap vertices VerificationFailure.
    """
    n = len(Bt[0])
    labels = tuple(tuple(-1 if j == i else 0 for j in range(n)) for i in range(n))
    index = {tuple(sorted(labels)): 0}
    # one copy of each row, shared by the stored matrices
    rows = {}
    relabelings = set()
    # the BFS queue: the loop reaches each vertex as it is appended
    vertices = [(labels, Bt)]
    for v, (labels, M) in enumerate(vertices):
        for k in range(1, n + 1):
            d = exchanged_d_vector(labels, [row[k - 1] for row in M], k)
            labels2 = labels[: k - 1] + (d,) + labels[k:]
            key = tuple(sorted(labels2))
            w = index.get(key)
            if w is not None and w < v:
                continue
            M2 = mutate_matrix(M, k)
            if w is None:
                if len(vertices) >= cap:
                    raise VerificationFailure("exchange graph exceeds %d seeds" % cap)
                if len(set(key)) != n:
                    raise CrossCheckFailure("a cluster repeats the d-vector %r" % (d,))
                index[key] = len(vertices)
                vertices.append((labels2, tuple(map(rows.setdefault, M2, M2))))
                continue
            tau = tuple(map(vertices[w][0].index, labels2))
            expected = _permute_rows(vertices[w][1], n, tau)
            if expected != M2:
                raise CrossCheckFailure(
                    "vertex %d mutated in direction %d revisits vertex %d with the"
                    " matrix %r, not %r" % (v, k, w, M2, expected)
                )
            relabelings.add(tau)
    return vertices, relabelings


def universal_exchange_relations(U):
    """The exchange relations of the geometric realization, read off the
    seeds of _cluster_walk, with cluster variables labeled by their
    denominator roots."""
    n = len(U["B"])
    vertices, _ = _cluster_walk(U["Btilde"])
    label = {d: root_name(d) for labels, _ in vertices for d in labels}
    if set(label) != set(U["root_system"]["almost_positive"]):
        raise VerificationFailure("the d-vectors are not the almost positive roots")
    relations = {}
    for labels, M in vertices:
        for k in range(1, n + 1):
            col = [row[k - 1] for row in M]
            d = exchanged_d_vector(labels, col, k)
            pair = tuple(sorted((label[labels[k - 1]], label[d])))
            if pair in relations:
                continue
            terms = []
            for sgn in (1, -1):
                # the term's exponents: n cluster variables, then coefficients
                e = [_pos(sgn * b) for b in col]
                factors = sorted((label[labels[i]], e[i]) for i in range(n) if e[i])
                terms.append((tuple(e[n:]), tuple(factors)))
            relations[pair] = tuple(sorted(terms))
    return relations


def _belt_primitive_map(U):
    """Generator -> (j, m) belt relation with {beta, beta'} = {tau+ a, tau- a}."""
    A, eps, h = U["A"], U["eps"], U["h"]
    coroot_of = {r: i for i, r in enumerate(U["gen_roots"])}
    assign = {}
    for m in range(0, 2 * (h + 2)):
        for j in tracked(eps, m - 1):
            dprev = orbit_vector(A, eps, j, m - 1, tau_action)
            dnext = orbit_vector(A, eps, j, m + 1, tau_action)
            alpha = tau_action(A, eps, 1, dprev)
            if tau_action(A, eps, -1, dnext) != alpha:
                raise CrossCheckFailure("tau+/tau- belt labels disagree")
            gi = coroot_of[alpha]
            # the universal p+ coefficient must be exactly this generator
            y = U["solution"][(j + 1, m)]
            pplus = tuple(_pos(v) for v in y.exps)
            unit = tuple(1 if i == gi else 0 for i in range(len(U["gen_names"])))
            if pplus != unit:
                raise CrossCheckFailure(
                    "primitive coefficient is not a single generator"
                )
            if gi not in assign:
                assign[gi] = (j + 1, m)
    if len(assign) != len(U["gen_names"]):
        raise VerificationFailure("belt does not cover all generators")
    return assign


def _group_order(gens, n):
    """Order of the group of permutations of range(n) generated by gens.
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
    return len(group)


def specialization_construct(U, target="principal"):
    """Unique multiplicative map p[coroot] -> target coefficient, checked
    on every pair (universal Y-seed, target Y-seed) reachable by mutation.

    Tropical Y-seed mutation is matrix mutation of the exponent columns
    (FZ IV section 2), so a pair is B over the universal coefficient rows
    over the target's (the identity for principal; none for trivial, nor
    for universal, whose y is the universal y).  Relabeling a pair permutes
    its 2n checks, so one pair per vertex of _cluster_walk is checked.
    The universal rows hold +-I, so no relabeling fixes a pair, and a
    vertex stands for |G| labeled pairs, G the group of the walk's
    relabelings; seeds counts labeled pairs and checked 2n per pair.
    """
    A, eps, h = U["A"], U["eps"], U["h"]
    n = len(A)
    S = U["semifield"]
    Bt = U["Btilde"]
    N = len(Bt) - n
    if target == "principal":
        Sbar = TropicalSemifield(tuple("y%d" % (i + 1) for i in range(n)))
        tgt_vals = y_system_solve(
            A, Sbar, steps=2 * (h + 2) + 2, initial="y",
            initial_values=[Sbar.generator("y%d" % (i + 1)) for i in range(n)],
            eps=eps,
        )
        Bt = Bt + principal_extension(U["B"])[n:]
    elif target == "trivial":
        Sbar = TrivialSemifield()
        tgt_vals = None
    elif target == "universal":
        Sbar = S
        tgt_vals = U["solution"]
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

    vertices, relabelings = _cluster_walk(Bt)
    violations = []
    # a column's checks read nothing else, so each distinct one runs once
    done = set()
    for _, M in vertices:
        cols = tuple(zip(*M[n:]))
        if len(set(cols)) != n:
            raise VerificationFailure("a relabeling fixes a Y-seed pair")
        for j, col in enumerate(cols):
            if col in done:
                continue
            done.add(col)
            y = S.monomial(col[:N])
            # the target's exponents are the last rows: its own for
            # principal, the universal ones for universal
            yt = Sbar.monomial(col[-len(Sbar.gens):]) if tgt_vals else Sbar.one()
            if not Sbar.eq(apply_phi(y), yt):
                violations.append(("phi(y)", j + 1, y.text()))
            u1 = S.oplus(y, S.one())
            if not Sbar.eq(apply_phi(u1), Sbar.oplus(yt, Sbar.one())):
                violations.append(("phi(y+1)", j + 1, y.text()))
    if violations:
        raise VerificationFailure("specialization checks failed: %r" % violations[:3])
    seeds = len(vertices) * _group_order(sorted(relabelings), n)
    return {
        "phi": {U["gen_names"][gi]: phi[gi] for gi in phi},
        "target": target,
        "classes": len(vertices),
        "seeds": seeds,
        "checked": 2 * n * seeds,
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
        j = 1 if 0 in tracked(eps, m - 1) else 2
        i = 3 - j
        y = vals[(j, m)]
        y1 = S.oplus(y, S.one())
        q[m] = S.div(y, y1)
        r[m] = S.inverse(y1)
        bexp[m] = -A[i - 1][j - 1]
        ell = 1 if 0 in tracked(eps, m) else 2
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
