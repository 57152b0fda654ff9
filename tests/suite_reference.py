"""The per-instance route of the property audit, kept as the test oracle for
`conjecture_suite`: every check runs on every (seed, ell) and every
(seed, k, ell), with no verdict shared between instances.

`_g_transition` and `_dominating_term` are read from the `principal` module
at call time, so a test that patches one of them patches both routes."""

from clusteralg import principal
from clusteralg.laurent import LaurentPolynomial, lp_substitute_monomial
from clusteralg.mutation import _pos, matrix, mutate_matrix


def suite_reference(
    B0, max_seeds=500, max_depth=None, transition_checks=True, paths=None
):
    """The report `conjecture_suite` gives for the same arguments."""
    B0 = matrix(B0)
    n = len(B0)
    if paths is not None:
        pat = principal.PrincipalPattern(B0)
        seen = {i: tuple(p) for i, p in enumerate(paths)}
        complete = False
    else:
        pat, seen, complete = principal.enumerate_pattern(B0, max_seeds, max_depth)
    checks = {}

    def record(name, ok, detail):
        entry = checks.setdefault(name, {"name": name, "instances": 0, "violations": []})
        entry["instances"] += 1
        if not ok:
            entry["violations"].append(detail)

    patterns = {B0: pat}
    negpat = principal._pattern(patterns, matrix([[-v for v in row] for row in B0]))
    mutated = [principal._pattern(patterns, mutate_matrix(B0, k)) for k in range(1, n + 1)]
    assignments = principal._d_g_assignments(pat)
    inv_sub = {v: LaurentPolynomial.var(pat.yvars, v, -1) for v in pat.yvars}

    def neg_image(Fn):
        Fn_inv = lp_substitute_monomial(Fn, inv_sub)
        shift = Fn_inv.min_exponents()
        return Fn_inv.shift(tuple(-a for a in shift))

    for sig, path in seen.items():
        st = pat.state(path)
        at = "path=%s" % (list(path),)
        for ell in range(n):
            F = st.F[ell]
            where = "%s ell=%d" % (at, ell + 1)
            record("f_constant_term_1", F.constant_term() == 1, where)
            record(
                "f_positive_coefficients",
                all(c > 0 for c in F.terms.values()),
                where,
            )
            dom = principal._dominating_term(F)
            record(
                "f_unique_dominating_monomial",
                dom is not None and F.terms[dom] == 1,
                where,
            )
            c = st.c_vector(ell + 1)
            coherent = all(v >= 0 for v in c) or all(v <= 0 for v in c)
            record("c_vector_sign_coherent", coherent, where)
            pplus_trivial = all(_pos(v) == 0 for v in c)
            pminus_trivial = all(_pos(-v) == 0 for v in c)
            exactly_one = pplus_trivial != pminus_trivial
            record(
                "three_equivalences_consistent",
                (F.constant_term() == 1) == coherent == exactly_one,
                where,
            )
            exact, conjectural = principal._d_g_relation(pat, st, ell, assignments)
            record("d_plus_g_through_F", exact, where)
            if conjectural is not None:
                record("d_through_F", conjectural, where)
        gs = st.g
        ok = all(
            all(gs[ell][i] >= 0 for ell in range(n))
            or all(gs[ell][i] <= 0 for ell in range(n))
            for i in range(n)
        )
        record("g_vectors_sign_coherent", ok, at)
        stn = negpat.state(path)
        for ell in range(n):
            record(
                "f_B_vs_negB",
                st.F[ell] == neg_image(stn.F[ell]),
                "%s ell=%d" % (at, ell + 1),
            )
        if transition_checks:
            for k in range(1, n + 1):
                for ell in range(1, n + 1):
                    g = st.g[ell - 1]
                    where = "%s k=%d ell=%d" % (at, k, ell)
                    try:
                        gp, hk, hpk = principal._g_transition(
                            pat, mutated[k - 1], k, path, ell
                        )
                    except principal.CrossCheckFailure as exc:
                        record(
                            "h_and_g_transition_exact",
                            False,
                            "%s: %s" % (where, exc),
                        )
                        continue
                    record("h_and_g_transition_exact", True, "")
                    record(
                        "h_equals_min_0_g",
                        hpk == -_pos(g[k - 1]) and hk == min(0, g[k - 1]),
                        where,
                    )
                    kk = k - 1
                    pred = list(g)
                    pred[kk] = -g[kk]
                    for j in range(n):
                        if j == kk:
                            continue
                        pred[j] = (
                            g[j]
                            + _pos(B0[j][kk]) * g[kk]
                            - B0[j][kk] * min(g[kk], 0)
                        )
                    record(
                        "g_transition_rule",
                        tuple(pred) == tuple(gp),
                        where,
                    )
    report = sorted(checks.values(), key=lambda e: e["name"])
    return {"complete": complete, "seeds": len(seen), "checks": report}
