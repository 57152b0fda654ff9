"""The labeled Y-seed sweep for coefficient specializations, kept as the
test oracle for `specialization_construct`: it mutates the pair (universal
Y-seed, target Y-seed) in every direction, keys pairs by their labeled
exponents, checks every labeled pair it reaches, and gives up past `cap`
pairs."""

from clusteralg.bipartite import y_system_solve
from clusteralg.finite_type import VerificationFailure, _belt_primitive_map
from clusteralg.mutation import LabeledYSeed, mutate_y
from clusteralg.semifield import TrivialSemifield, TropicalSemifield


def specialization_reference(U, target="principal", cap=20000):
    """Unique multiplicative map p[coroot] -> target coefficient, verified
    by a paired sweep over Y-seed mutations."""
    A, eps, h = U["A"], U["eps"], U["h"]
    B = U["B"]
    n = len(A)
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
