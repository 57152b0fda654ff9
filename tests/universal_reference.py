"""The labeled seed BFS for the universal exchange relations, kept as the
test oracle for `universal_exchange_relations`: it keys seeds by the sorted
canonical texts of their cluster variables, renders every variable of every
seed it visits, and gives up past `cap` seeds."""

from clusteralg.finite_type import VerificationFailure, root_name
from clusteralg.laurent import lp_canonical_text, lp_denominator_vector
from clusteralg.mutation import _pos, initial_geometric_seed, mutate_seed_geometric


def universal_relations_reference(U, cap=10000):
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
