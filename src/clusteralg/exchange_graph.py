"""Seeds modulo relabeling, exchange-graph BFS, coverings, finiteness tests.

Mutation is an involution, so the exchange-graph BFS computes each edge
once: when mu_k of vertex v lands on vertex w, the relabeling that puts the
mutated seed in canonical form, composed with w's own, names the direction
of w that leads back to v, and the BFS skips that direction.
"""

from __future__ import annotations

from itertools import chain, permutations, product

from .laurent import lp_canonical_text
from .mutation import (
    cartan_counterpart_and_sign,
    initial_geometric_seed,
    matrix,
    mutate_matrix,
    mutate_seed_geometric,
    positive_definite,
    principal_extension,
    principal_part,
    skew_symmetrizer,
    trivial_extension,
)


class RankTooLarge(ValueError):
    pass


class IncompatibleInputs(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


def _matrix_invariants(Bt, n):
    """Per index: the multisets of its row and of its column."""
    m = len(Bt)
    return [
        (tuple(sorted(Bt[i])), tuple(sorted(Bt[r][i] for r in range(m))))
        for i in range(n)
    ]


def _permute_rows(Bt, n, sigma):
    """Bt under a relabeling sigma (tuple: new index -> old index) of its
    first n rows and of its columns."""
    return tuple(
        tuple(Bt[sigma[i] if i < n else i][c] for c in sigma)
        for i in range(len(Bt))
    )


def _block_search(inv, serialize):
    """Minimal serialize(sigma) over the relabelings sigma that sort the
    indices by their invariants inv; only permutations within tie blocks
    are explored. Returns the minimum and the first sigma reaching it."""
    n = len(inv)
    if n > 10:
        raise RankTooLarge("canonical form limited to rank <= 10")
    blocks = []
    for i in sorted(range(n), key=inv.__getitem__):
        if blocks and inv[blocks[-1][-1]] == inv[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    best = best_sigma = None
    for combo in product(*map(permutations, blocks)):
        sigma = tuple(chain.from_iterable(combo))
        cand = serialize(sigma)
        if best is None or cand < best:
            best, best_sigma = cand, sigma
    return best, best_sigma


def _canonical(texts, Bt, n):
    """Key of the seed with cluster-variable texts and extended matrix Bt,
    and the relabeling sigma whose serialization the key is."""
    ys = tuple(tuple(Bt[i][j] for i in range(n, len(Bt))) for j in range(n))
    inv = [(texts[i], ys[i]) + mi for i, mi in enumerate(_matrix_invariants(Bt, n))]

    def serialize(sigma):
        return (
            tuple(texts[i] for i in sigma),
            tuple(ys[i] for i in sigma),
            _permute_rows(Bt, n, sigma),
        )

    best, sigma = _block_search(inv, serialize)
    return repr(best).encode(), sigma


class _Texts(dict):
    """Canonical text of each polynomial looked up, rendered once."""

    def __missing__(self, p):
        t = self[p] = lp_canonical_text(p)
        return t


def seed_canonical_form(seed):
    """Lexicographically minimal serialization over simultaneous relabelings."""
    texts = tuple(lp_canonical_text(x) for x in seed.x)
    return _canonical(texts, seed.Btilde, seed.n)[0]


def build_exchange_graph(seed, cap=10 ** 5):
    """BFS over seeds up to relabeling; returns a dict with vertices,
    edges, the root key, and a finiteness flag."""
    n = seed.n
    render = _Texts()
    texts = tuple(render[x] for x in seed.x)
    root, sigma = _canonical(texts, seed.Btilde, n)
    keys = {root: 0}
    seeds = {0: seed}
    # per vertex: the texts of its cluster variables and its relabeling
    found = [(texts, sigma)]
    # (vertex, 0-based direction) pairs whose edge is already in edges
    known = set()
    edges = set()
    frontier = [0]
    finite = True
    while frontier:
        nxt = []
        for vid in frontier:
            s = seeds[vid]
            texts = found[vid][0]
            for kk in range(n):
                if (vid, kk) in known:
                    continue
                s2 = mutate_seed_geometric(s, kk + 1)
                t2 = texts[:kk] + (render[s2.x[kk]],) + texts[kk + 1:]
                key, sigma = _canonical(t2, s2.Btilde, n)
                w = keys.get(key)
                if w is None:
                    if len(keys) >= cap:
                        finite = False
                        continue
                    w = keys[key] = len(keys)
                    seeds[w] = s2
                    found.append((t2, sigma))
                    nxt.append(w)
                # s2 is w's seed relabeled and mu_kk(s2) is s, so w's
                # direction at canonical position sigma^-1(kk) leads to vid
                known.add((w, found[w][1][sigma.index(kk)]))
                edges.add((min(vid, w), max(vid, w)))
        frontier = nxt
    return {
        "vertices": len(keys),
        "edges": sorted(edges),
        "root": 0,
        "finite": finite,
        "seeds": seeds,
        "keys": keys,
        "cluster_variables": sorted({t for ts, _ in found for t in ts}),
    }


def graph_from_spec(B, coeffs="principal", cap=10 ** 5):
    B = matrix(B)
    if coeffs == "principal":
        Bt = principal_extension(B)
    elif coeffs == "trivial":
        Bt = trivial_extension(B)
    else:
        raise ValueError("coeffs must be principal or trivial")
    return build_exchange_graph(initial_geometric_seed(Bt), cap=cap)


def covering_check(B, coeffs_other="trivial", cap=10 ** 5):
    """Tree-aligned check that the principal-coefficient exchange graph
    covers the graph with another coefficient choice for the same B.

    Each pair of seeds is mutated in every direction except one known to
    lead back to a checked pair: when mu_k of pair v reaches pair w and
    both seeds put k at the same position of w, mutating w there gives v
    again (mutation is an involution), so that direction is skipped.
    """
    B = matrix(B)
    n = len(B)
    sp = initial_geometric_seed(principal_extension(B))
    if coeffs_other == "trivial":
        so = initial_geometric_seed(trivial_extension(B))
    elif coeffs_other == "principal":
        so = initial_geometric_seed(principal_extension(B))
    else:
        raise IncompatibleInputs("unknown coefficient choice")
    if principal_part(sp.Btilde, n) != principal_part(so.Btilde, n):
        raise IncompatibleInputs("initial exchange matrices differ")
    render = _Texts()
    tp = tuple(render[x] for x in sp.x)
    to = tuple(render[x] for x in so.x)
    kp, sigma_p = _canonical(tp, sp.Btilde, n)
    ko, sigma_o = _canonical(to, so.Btilde, n)
    pairs = {(kp, ko): 0}
    # per pair: both seeds, their texts and their relabelings
    found = [(sp, so, tp, to, sigma_p, sigma_o)]
    assignment = {kp: ko}
    # (pair, 0-based direction) known to lead back to a checked pair
    known = set()
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            p, o, tp, to = found[v][:4]
            for kk in range(n):
                if (v, kk) in known:
                    continue
                p2 = mutate_seed_geometric(p, kk + 1)
                o2 = mutate_seed_geometric(o, kk + 1)
                tp2 = tp[:kk] + (render[p2.x[kk]],) + tp[kk + 1:]
                to2 = to[:kk] + (render[o2.x[kk]],) + to[kk + 1:]
                kp, sigma_p = _canonical(tp2, p2.Btilde, n)
                ko, sigma_o = _canonical(to2, o2.Btilde, n)
                if kp in assignment:
                    if assignment[kp] != ko:
                        return False, (kp, assignment[kp], ko)
                else:
                    assignment[kp] = ko
                w = pairs.get((kp, ko))
                if w is None:
                    if len(pairs) >= cap:
                        raise CapExceeded("covering check cap exceeded")
                    w = pairs[(kp, ko)] = len(found)
                    found.append((p2, o2, tp2, to2, sigma_p, sigma_o))
                    nxt.append(w)
                back_p = found[w][4][sigma_p.index(kk)]
                if back_p == found[w][5][sigma_o.index(kk)]:
                    known.add((w, back_p))
        frontier = nxt
    return True, None


def _canonical_matrix(Bt, n):
    return _block_search(
        _matrix_invariants(Bt, n), lambda sigma: _permute_rows(Bt, n, sigma)
    )[0]


def mutation_class_finiteness(Btilde, cap=10 ** 4):
    """BFS over matrix mutations with canonicalization; exact class size
    or cap exceedance."""
    Bt = matrix(Btilde)
    n = len(Bt[0])
    skew_symmetrizer(principal_part(Bt, n))
    root = _canonical_matrix(Bt, n)
    seen = {root}
    frontier = [Bt]
    while frontier:
        nxt = []
        for M in frontier:
            for k in range(1, n + 1):
                M2 = mutate_matrix(M, k)
                c = _canonical_matrix(M2, n)
                if c not in seen:
                    if len(seen) >= cap:
                        return {"finite": False, "count": None, "cap": cap}
                    seen.add(c)
                    nxt.append(M2)
        frontier = nxt
    return {"finite": True, "count": len(seen), "cap": cap}


class Inconclusive(RuntimeError):
    pass


def is_finite_type(B, cap=10 ** 5):
    """Finite type decision: positive-definiteness of the symmetrized
    Cartan counterpart when B is bipartite, seed BFS otherwise; the two
    routes are compared whenever both terminate."""
    B = matrix(B)
    A, eps = cartan_counterpart_and_sign(B)
    pd = None
    if eps is not None:
        pd = positive_definite(A, skew_symmetrizer(B))
    bfs = None
    if pd is None or pd:
        try:
            g = graph_from_spec(B, coeffs="trivial", cap=cap)
            bfs = g["finite"]
        except RankTooLarge:
            bfs = None
    if pd is not None and bfs is not None and bfs and pd != bfs:
        raise AssertionError("finite-type routes disagree")
    if pd is not None:
        return pd
    if bfs is None or not bfs:
        if bfs is None:
            raise Inconclusive("non-bipartite and BFS unavailable")
        raise Inconclusive("non-bipartite and cap exceeded")
    return True
