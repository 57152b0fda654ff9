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
    _permute_rows,
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


def _relabeling(texts):
    """The relabeling sigma (new index -> old index) that sorts a seed's
    cluster-variable texts; they are distinct, so nothing else is needed."""
    if len(texts) > 10:
        raise RankTooLarge("canonical form limited to rank <= 10")
    return sorted(range(len(texts)), key=texts.__getitem__)


def _key_bytes(texts, P):
    """Key of a seed relabeled to sorted texts and matrix P: the repr of
    the texts, the coefficient columns and P."""
    ys = tuple(zip(*P[len(texts):])) or ((),) * len(texts)
    return repr((texts, ys, P)).encode()


def _canonical(texts, Bt, n):
    """Key of the seed with cluster-variable texts and extended matrix Bt,
    and the relabeling sigma whose serialization the key is."""
    sigma = tuple(_relabeling(texts))
    return _key_bytes(tuple(texts[i] for i in sigma), _permute_rows(Bt, n, sigma)), sigma


class _SeedKeys(dict):
    """Seeds up to relabeling, for one walk. Looking up a cluster variable
    gives its canonical text, rendered once; each text gets a small-int id
    when first seen. A seed's walk key is the ids of its texts in sorted
    order and its matrix relabeled to match, each row shared with the equal
    rows of earlier keys. Ids are injective, so two seeds share a walk key
    exactly when they share a key (_canonical)."""

    def __init__(self):
        self.ids = {}
        self.rows = {}

    def __missing__(self, p):
        t = self[p] = lp_canonical_text(p)
        self.ids.setdefault(t, len(self.ids))
        return t

    def key(self, texts, seed):
        """Walk key of the seed with these texts, and its sigma."""
        sigma = _relabeling(texts)
        ids, rows = self.ids, self.rows
        P = _permute_rows(seed.Btilde, seed.n, sigma)
        return (tuple([ids[texts[i]] for i in sigma]), tuple(map(rows.setdefault, P, P))), sigma

    def key_bytes(self, keys):
        """The key (as _canonical gives it) of each walk key."""
        texts = list(self.ids)
        for ids, P in keys:
            yield _key_bytes(tuple(texts[i] for i in ids), P)


def _walk(seeds, cap):
    """BFS over the tuples of seeds reached by mutating all of seeds in the
    same directions, each seed up to relabeling: one seed for the exchange
    graph, or a pair with one B for covering_check. Stops adding vertices
    at cap. Returns the _SeedKeys, the vertices (walk-key tuple -> vertex),
    per vertex its seeds and their texts, the edges, and whether the walk
    stayed within cap."""
    n = seeds[0].n
    keys = _SeedKeys()
    texts = tuple(tuple(keys[x] for x in s.x) for s in seeds)
    root, sigmas = zip(*map(keys.key, texts, seeds))
    index = {root: 0}
    # per vertex: its seeds, their texts and their relabelings
    found = [(seeds, texts, sigmas)]
    # (vertex, 0-based direction) pairs whose edge is already in edges
    known = set()
    edges = set()
    frontier = [0]
    finite = True
    while frontier:
        nxt = []
        for v in frontier:
            ss, ts = found[v][:2]
            for kk in range(n):
                if (v, kk) in known:
                    continue
                ss2 = [mutate_seed_geometric(s, kk + 1) for s in ss]
                ts2 = [t[:kk] + (keys[s.x[kk]],) + t[kk + 1:] for s, t in zip(ss2, ts)]
                key, sigmas = zip(*map(keys.key, ts2, ss2))
                w = index.get(key)
                if w is None:
                    if len(index) >= cap:
                        finite = False
                        continue
                    w = index[key] = len(index)
                    found.append((ss2, ts2, sigmas))
                    nxt.append(w)
                # each seed of w relabeled is the mutated seed, and mutation
                # is an involution: when all seeds of w put kk at the same
                # position, mutating w there leads back to v
                back = {sw[sigma.index(kk)] for sw, sigma in zip(found[w][2], sigmas)}
                if len(back) == 1:
                    known.add((w, back.pop()))
                edges.add((min(v, w), max(v, w)))
        frontier = nxt
    return keys, index, found, edges, finite


def seed_canonical_form(seed):
    """Lexicographically minimal serialization over simultaneous relabelings."""
    texts = tuple(lp_canonical_text(x) for x in seed.x)
    return _canonical(texts, seed.Btilde, seed.n)[0]


def build_exchange_graph(seed, cap=10 ** 5):
    """BFS over seeds up to relabeling; returns a dict with vertices,
    edges, the root key, and a finiteness flag.

    The seeds share seed's tables (see mutate_seed_geometric): each
    exchangeable pair is checked once, and each cluster variable is
    divided out once and then found by its d-vector, so on E6 36
    divisions and 349 product checks cover the 385 pairs, and the seeds
    hold 42 polynomial objects.  No step depends on the type being
    finite, so is_finite_type's BFS stays independent of its
    positive-definiteness test."""
    keys, index, found, edges, finite = _walk((seed,), cap)
    return {
        "vertices": len(index),
        "edges": sorted(edges),
        "root": 0,
        "finite": finite,
        "seeds": {v: ss[0] for v, (ss, _, _) in enumerate(found)},
        "keys": {key: v for v, key in enumerate(keys.key_bytes(k for (k,) in index))},
        "cluster_variables": sorted({t for _, (ts,), _ in found for t in ts}),
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
    covers the graph with another coefficient choice for the same B: walking
    seed pairs mutated together, each principal seed meets one other seed."""
    B = matrix(B)
    sp = initial_geometric_seed(principal_extension(B))
    if coeffs_other == "trivial":
        so = initial_geometric_seed(trivial_extension(B))
    elif coeffs_other == "principal":
        so = initial_geometric_seed(principal_extension(B))
    else:
        raise IncompatibleInputs("unknown coefficient choice")
    keys, index, _, _, finite = _walk((sp, so), cap)
    assignment = {}
    for kp, ko in index:
        if assignment.setdefault(kp, ko) != ko:
            return False, tuple(keys.key_bytes((kp, assignment[kp], ko)))
    if not finite:
        raise CapExceeded("covering check cap exceeded")
    return True, None


def _canonical_matrix(Bt, n):
    """Minimal relabeling of Bt over the relabelings that sort the indices
    by their invariants; only permutations within tie blocks are explored."""
    if n > 10:
        raise RankTooLarge("canonical form limited to rank <= 10")
    inv = _matrix_invariants(Bt, n)
    blocks = []
    for i in sorted(range(n), key=inv.__getitem__):
        if blocks and inv[blocks[-1][-1]] == inv[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return min(
        _permute_rows(Bt, n, tuple(chain.from_iterable(combo)))
        for combo in product(*map(permutations, blocks))
    )


def mutation_class_finiteness(Btilde, cap=10 ** 4):
    """BFS over matrix mutations with canonicalization; exact class size
    or cap exceedance."""
    Bt = matrix(Btilde)
    n = len(Bt[0])
    skew_symmetrizer(principal_part(Bt, n))
    seen = {_canonical_matrix(Bt, n)}
    # the BFS queue: the loop reaches each class as it is appended
    queue = [Bt]
    for M in queue:
        for k in range(1, n + 1):
            M2 = mutate_matrix(M, k)
            c = _canonical_matrix(M2, n)
            if c not in seen:
                if len(seen) >= cap:
                    return {"finite": False, "count": None, "cap": cap}
                seen.add(c)
                queue.append(M2)
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
