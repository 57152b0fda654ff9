"""The seed canonical form by invariants and block search, kept as the test
oracle for `exchange_graph._canonical`: it sorts the indices by their text,
coefficient column, row multiset and column multiset, and takes the
minimal serialization over the permutations within each tie block."""

from itertools import chain, permutations, product

from clusteralg.exchange_graph import RankTooLarge
from clusteralg.laurent import lp_canonical_text


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


def canonical_reference(texts, Bt, n):
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


def seed_canonical_form_reference(seed):
    """Lexicographically minimal serialization over simultaneous relabelings."""
    texts = tuple(lp_canonical_text(x) for x in seed.x)
    return canonical_reference(texts, seed.Btilde, seed.n)[0]
