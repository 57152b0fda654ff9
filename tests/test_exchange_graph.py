"""Exchange graphs, coverings, and finite-type recognition."""

import hashlib
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteralg import exchange_graph, mutation
from clusteralg.exchange_graph import (
    Inconclusive,
    _canonical,
    build_exchange_graph,
    covering_check,
    graph_from_spec,
    is_finite_type,
    mutation_class_finiteness,
    seed_canonical_form,
)
from clusteralg.laurent import lp_canonical_text, lp_equal, lp_exact_div
from clusteralg.mutation import (
    LabeledSeedGeometric,
    initial_geometric_seed,
    mutate_seed_geometric,
    named_matrix,
    principal_extension,
    rank2_matrix,
    trivial_extension,
)
from canonical_reference import canonical_reference, seed_canonical_form_reference

A2 = named_matrix("A2")
A3 = named_matrix("A3")


def test_a2_graph_is_a_pentagon():
    g = graph_from_spec(A2, coeffs="principal")
    assert g["finite"]
    assert g["vertices"] == 5
    assert len(g["edges"]) == 5
    # every vertex has degree 2: a single 5-cycle
    deg = {}
    for u, v in g["edges"]:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert sorted(deg.values()) == [2, 2, 2, 2, 2]


def test_a2_trivial_coefficients_same_graph():
    g = graph_from_spec(A2, coeffs="trivial")
    assert g["vertices"] == 5 and len(g["edges"]) == 5


def test_a3_graph_and_cluster_variable_count():
    g = graph_from_spec(A3, coeffs="trivial")
    assert g["finite"]
    # the rank-3 associahedron: 14 clusters, 21 edges, 9 cluster variables
    assert g["vertices"] == 14
    assert len(g["edges"]) == 21
    assert len(g["cluster_variables"]) == 9


def test_seed_canonical_form_ignores_relabeling():
    seed = initial_geometric_seed(trivial_extension(A2))
    key0 = seed_canonical_form(seed)
    # mutating 1,2,1 in A2 reproduces the initial seed up to relabeling
    s = seed
    for k in (1, 2, 1, 2, 1):
        s = mutate_seed_geometric(s, k)
    assert seed_canonical_form(s) == key0


def test_covering_principal_over_trivial():
    for B in (A2, A3):
        ok, witness = covering_check(B, coeffs_other="trivial")
        assert ok, witness


def test_mutation_class_finite_for_a3():
    out = mutation_class_finiteness(trivial_extension(A3))
    assert out["finite"] and out["count"] >= 1


def test_mutation_class_cap_exceeded_for_markov_like_matrix():
    Bt = principal_extension(rank2_matrix(2, 2))
    out = mutation_class_finiteness(Bt, cap=1000)
    assert not out["finite"]


def test_is_finite_type():
    assert is_finite_type(A2)
    assert is_finite_type(A3)
    assert is_finite_type(named_matrix("B2"))
    assert is_finite_type(named_matrix("G2"))
    assert not is_finite_type(rank2_matrix(2, 2))
    assert not is_finite_type(rank2_matrix(1, 4))


def test_is_finite_type_on_a_matrix_that_is_not_bipartite():
    # linear A3: vertex 2 has b_21 < 0 < b_23, so only the seed BFS decides
    assert is_finite_type(((0, 1, 0), (-1, 0, 1), (0, -1, 0)))


def test_is_finite_type_is_inconclusive_past_the_cap():
    markov = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
    with pytest.raises(Inconclusive):
        is_finite_type(markov, cap=50)


def reference_exchange_graph(seed, cap=10 ** 5):
    """The exchange-graph BFS that mutates every seed in all n directions,
    so each edge is computed from both of its ends, and keys seeds by the
    block-search canonical form."""
    keys = {seed_canonical_form_reference(seed): 0}
    seeds = {0: seed}
    edges = set()
    frontier = [0]
    finite = True
    while frontier:
        nxt = []
        for vid in frontier:
            for k in range(1, seed.n + 1):
                s2 = mutate_seed_geometric(seeds[vid], k)
                key = seed_canonical_form_reference(s2)
                if key not in keys:
                    if len(keys) >= cap:
                        finite = False
                        continue
                    keys[key] = len(keys)
                    seeds[keys[key]] = s2
                    nxt.append(keys[key])
                edges.add(tuple(sorted((vid, keys[key]))))
        frontier = nxt
    variables = {lp_canonical_text(x) for s in seeds.values() for x in s.x}
    return {
        "vertices": len(keys),
        "edges": sorted(edges),
        "finite": finite,
        "seeds": seeds,
        "keys": keys,
        "cluster_variables": sorted(variables),
    }


def _seed_texts(s):
    return tuple(lp_canonical_text(x) for x in s.x), s.Btilde, s.vars


GRAPH_CASES = [
    (name, coeffs, 10 ** 5)
    for name in ("A2", "A3", "B3", "C3", "D4", "G2", "A1xA1")
    for coeffs in ("principal", "trivial")
] + [
    ("rank2(2,2)", "principal", 7),
    ("rank2(2,2)", "principal", 20),
    ("rank2(2,2)", "trivial", 20),
    ("A3", "principal", 9),
    ("D4", "principal", 9),
    ("D4", "trivial", 9),
]


@pytest.mark.parametrize("name,coeffs,cap", GRAPH_CASES)
def test_graph_matches_both_directions_reference_bfs(name, coeffs, cap):
    B = rank2_matrix(2, 2) if name == "rank2(2,2)" else named_matrix(name)
    extend = principal_extension if coeffs == "principal" else trivial_extension
    seed = initial_geometric_seed(extend(B))
    ref = reference_exchange_graph(seed, cap=cap)
    g = graph_from_spec(B, coeffs=coeffs, cap=cap)
    for field in ("vertices", "edges", "finite", "keys", "cluster_variables"):
        assert g[field] == ref[field], field
    assert g["finite"] == (cap == 10 ** 5)
    assert sorted(g["seeds"]) == sorted(ref["seeds"])
    for v, s in ref["seeds"].items():
        assert _seed_texts(g["seeds"][v]) == _seed_texts(s)


@pytest.mark.parametrize("name,edges", [("A3", 21), ("D4", 100)])
@pytest.mark.parametrize("coeffs", ["principal", "trivial"])
def test_each_edge_is_mutated_once(monkeypatch, name, edges, coeffs):
    calls = []

    def counting(seed, k):
        calls.append(k)
        return mutate_seed_geometric(seed, k)

    monkeypatch.setattr(exchange_graph, "mutate_seed_geometric", counting)
    g = graph_from_spec(named_matrix(name), coeffs=coeffs)
    assert g["finite"] and len(g["edges"]) == edges
    assert len(calls) == edges


def counting(calls, f):
    """f, appending each call's arguments and result to calls."""

    def counted(*args):
        result = f(*args)
        calls.append((args, result))
        return result

    return counted


@pytest.fixture(scope="module")
def instrumented_build():
    """Per (type, coefficients), built once: the exchange graph, two reads
    of its keys and then the covering check, counting the byte keys
    serialized, the matrix
    invariants computed, the exact divisions made and the exchange
    relations checked by a product."""

    @cache
    def build(name, coeffs):
        serialized, invariants, divisions, products = [], [], [], []
        B = named_matrix(name)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                exchange_graph,
                "_key_bytes",
                counting(serialized, exchange_graph._key_bytes),
            )
            mp.setattr(
                exchange_graph,
                "_matrix_invariants",
                counting(invariants, exchange_graph._matrix_invariants),
            )
            mp.setattr(mutation, "lp_exact_div", counting(divisions, lp_exact_div))
            mp.setattr(mutation, "lp_equal", counting(products, lp_equal))
            run = {"graph": graph_from_spec(B, coeffs=coeffs)}
            run["serialized"], run["divisions"] = len(serialized), len(divisions)
            run["products"] = [result for _, result in products]
            # the byte keys serialized by the end of each of two full reads
            run["serialized_on_reads"] = []
            for _ in range(2):
                dict(run["graph"]["keys"])
                run["serialized_on_reads"].append(len(serialized))
            run["covered"] = covering_check(B, coeffs_other=coeffs)
        run["serialized_in_all"] = len(serialized)
        run["invariants"] = [args for args, _ in invariants]
        return run

    return build


@pytest.mark.parametrize(
    "name,variables,edges,divisions,relations",
    [("D4", 16, 100, 12, 52), ("E6", 42, 2499, 36, 385)],
)
@pytest.mark.parametrize("coeffs", ["principal", "trivial"])
def test_each_exchange_relation_is_divided_once(
    instrumented_build, name, variables, edges, divisions, relations, coeffs
):
    # one mutation per edge, one exact check per exchangeable pair: a
    # relation and its reverse share the check that met either first.  A
    # division finds each cluster variable once, and its d-vector names it
    # for the product checks of the other relations, none of which fails
    run = instrumented_build(name, coeffs)
    g = run["graph"]
    assert g["finite"] and len(g["edges"]) == edges
    assert len(g["cluster_variables"]) == variables
    assert run["divisions"] == divisions == variables - len(named_matrix(name))
    assert all(run["products"])
    assert run["divisions"] + len(run["products"]) == relations


@pytest.mark.parametrize("coeffs", ["principal", "trivial"])
def test_seeds_share_one_object_per_cluster_variable(instrumented_build, coeffs):
    g = instrumented_build("E6", coeffs)["graph"]
    assert len({id(x) for s in g["seeds"].values() for x in s.x}) == 42
    rows = {id(row) for s in g["seeds"].values() for row in s.Btilde}
    assert len(rows) == len({row for s in g["seeds"].values() for row in s.Btilde})


@pytest.mark.parametrize("coeffs", ["principal", "trivial"])
def test_a_wrong_name_costs_one_division_and_changes_nothing(monkeypatch, coeffs):
    # once mu_4 has named x'_4 by the d-vector e_4, that name is given to
    # x_2: the next of the four relations that meet e_4 again refuses x_2
    # by its product check, divides x'_4 out and gives the name back
    B = named_matrix("D4")
    extend = principal_extension if coeffs == "principal" else trivial_extension
    seed = initial_geometric_seed(extend(B))
    divisions = []
    monkeypatch.setattr(mutation, "lp_exact_div", counting(divisions, lp_exact_div))
    mutate_seed_geometric(seed, 4)
    seed._names[(0, 0, 0, 1)] = seed.x[1]
    g = build_exchange_graph(seed)
    assert len(divisions) == 12 + 1
    expected = graph_from_spec(B, coeffs=coeffs)
    for field in ("vertices", "edges", "finite", "keys", "cluster_variables"):
        assert g[field] == expected[field], field


def _graph_digest(g):
    """sha256 over the vertex count, edges, cluster variables, finiteness
    and the sorted (key, vertex) pairs of an exchange graph."""
    h = hashlib.sha256(
        repr((g["vertices"], g["edges"], g["cluster_variables"], g["finite"])).encode()
    )
    for key, v in sorted(g["keys"].items()):
        h.update(b"%d:%s\n" % (v, key))
    return h.hexdigest()


# pinned from the route that divided every exchange relation
E7_GRAPH_DIGESTS = {
    "principal": "bea5cfc81e16aa53b1e917962cb9d13a7683da9decfec81db6d3cf23b78f986a",
    "trivial": "f245158549bd3dfe9c3f521d93c27a5c7bf9aed66cc80050502017868fcafa42",
}


@pytest.mark.slow
@pytest.mark.parametrize("coeffs", list(E7_GRAPH_DIGESTS))
def test_e7_graph_is_pinned(coeffs):
    g = graph_from_spec(named_matrix("E7"), coeffs=coeffs)
    assert _graph_digest(g) == E7_GRAPH_DIGESTS[coeffs]


@pytest.mark.parametrize("other,renders", [("trivial", 32), ("principal", 16)])
def test_covering_check_renders_each_cluster_variable_once(monkeypatch, other, renders):
    # D4 has 16 cluster variables per coefficient choice; principal over
    # principal meets the same 16 polynomials on both sides
    calls = []

    def counting(p):
        calls.append(p)
        return lp_canonical_text(p)

    monkeypatch.setattr(exchange_graph, "lp_canonical_text", counting)
    assert covering_check(named_matrix("D4"), coeffs_other=other) == (True, None)
    assert len(calls) == renders


@pytest.mark.parametrize("other", ["trivial", "principal"])
def test_covering_check_mutates_each_edge_once(monkeypatch, other):
    # D4: 50 seeds, 100 edges; each edge mutates both seeds once, where
    # mutating every pair in all 4 directions took 400 calls
    calls = []

    def counting(seed, k):
        calls.append(k)
        return mutate_seed_geometric(seed, k)

    monkeypatch.setattr(exchange_graph, "mutate_seed_geometric", counting)
    assert covering_check(named_matrix("D4"), coeffs_other=other) == (True, None)
    assert len(calls) == 200


def _relabel(seed, pi):
    """The seed whose index i carries the data of index pi[i] of seed."""
    n, Bt = seed.n, seed.Btilde
    rows = [
        [Bt[pi[i] if i < n else i][pi[j]] for j in range(n)]
        for i in range(len(Bt))
    ]
    return LabeledSeedGeometric(
        [seed.x[p] for p in pi], rows, n, seed.vars
    )


@given(
    st.sampled_from(["A3", "B3", "D4"]),
    st.lists(st.integers(1, 4), max_size=8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_canonical_form_is_invariant_under_relabeling(name, path, rnd):
    seed = initial_geometric_seed(principal_extension(named_matrix(name)))
    n = seed.n
    for k in path:
        seed = mutate_seed_geometric(seed, (k - 1) % n + 1)
    pi = list(range(n))
    rnd.shuffle(pi)
    relabeled = _relabel(seed, pi)
    assert seed_canonical_form(relabeled) == seed_canonical_form(seed)
    # sigma maps the seed to the serialization its key is made of
    texts = tuple(lp_canonical_text(x) for x in seed.x)
    key, sigma = _canonical(texts, seed.Btilde, n)
    assert key == seed_canonical_form(seed)
    Bt, m = seed.Btilde, len(seed.Btilde)
    serialization = (
        tuple(texts[s] for s in sigma),
        tuple(tuple(Bt[i][s] for i in range(n, m)) for s in sigma),
        tuple(
            tuple(Bt[sigma[i] if i < n else i][s] for s in sigma)
            for i in range(m)
        ),
    )
    assert key == repr(serialization).encode()


@given(
    st.sampled_from(["A3", "B3", "C3", "D4", "G2", "A1xA1", "rank2(2,2)"]),
    st.sampled_from([principal_extension, trivial_extension]),
    st.lists(st.integers(1, 4), max_size=8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_canonical_matches_the_block_search_reference(name, extend, path, rnd):
    B = rank2_matrix(2, 2) if name == "rank2(2,2)" else named_matrix(name)
    seed = initial_geometric_seed(extend(B))
    n = seed.n
    for k in path:
        seed = mutate_seed_geometric(seed, (k - 1) % n + 1)
    pi = list(range(n))
    rnd.shuffle(pi)
    seed = _relabel(seed, pi)
    texts = tuple(lp_canonical_text(x) for x in seed.x)
    assert _canonical(texts, seed.Btilde, n) == canonical_reference(
        texts, seed.Btilde, n
    )


@pytest.mark.parametrize("name", ["D4", "E6"])
@pytest.mark.parametrize("coeffs", ["principal", "trivial"])
def test_walks_serialize_once_per_vertex_and_search_no_blocks(
    instrumented_build, name, coeffs
):
    # the walks key seeds by text ids and relabeled rows: the byte key of
    # each vertex is built on the first read of keys and kept, and no
    # seed's invariants are computed
    run = instrumented_build(name, coeffs)
    g = run["graph"]
    assert g["finite"] and run["serialized"] == 0
    assert run["serialized_on_reads"] == [g["vertices"]] * 2 == [len(g["keys"])] * 2
    assert run["covered"] == (True, None)
    assert run["serialized_in_all"] == g["vertices"]
    assert run["invariants"] == []
