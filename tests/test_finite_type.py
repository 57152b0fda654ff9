"""Root-system labeling, belt polynomial tables, and universal coefficients."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteralg import exchange_graph, finite_type
from clusteralg.finite_type import (
    NotFiniteType,
    VerificationFailure,
    fibonacci_polynomials,
    fibonacci_recurrence_check,
    rank2_mci_verify,
    root_name,
    root_system_build,
    specialization_construct,
    universal_build,
    universal_exchange_relations,
)
from clusteralg.laurent import lp_canonical_text
from clusteralg.mutation import (
    _permutation_group,
    CARTAN,
    LabeledYSeed,
    mutate_matrix,
    mutate_y,
    named_matrix,
)
from clusteralg.principal import CrossCheckFailure
from specialization_reference import specialization_reference
from universal_reference import universal_relations_reference

YV = ("y1", "y2")


def test_root_name():
    assert root_name((1, 0)) == "a1"
    assert root_name((-1, 0)) == "-a1"
    assert root_name((1, 1)) == "a1+a2"
    assert root_name((2, 3)) == "2a1+3a2"


def test_root_system_counts():
    # |positive| = n h / 2, |almost positive| = n (h + 2) / 2
    for name, n, h in (("A2", 2, 3), ("A3", 3, 4), ("B2", 2, 4), ("G2", 2, 6), ("D4", 4, 6)):
        rs = root_system_build(CARTAN[name])
        assert rs["h"] == h
        assert len(rs["positive_roots"]) == n * h // 2
        assert len(rs["almost_positive"]) == n * (h + 2) // 2


def test_root_system_a2_roots():
    rs = root_system_build(CARTAN["A2"])
    assert sorted(rs["positive_roots"]) == [(0, 1), (1, 0), (1, 1)]


def test_root_system_rejects_infinite_type():
    with pytest.raises(NotFiniteType):
        root_system_build(((2, -2), (-2, 2)))


def test_b2_coroot_coordinates_are_integral():
    rs = root_system_build(CARTAN["B2"])
    for alpha in rs["positive_roots"]:
        w = rs["coroot_coords"](alpha)
        assert all(isinstance(v, int) for v in w), (alpha, w)


def test_fibonacci_table_a2():
    # hand-derived from the belt recurrence over one period
    fib = fibonacci_polynomials(named_matrix("A2"))
    expected = {
        (1, 0): ("1", (-1, 0), "1"),
        (2, 1): ("y2 + 1", (0, 1), "y2 + 1"),
        (1, 2): ("y1*y2 + y1 + 1", (1, 1), "y1 + y2 + 1"),
        (2, 3): ("y1 + 1", (1, 0), "y1 + 1"),
        (1, 4): ("1", (0, -1), "1"),
        (2, 5): ("1", (-1, 0), "1"),
    }
    for key, (F_text, d, f_text) in expected.items():
        entry = fib["table"][key]
        assert lp_canonical_text(entry["F"]) == F_text, key
        assert entry["d"] == d, key
        assert lp_canonical_text(entry["f"]) == f_text, key
    # F[alpha] for the highest root of A2 counts lattice points of a segment
    assert lp_canonical_text(fib["by_root"][(1, 1)]) == "y1 + y2 + 1"


def test_fibonacci_recurrence_instances():
    for name in ("A2", "A3", "B2"):
        count = fibonacci_recurrence_check(named_matrix(name))
        assert count > 0, name


def test_universal_a2_generators_and_y0():
    U = universal_build(named_matrix("A2"))
    assert len(U["gen_names"]) == 5
    names = set(U["gen_names"])
    assert names == {"p[-a1]", "p[-a2]", "p[a1]", "p[a2]", "p[a1+a2]"}

    def exps(mono):
        return {g: a for g, a in zip(U["gen_names"], mono.exps) if a}

    # initial coefficient pair, read off the coroot pairings
    assert exps(U["y0"][0]) == {"p[a1]": 1, "p[a1+a2]": 1, "p[-a1]": -1}
    assert exps(U["y0"][1]) == {"p[-a2]": 1, "p[a2]": -1, "p[a1+a2]": -1}


def test_universal_a2_y_along_the_walk():
    U = universal_build(named_matrix("A2"))
    S = U["semifield"]
    ys = LabeledYSeed(U["y0"], U["B"], S)

    def exps(mono):
        return {g: a for g, a in zip(U["gen_names"], mono.exps) if a}

    walk = (2, 1, 2, 1, 2)
    expected = [
        # one line per step of the walk, hand-derived with tropical
        # Y-mutation starting from y0
        ({"p[-a1]": -1, "p[a2]": -1, "p[a1]": 1},
         {"p[-a2]": -1, "p[a2]": 1, "p[a1+a2]": 1}),
        ({"p[-a1]": 1, "p[a2]": 1, "p[a1]": -1},
         {"p[-a1]": -1, "p[-a2]": -1, "p[a1+a2]": 1}),
        ({"p[-a2]": -1, "p[a2]": 1, "p[a1]": -1},
         {"p[-a1]": 1, "p[-a2]": 1, "p[a1+a2]": -1}),
        ({"p[-a2]": 1, "p[a2]": -1, "p[a1]": 1},
         {"p[-a1]": 1, "p[a1]": -1, "p[a1+a2]": -1}),
        ({"p[-a2]": 1, "p[a2]": -1, "p[a1+a2]": -1},
         {"p[-a1]": -1, "p[a1]": 1, "p[a1+a2]": 1}),
    ]
    for k, (e1, e2) in zip(walk, expected):
        ys = mutate_y(ys, k)
        assert exps(ys.y[0]) == e1, k
        assert exps(ys.y[1]) == e2, k


def test_universal_a2_exchange_relations():
    U = universal_build(named_matrix("A2"))
    rels = universal_exchange_relations(U)
    assert len(rels) == 5

    def gen_exp(name, power=1):
        e = [0] * len(U["gen_names"])
        e[U["gen_names"].index(name)] = power
        return tuple(e)

    def coeff(*names):
        e = [0] * len(U["gen_names"])
        for nm in names:
            e[U["gen_names"].index(nm)] += 1
        return tuple(e)

    # x[-a1] x[a1] = p[a1] p[a1+a2] + p[-a1] x[-a2]
    key = tuple(sorted(("-a1", "a1")))
    want = tuple(
        sorted(
            (
                (coeff("p[a1]", "p[a1+a2]"), ()),
                (coeff("p[-a1]"), (("-a2", 1),)),
            )
        )
    )
    assert rels[key] == want

    # x[a1] x[a2] = p[a1+a2] x[a1+a2] + p[-a1] p[-a2]
    key = tuple(sorted(("a1", "a2")))
    want = tuple(
        sorted(
            (
                (coeff("p[a1+a2]"), (("a1+a2", 1),)),
                (coeff("p[-a1]", "p[-a2]"), ()),
            )
        )
    )
    assert rels[key] == want


@pytest.mark.parametrize(
    "name",
    ["A1", "A1xA1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]
    + [pytest.param("E6", marks=pytest.mark.slow)],
)
def test_universal_exchange_relations_match_the_labeled_bfs(name):
    U = universal_build(named_matrix(name))
    assert universal_exchange_relations(U) == universal_relations_reference(U)


def test_universal_exchange_relations_refuse_a_truncated_exchange_graph(monkeypatch):
    # A3 has 14 seeds: a walk cut at 5 must give no relations at all
    walk = finite_type._cluster_walk
    monkeypatch.setattr(finite_type, "_cluster_walk", lambda Bt: walk(Bt, cap=5))
    with pytest.raises(VerificationFailure, match="exceeds 5 seeds"):
        universal_exchange_relations(universal_build(named_matrix("A3")))


def test_cluster_walk_refuses_a_revisit_with_another_matrix(monkeypatch):
    # on A3 the tenth mutation, vertex 4 in direction 1, revisits a vertex;
    # with its first row negated the two matrices must both be named
    calls, matrices = [], []

    def corrupted(M, k):
        calls.append(k)
        M2 = mutate_matrix(M, k)
        if len(calls) == 10:
            matrices.extend((M2, (tuple(-b for b in M2[0]),) + M2[1:]))
            return matrices[-1]
        return M2

    monkeypatch.setattr(finite_type, "mutate_matrix", corrupted)
    with pytest.raises(CrossCheckFailure) as info:
        universal_exchange_relations(universal_build(named_matrix("A3")))
    message = str(info.value)
    assert "vertex 4 mutated in direction 1 revisits vertex" in message
    assert "%r, not %r" % tuple(matrices[::-1]) in message


def test_cluster_walk_refuses_a_cluster_that_repeats_a_label(monkeypatch):
    # a d step that returns a neighbor's label makes the first new cluster
    # hold it twice
    monkeypatch.setattr(
        finite_type, "exchanged_d_vector", lambda d, col, k: d[k % len(d)]
    )
    with pytest.raises(CrossCheckFailure, match="repeats the d-vector"):
        finite_type._cluster_walk(universal("A3")["Btilde"])


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_universal_exchange_relations_refuse_labels_that_are_not_the_roots(change):
    U = universal_build(named_matrix("A3"))
    roots = U["root_system"]["almost_positive"]
    roots = roots[1:] if change == "missing" else roots + [(2, 2, 2)]
    U = dict(U, root_system=dict(U["root_system"], almost_positive=roots))
    with pytest.raises(VerificationFailure, match="not the almost positive roots"):
        universal_exchange_relations(U)


def test_specializations_verify():
    U = universal_build(named_matrix("A2"))
    for target in ("principal", "trivial", "universal"):
        out = specialization_construct(U, target=target)
        assert out["checked"] > 0
        assert out["seeds"] >= 10


def test_specialization_a2_principal_map():
    U = universal_build(named_matrix("A2"))
    out = specialization_construct(U, target="principal")
    phi = out["phi"]

    def exps(mono):
        return {g: a for g, a in zip(mono.gens, mono.exps) if a}

    assert exps(phi["p[-a2]"]) == {"y2": 1}
    assert exps(phi["p[a1]"]) == {"y1": 1}
    for trivial_gen in ("p[-a1]", "p[a2]", "p[a1+a2]"):
        assert exps(phi[trivial_gen]) == {}


@cache
def universal(name):
    return universal_build(named_matrix(name))


@given(st.sampled_from(sorted(CARTAN)), st.lists(st.integers(1, 8), max_size=8))
@settings(max_examples=60, deadline=None)
def test_tropical_y_mutation_is_matrix_mutation_of_the_coefficient_rows(name, path):
    U = universal(name)
    n = len(U["B"])
    ys = LabeledYSeed(U["y0"], U["B"], U["semifield"])
    M = U["Btilde"]
    for k in path:
        k = (k - 1) % n + 1
        ys = mutate_y(ys, k)
        M = mutate_matrix(M, k)
        assert ys.B == M[:n]
        assert tuple(y.exps for y in ys.y) == tuple(zip(*M[n:]))


@pytest.mark.parametrize("target", ["principal", "trivial", "universal"])
@pytest.mark.parametrize(
    "name",
    ["A1", "A1xA1", "A2", "A3", "B2", "B3", "C3", "G2"]
    + [pytest.param(name, marks=pytest.mark.slow) for name in ("A4", "D4")],
)
def test_specialization_matches_the_labeled_sweep(name, target):
    got = specialization_construct(universal(name), target)
    want = specialization_reference(universal(name), target)
    for key in ("phi", "seeds", "checked"):
        assert got[key] == want[key], key


@pytest.mark.parametrize("target", ["principal", "universal"])
def test_specialization_refuses_a_swapped_primitive_map(monkeypatch, target):
    # swap the belt relations of two generators with different images
    U = universal("A3")
    images = [specialization_construct(U, target)["phi"][g] for g in U["gen_names"]]
    other = next(i for i, v in enumerate(images) if v != images[0])

    def swapped(U):
        assign = dict(primitive_map(U))
        assign[0], assign[other] = assign[other], assign[0]
        return assign

    primitive_map = finite_type._belt_primitive_map
    monkeypatch.setattr(finite_type, "_belt_primitive_map", swapped)
    with pytest.raises(VerificationFailure, match="specialization checks failed"):
        specialization_construct(U, target)


def test_relabeling_group_order():
    assert _permutation_group([], 3) == {(0, 1, 2)}
    assert len(_permutation_group([(1, 0, 2)], 3)) == 2
    assert len(_permutation_group([(1, 0, 2), (0, 2, 1)], 3)) == 6
    assert len(_permutation_group([(1, 2, 0), (2, 0, 1)], 3)) == 3


@pytest.mark.slow
def test_specialization_e6_finishes_on_one_pair_per_class():
    out = specialization_construct(universal("E6"), "principal")
    assert out["seeds"] == 599760 and out["checked"] == 12 * 599760
    graph = exchange_graph.graph_from_spec(named_matrix("E6"))
    assert out["classes"] == graph["vertices"] == 833


def test_rank2_mci_clean():
    for name in ("A2", "B2", "G2"):
        for coeffs in ("universal", "principal"):
            report = rank2_mci_verify(CARTAN[name], coeffs=coeffs)
            assert report["violations"] == [], (name, coeffs)
            assert report["checked"] > 0
