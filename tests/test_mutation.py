"""Matrix, Y-seed, and geometric seed mutation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteralg.laurent import RationalExpression, lp_canonical_text
from clusteralg.mutation import (
    CARTAN,
    InvalidDirection,
    LabeledYSeed,
    MalformedMatrix,
    NotSkewSymmetrizable,
    bipartite_matrix_from_cartan,
    bipartite_sign_from_cartan,
    cartan_counterpart_and_sign,
    initial_geometric_seed,
    matrix_from_json,
    matrix_to_json,
    mutate_matrix,
    mutate_seed_geometric,
    mutate_y,
    named_matrix,
    oracle_walk,
    principal_extension,
    principal_part,
    rank2_matrix,
    skew_symmetrizer,
    trivial_extension,
)
from clusteralg.semifield import UniversalSemifield


def skew3(a, b, c):
    return ((0, a, b), (-a, 0, c), (-b, -c, 0))


skew_matrices = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
).map(lambda t: skew3(*t))


@given(skew_matrices, st.integers(1, 3))
def test_matrix_mutation_is_an_involution(B, k):
    assert mutate_matrix(mutate_matrix(B, k), k) == tuple(
        tuple(row) for row in B
    )


@given(skew_matrices, st.integers(1, 3))
def test_matrix_mutation_preserves_skew_symmetrizer(B, k):
    d = skew_symmetrizer(B)
    assert skew_symmetrizer(mutate_matrix(B, k)) == d


def test_matrix_mutation_known_rank2():
    B = rank2_matrix(1, 1)
    assert B == ((0, 1), (-1, 0))
    assert mutate_matrix(B, 1) == ((0, -1), (1, 0))


def test_matrix_mutation_hand_example():
    # worked by hand from the two exchange-matrix update formulas
    B = ((0, 2, -1), (-1, 0, 1), (1, -2, 0))
    M = mutate_matrix(B, 2)
    assert M == ((0, -2, 1), (1, 0, -1), (-1, 2, 0))


def test_non_skew_symmetrizable_rejected():
    with pytest.raises(NotSkewSymmetrizable):
        skew_symmetrizer(((0, 1), (1, 0)))


def test_extensions_and_principal_part():
    B = named_matrix("A2")
    Bt = principal_extension(B)
    assert len(Bt) == 4 and principal_part(Bt, 2) == B
    assert tuple(Bt[2]) == (1, 0) and tuple(Bt[3]) == (0, 1)
    assert trivial_extension(B) == B


def test_cartan_counterpart_round_trip():
    for name in ("A2", "A3", "B2", "G2", "D4"):
        A = CARTAN[name]
        eps = bipartite_sign_from_cartan(A)
        B = bipartite_matrix_from_cartan(A, eps)
        A2, eps2 = cartan_counterpart_and_sign(B)
        assert A2 == tuple(tuple(row) for row in A)
        assert eps2 == eps


def test_matrix_json_round_trip():
    Bt = principal_extension(named_matrix("B2"))
    text = matrix_to_json(Bt, 2)
    back, n = matrix_from_json(text)
    assert back == tuple(tuple(r) for r in Bt)
    assert n == 2
    B = named_matrix("A2")
    back, n = matrix_from_json(matrix_to_json(B))
    assert back == B and n == 2


@pytest.mark.parametrize(
    "data",
    [
        {"B": [[0, 1], [-1]]},
        {"B": []},
        {"B": [[]]},
        {"Btilde": [[0, 1], [-1, 0], [1]], "n": 2},
    ],
)
def test_ragged_or_empty_matrices_are_rejected(data):
    with pytest.raises(MalformedMatrix):
        matrix_from_json(json.dumps(data))


@given(st.lists(st.integers(1, 2), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_y_seed_mutation_is_an_involution(path):
    U = UniversalSemifield(("y1", "y2"))
    ys = LabeledYSeed([U.generator("y1"), U.generator("y2")], named_matrix("A2"), U)
    for k in path:
        ys = mutate_y(ys, k)
    k = path[-1]
    twice = mutate_y(mutate_y(ys, k), k)
    assert twice.B == ys.B
    assert all(a == b for a, b in zip(twice.y, ys.y))


@given(st.lists(st.integers(1, 2), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_geometric_seed_mutation_is_an_involution(path):
    seed = initial_geometric_seed(principal_extension(named_matrix("A2")))
    for k in path:
        seed = mutate_seed_geometric(seed, k)
    k = path[-1]
    twice = mutate_seed_geometric(mutate_seed_geometric(seed, k), k)
    assert twice.Btilde == seed.Btilde
    assert twice.x == seed.x


@pytest.mark.parametrize("k", [0, -1, 3])
def test_directions_outside_1_to_n_are_rejected(k):
    B = named_matrix("A2")
    U = UniversalSemifield(("y1", "y2"))
    ys = LabeledYSeed([U.generator("y1"), U.generator("y2")], B, U)
    seed = initial_geometric_seed(principal_extension(B))
    with pytest.raises(InvalidDirection):
        mutate_matrix(principal_extension(B), k)
    with pytest.raises(InvalidDirection):
        mutate_y(ys, k)
    with pytest.raises(InvalidDirection):
        mutate_seed_geometric(seed, k)


def test_general_coefficient_walk_matches_rational_oracle():
    # independent oracle: plain rational-function arithmetic with free
    # coefficients, no Laurent expansion, no F-polynomial machinery
    from clusteralg.principal import separation_evaluate

    B = named_matrix("A2")
    path = (2, 1, 2, 1, 2)
    U = UniversalSemifield(("x1", "x2", "y1", "y2"))
    y_in_S = (U.generator("y1"), U.generator("y2"))
    for m in range(1, len(path) + 1):
        xs, ys = oracle_walk(B, path[:m], U)
        for ell in (1, 2):
            got = separation_evaluate(B, path[:m], ell, U, y_in_S=y_in_S)
            assert got == xs[ell - 1]


def test_laurent_phenomenon_on_a_longer_walk():
    # every cluster variable stays a Laurent polynomial (monomial
    # denominators only) -- guaranteed by construction in
    # mutate_seed_geometric, which would raise on non-exact division
    seed = initial_geometric_seed(principal_extension(named_matrix("A3")))
    for k in (1, 2, 3, 1, 2, 3, 2, 1):
        seed = mutate_seed_geometric(seed, k)
    for x in seed.x:
        assert lp_canonical_text(x)  # well-formed Laurent polynomial
