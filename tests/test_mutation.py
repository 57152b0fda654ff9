"""Matrix, Y-seed, and geometric seed mutation."""

import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusteralg import mutation
from clusteralg.bipartite import cartan_symmetrizer
from clusteralg.laurent import (
    LaurentPolynomial,
    lp_canonical_text,
    lp_exchange_monomials,
)
from clusteralg.mutation import (
    CARTAN,
    InvalidDirection,
    LabeledSeedGeometric,
    LabeledYSeed,
    MalformedMatrix,
    NotSkewSymmetrizable,
    bipartite_matrix_from_cartan,
    bipartite_sign_from_cartan,
    cartan_counterpart_and_sign,
    exchange_key,
    initial_geometric_seed,
    matrix_from_json,
    matrix_to_json,
    mutate_matrix,
    mutate_seed_geometric,
    mutate_y,
    named_matrix,
    oracle_walk,
    positive_definite,
    principal_extension,
    principal_part,
    rank2_matrix,
    skew_symmetrizer,
    trivial_extension,
)
from clusteralg.principal import separation_evaluate
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


def reference_mutation(M, k):
    """b'_ij = -b_ij if i = k or j = k, else b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    kk = k - 1
    return tuple(
        tuple(
            -b if kk in (i, j) else b + (abs(row[kk]) * M[kk][j] + row[kk] * abs(M[kk][j])) // 2
            for j, b in enumerate(row)
        )
        for i, row in enumerate(M)
    )


@st.composite
def extended_matrices(draw):
    """A skew-symmetrizable exchange matrix of rank 2-4, B = S D with S
    skew-symmetric, so d_i b_ij = -d_j b_ji, entries in -4..4, and 0-4
    frozen rows."""
    n = draw(st.integers(2, 4))
    d = [draw(st.integers(1, 4)) for _ in range(n)]
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bound = 4 // max(d[i], d[j])
            s = draw(st.integers(-bound, bound))
            B[i][j], B[j][i] = s * d[j], -s * d[i]
    frozen = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=4))
    return tuple(tuple(row) for row in B + frozen)


@settings(max_examples=200, deadline=None)
@given(extended_matrices(), st.data())
def test_extended_matrix_mutation_matches_reference_rule(M, data):
    k = data.draw(st.integers(1, len(M[0])))
    expected = reference_mutation(M, k)
    with mock.patch.dict(mutation._INCREMENTS, clear=True):
        # the first call fills the increment table, the second reads it
        assert mutate_matrix(M, k) == expected
        assert mutate_matrix(M, k) == expected
    assert mutate_matrix([list(row) for row in M], k) == expected
    assert mutate_matrix(expected, k) == M


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


def _reference_symmetrizer(M, ratio, inconsistent):
    """The symmetrizer along a spanning tree in fractions.Fraction, with
    d_j = d_i * ratio(i, j), as both symmetrizers computed it before they
    shared one integer-only helper."""
    n = len(M)
    d = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        stack = [root]
        comp = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and M[i][j]:
                    w = d[i] * ratio(i, j)
                    if d[j] is None:
                        d[j] = w
                        comp.append(j)
                        stack.append(j)
                    elif d[j] != w:
                        raise inconsistent
        lcm = 1
        for i in comp:
            lcm = lcm * d[i].denominator // math.gcd(lcm, d[i].denominator)
        vals = [int(d[i] * lcm) for i in comp]
        g = 0
        for v in vals:
            g = math.gcd(g, v)
        for i, v in zip(comp, vals):
            d[i] = v // g
    return tuple(int(v) for v in d)


def _reference_skew_symmetrizer(B):
    n = len(B)
    for i in range(n):
        if len(B[i]) != n:
            raise ValueError("exchange matrix must be square")
        if B[i][i] != 0:
            raise NotSkewSymmetrizable("nonzero diagonal entry")
        for j in range(n):
            if (B[i][j] == 0) != (B[j][i] == 0):
                raise NotSkewSymmetrizable("zero pattern is not symmetric")
            if B[i][j] * B[j][i] > 0:
                raise NotSkewSymmetrizable("entries b_ij, b_ji have equal signs")
    d = _reference_symmetrizer(
        B,
        lambda i, j: Fraction(B[i][j], -B[j][i]),
        NotSkewSymmetrizable("inconsistent symmetrizer weights"),
    )
    for i in range(n):
        for j in range(n):
            if d[i] * B[i][j] != -d[j] * B[j][i]:
                raise NotSkewSymmetrizable("symmetrizer check failed")
    return d


def _reference_cartan_symmetrizer(A):
    return _reference_symmetrizer(
        A,
        lambda i, j: Fraction(A[i][j], A[j][i]),
        ValueError("Cartan matrix is not symmetrizable"),
    )


def _outcome(f, M):
    try:
        return f(M)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def symmetrizer_inputs(draw, kinds=("DS", "sign-skew", "bad-diagonal", "any")):
    """Square matrices up to rank 6: D S (S skew-symmetric, so skew-
    symmetrizable with weights 1/d_i), sign-skew with free magnitudes
    (mostly not symmetrizable), either with one nonzero diagonal entry,
    or any entries at all (equal signs, asymmetric zero patterns)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(kinds))
    entry = st.integers(-3, 3)
    M = [[0] * n for _ in range(n)]
    if kind == "any":
        M = [[draw(entry) for _ in range(n)] for _ in range(n)]
    elif kind == "DS":
        d = [draw(st.integers(1, 4)) for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                s = draw(entry)
                M[i][j], M[j][i] = d[i] * s, -d[j] * s
    else:
        for i in range(n):
            for j in range(i + 1, n):
                s = draw(entry)
                M[i][j] = s
                M[j][i] = -_sgn(s) * draw(st.integers(1, 4))
        if kind == "bad-diagonal":
            i = draw(st.integers(0, n - 1))
            M[i][i] = draw(st.integers(1, 3))
    return tuple(tuple(row) for row in M)


def _sgn(a):
    return (a > 0) - (a < 0)


@given(symmetrizer_inputs())
@settings(max_examples=150, deadline=None)
def test_symmetrizers_match_the_fraction_reference(M):
    assert _outcome(skew_symmetrizer, M) == _outcome(_reference_skew_symmetrizer, M)
    assert _outcome(cartan_symmetrizer, M) == _outcome(
        _reference_cartan_symmetrizer, M
    )


skew_symmetrizable = symmetrizer_inputs(kinds=("DS",))


@given(skew_symmetrizable, st.data())
@settings(max_examples=100, deadline=None)
def test_matrix_mutation_preserves_skew_symmetrizer(B, data):
    # seeds made by mutation are not validated again, so this must hold
    k = data.draw(st.integers(1, len(B)))
    assert skew_symmetrizer(mutate_matrix(B, k)) == skew_symmetrizer(B)


def _brute_force_bipartite_sign(B):
    """The largest eps in {-1, +1}^n with b_ij > 0 => eps(i) = +1, eps(j) = -1,
    or None: only isolated vertices are free, and they take +1."""
    n = len(B)
    valid = [
        eps
        for eps in itertools.product((-1, 1), repeat=n)
        if all(
            eps[i] == 1 and eps[j] == -1
            for i in range(n)
            for j in range(n)
            if B[i][j] > 0
        )
    ]
    return max(valid) if valid else None


@given(skew_symmetrizable)
@settings(max_examples=150, deadline=None)
def test_bipartite_sign_matches_a_search_over_all_signs(B):
    n = len(B)
    A, eps = cartan_counterpart_and_sign(B)
    assert eps == _brute_force_bipartite_sign(B)
    assert A == tuple(
        tuple(2 if i == j else -abs(B[i][j]) for j in range(n)) for i in range(n)
    )


@given(symmetrizer_inputs())
@example(((0, -3), (0, 0)))
@settings(max_examples=150, deadline=None)
def test_cartan_counterpart_needs_a_skew_symmetrizable_matrix(M):
    try:
        skew_symmetrizer(M)
    except NotSkewSymmetrizable:
        with pytest.raises(NotSkewSymmetrizable):
            cartan_counterpart_and_sign(M)
    else:
        cartan_counterpart_and_sign(M)


def _determinant(M):
    """Leibniz expansion over all permutations."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)
        )
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total


@given(
    st.one_of(
        skew_symmetrizable,
        # up to E6: the Leibniz expansion of E8's minors takes seconds
        st.sampled_from(sorted(k for k in CARTAN if len(CARTAN[k]) <= 6)).map(
            named_matrix
        ),
    )
)
@settings(max_examples=100, deadline=None)
def test_positive_definite_matches_the_leading_minors(B):
    A, _ = cartan_counterpart_and_sign(B)
    d = skew_symmetrizer(B)
    n = len(B)
    S = [[d[i] * A[i][j] for j in range(n)] for i in range(n)]
    minors = [_determinant([row[:k] for row in S[:k]]) for k in range(1, n + 1)]
    assert positive_definite(A, d) == all(m > 0 for m in minors)


EXCHANGE_TYPES = ["A3", "B3", "C3", "D4", "G2", "rank2(1,3)"]


@given(
    st.sampled_from(EXCHANGE_TYPES),
    st.sampled_from([principal_extension, trivial_extension]),
    st.lists(st.integers(1, 4), max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_exchange_table_gives_what_division_gives(name, extend, path):
    B = rank2_matrix(1, 3) if name == "rank2(1,3)" else named_matrix(name)
    seed = initial_geometric_seed(extend(B))
    for k in path:
        k = (k - 1) % seed.n + 1
        child = mutate_seed_geometric(seed, k)
        # a copy of the parent starts an empty table, so it divides
        alone = LabeledSeedGeometric(seed.x, seed.Btilde, seed.n, seed.vars)
        fresh = mutate_seed_geometric(alone, k)
        assert child.x == fresh.x and child.Btilde == fresh.Btilde
        seed = child


@pytest.mark.parametrize(
    "x,Btilde",
    [
        (("p", "p"), ((0, 0), (0, 0), (1, 2))),
        (
            ("p", "q", "p", "q"),
            ((0, -1, 0, -1), (1, 0, 1, 0), (0, -1, 0, 0), (1, 0, 0, 0)),
        ),
    ],
    ids=["frozen-column", "multiplicity"],
)
def test_seed_rejects_a_repeated_cluster_variable(x, Btilde):
    variables = ("p", "q", "f", "g")[: len(Btilde)]
    with pytest.raises(ValueError, match="repeats a cluster variable"):
        LabeledSeedGeometric(
            [LaurentPolynomial.var(variables, v) for v in x], Btilde, len(x), variables
        )


@given(
    st.sampled_from(["A3", "B3", "D4", "G2"]),
    st.sampled_from([principal_extension, trivial_extension]),
    st.lists(st.integers(1, 4), max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_exchange_keys_name_exchange_relations(name, extend, path):
    # along a walk, two exchanges share a key exactly when they share the
    # dividend and the divisor
    seed = initial_geometric_seed(extend(named_matrix(name)))
    n = seed.n
    relation_of, key_of = {}, {}
    for k in path:
        k = (k - 1) % n + 1
        col = [row[k - 1] for row in seed.Btilde]
        factors = list(zip(seed.x, col)) + [
            (seed.frozen_monomial(i), col[i]) for i in range(n, len(col)) if col[i]
        ]
        plus, minus = lp_exchange_monomials(factors, seed.vars)
        relation = (plus + minus, seed.x[k - 1])
        key = exchange_key(seed.x, col, k - 1)
        assert relation_of.setdefault(key, relation) == relation
        assert key_of.setdefault(relation, key) == key
        seed = mutate_seed_geometric(seed, k)
