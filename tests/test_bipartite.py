"""Bipartite belts, piecewise-linear orbits, and Y-system dynamics."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clusteralg.belt_modp as belt_modp
import clusteralg.bipartite as bipartite
import clusteralg.finite_type as finite_type
import clusteralg.principal as principal
from belt_reference import belt_f_reference, distinct_reference, periodicity_reference
from clusteralg.bipartite import (
    Belt,
    NotBipartite,
    belt_f_recurrence,
    belt_of,
    belt_verify,
    belt_walk,
    coxeter_data,
    involution_from_boundary,
    orbit_vector,
    orbit_vectors,
    periodicity_check,
    t_action,
    tau_action,
    tracked,
    y_system_solve,
)
from clusteralg.finite_type import fibonacci_polynomials
from clusteralg.laurent import RationalExpression, lp_denominator_vector, lp_parse
from clusteralg.mutation import (
    CARTAN,
    NotSkewSymmetrizable,
    bipartite_sign_from_cartan,
    cartan_counterpart_and_sign,
    named_matrix,
    rank2_matrix,
)
from clusteralg.principal import CrossCheckFailure, PrincipalPattern, g_mutation_rule
from clusteralg.semifield import PositiveRationalSemifield, UniversalSemifield

A2_CARTAN = CARTAN["A2"]
A2 = named_matrix("A2")
EPS = bipartite_sign_from_cartan(A2_CARTAN)


def test_coxeter_numbers():
    for name, h in (("A1", 2), ("A2", 3), ("A3", 4), ("B2", 4), ("G2", 6), ("D4", 6)):
        A = CARTAN[name]
        assert coxeter_data(A)["h"] == h
        assert coxeter_data(A)["finite_type"]
    assert not coxeter_data(((2, -2), (-2, 2)))["finite_type"]


def test_coxeter_order_is_searched_only_in_finite_type(monkeypatch):
    products = []
    mat_mul = bipartite._mat_mul

    def counting(A, B):
        products.append(A)
        return mat_mul(A, B)

    monkeypatch.setattr(bipartite, "_mat_mul", counting)
    affine = coxeter_data(((2, -2), (-2, 2)))
    assert affine["h"] is None and not affine["finite_type"]
    assert products == []
    assert coxeter_data(CARTAN["G2"])["h"] == 6
    assert len(products) == 6


def test_orbit_vectors_a2_chain():
    # hand-applied reflections: -a2, -a1, a2, a1+a2, a1 at m = -1..3,
    # then -a2 again at the m = h+1 boundary
    expected = {
        (2, -1): (0, -1),
        (1, 0): (-1, 0),
        (2, 1): (0, 1),
        (1, 2): (1, 1),
        (2, 3): (1, 0),
        (1, 4): (0, -1),
    }
    for (i, m), v in expected.items():
        assert orbit_vector(A2_CARTAN, EPS, i - 1, m, t_action) == v
        # for A2 (simply laced, trivial tau beyond t) the d-vectors agree
        assert orbit_vector(A2_CARTAN, EPS, i - 1, m, tau_action) == v


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "E6", "affine"])
@pytest.mark.parametrize("op", [t_action, tau_action])
def test_orbit_vectors_extend_the_word_in_any_order(name, op):
    A = ((2, -2), (-2, 2)) if name == "affine" else CARTAN[name]
    eps = bipartite_sign_from_cartan(A)
    keys = [(i, m) for m in range(-9, 10) for i in tracked(eps, m)]
    # the table is filled out of order: long words first, then their prefixes
    keys = keys[::-2] + keys[-2::-2]
    at = orbit_vectors(A, eps, op)
    for i, m in keys:
        # reference: the alternating word folded from -alpha_i, signs
        # eps(i), -eps(i), ...
        v = tuple(-1 if r == i else 0 for r in range(len(A)))
        for s in range(m if m >= 0 else -m - 1):
            v = op(A, eps, eps[i] * (-1) ** s, v)
        assert at(i, m) == v
    with pytest.raises(ValueError):
        at(keys[0][0], keys[0][1] + 1)


def test_belt_tracked_data_a2():
    # full table of tracked y (tropical), x, d, g over one period,
    # hand-derived by iterating the exchange relation
    belt = Belt(A2)
    V = ("x1", "x2", "y1", "y2")

    def lp(s):
        return lp_parse(s, V)

    x_expected = {
        (2, -1): lp("x2"),
        (1, 0): lp("x1"),
        (2, 1): lp("x1*x2^-1*y2 + x2^-1"),
        (1, 2): lp("x2^-1*y1*y2 + x1^-1 + x1^-1*x2^-1*y1"),
        (2, 3): lp("x1^-1*y1 + x1^-1*x2"),
        (1, 4): lp("x2"),
        (2, 5): lp("x1"),
    }
    y_expected = {
        (1, -1): (-1, 0),
        (2, 0): (0, 1),
        (1, 1): (1, 0),
        (2, 2): (0, -1),
        (1, 3): (-1, -1),
        (2, 4): (-1, 0),
        (1, 5): (0, 1),
    }
    d_expected = {
        (2, -1): (0, -1),
        (1, 0): (-1, 0),
        (2, 1): (0, 1),
        (1, 2): (1, 1),
        (2, 3): (1, 0),
        (1, 4): (0, -1),
        (2, 5): (-1, 0),
    }
    h = 3  # the orbit formula covers the window m in [-h-2, h+1]
    g_expected = {
        (2, -1): (0, 1),
        (1, 0): (1, 0),
        (2, 1): (0, -1),
        (1, 2): (-1, 0),
        (2, 3): (-1, 1),
        (1, 4): (0, 1),
        (2, 5): (1, 0),
    }
    for (i, m), x in x_expected.items():
        assert belt.x_im(i, m) == x, (i, m)
        assert lp_denominator_vector(x, 2) == d_expected[(i, m)]
        if -h - 2 <= m <= h + 1:
            d = orbit_vector(belt.A, belt.eps, i - 1, m, tau_action)
            assert d == d_expected[(i, m)]
        assert belt.pattern.g_value(belt.path(m), i) == g_expected[(i, m)]
    for (j, m), c in y_expected.items():
        assert belt.y_jm_tracked(j, m) == c, (j, m)


def test_belt_exchange_and_parity():
    belt = Belt(A2)
    for m in range(0, 5):
        belt.verify_parity(m)
        for j in (1, 2):
            if belt.eps[j - 1] == (1 if (m - 1) % 2 == 0 else -1):
                belt.verify_exchange(j, m)
                belt.verify_tropical_y(j, m)


def test_belt_verify_clean():
    for name in ("A2", "A3", "B2"):
        report = belt_verify(named_matrix(name))
        assert report["violations"] == [], (name, report)
        assert report["checked"] > 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=8), st.integers(-60, 60))
def test_tracked_is_the_parity_predicate(eps, m):
    assert tracked(eps, m) == tuple(
        i for i, e in enumerate(eps) if e == (1 if m % 2 == 0 else -1)
    )


def adjacent_g_reference(B, eps, gp):
    """The g-vector at Sigma_0 of the variable whose g-vector at
    Sigma_1 = mu_-(Sigma_0) is gp, written out over the k with eps(k) = -1."""
    n = len(B)
    g = []
    for r in range(n):
        if eps[r] == -1:
            g.append(-gp[r])
        else:
            s = gp[r]
            for k in range(n):
                if eps[k] == -1:
                    s += max(-B[r][k], 0) * gp[k] - B[r][k] * max(-gp[k], 0)
            g.append(s)
    return tuple(g)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["A3", "B3", "C3", "D4", "E6", "G2"]), st.data())
def test_g_mutation_rule_over_mu_minus_is_the_adjacent_seed_relation(name, data):
    B = named_matrix(name)
    eps = cartan_counterpart_and_sign(B)[1]
    gp = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=len(B), max_size=len(B))))
    B1 = tuple(tuple(-v for v in row) for row in B)
    g = gp
    for k in Belt(B).mu_minus:
        g = g_mutation_rule(B1, k, g)
    assert g == adjacent_g_reference(B, eps, gp)


def test_belt_walk_runs_with_verification():
    belt_walk(A2, (-2, 7))


def test_boundary_involution():
    # A2: the h+1 boundary swaps the two indices; B2: identity
    assert involution_from_boundary(A2_CARTAN, EPS, 3) == {1: 2, 2: 1}
    B2A = CARTAN["B2"]
    assert involution_from_boundary(
        B2A, bipartite_sign_from_cartan(B2A), 4
    ) == {1: 1, 2: 2}


def test_periodicity_finite_types():
    for name in ("A1", "A2", "A3", "B2", "G2"):
        B = named_matrix(name)
        h = coxeter_data(CARTAN[name])["h"]
        out = periodicity_check(B, mode="seeds")
        assert out["finite"] and out["divides"] == 2 * (h + 2)
        assert out["period"] > 0 and out["divides"] % out["period"] == 0
        out2 = periodicity_check(B, mode="y-system")
        assert out2["finite"] and out2["divides"] == 2 * (h + 2)


def test_a2_period_is_ten():
    assert periodicity_check(A2, mode="seeds")["period"] == 10


def test_infinite_type_never_repeats():
    out = periodicity_check(rank2_matrix(2, 2), cap=12)
    assert out == {"finite": False, "no_period_up_to": 12}


def test_a_wild_type_is_certified_at_the_default_cap():
    out = periodicity_check(rank2_matrix(2, 3))
    assert out == {"finite": False, "no_period_up_to": 40}


def test_periodicity_check_rejects_an_unknown_mode():
    for B in (A2, rank2_matrix(2, 2)):
        with pytest.raises(ValueError, match="mode must be seeds or y-system"):
            periodicity_check(B, mode="bogus")


# -- the key route of the non-repetition certificate ----------------------

# a bipartite rank-3 matrix of infinite type
INFINITE3 = ((0, 2, 1), (-2, 0, 0), (-1, 0, 0))
RANK2_INFINITE = [
    (b, c) for b in range(1, 7) for c in range(1, 7) if 4 <= b * c <= 6
]


def _counting_exact_reads(monkeypatch):
    """The m of every exact read of a tracked value, Belt.x_im and
    Belt.y_universal being wrapped to record it."""
    reads = []
    x_im, y_universal = Belt.x_im, Belt.y_universal
    monkeypatch.setattr(
        Belt, "x_im", lambda self, i, m: reads.append(m) or x_im(self, i, m)
    )
    monkeypatch.setattr(
        Belt,
        "y_universal",
        lambda self, j, m: reads.append(m) or y_universal(self, j, m),
    )
    return reads


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([rank2_matrix(*bc) for bc in RANK2_INFINITE] + [INFINITE3]),
    st.integers(0, 40),
)
@example(INFINITE3, 40)
def test_an_infinite_type_is_certified_without_an_exact_comparison(B, cap):
    # g- and c-vectors never collide on these belts, so no value is built
    A, _ = cartan_counterpart_and_sign(B)
    assert not coxeter_data(A)["finite_type"]
    with pytest.MonkeyPatch.context() as monkeypatch:
        reads = _counting_exact_reads(monkeypatch)
        out = periodicity_check(B, cap=cap)
    assert out == {"finite": False, "no_period_up_to": cap}
    assert reads == []


@pytest.mark.parametrize(
    "B, cap",
    [(named_matrix("A3"), 8), (named_matrix("G2"), 8), (rank2_matrix(2, 2), 8),
     (rank2_matrix(2, 3), 5), (INFINITE3, 4)],
    ids=["A3", "G2", "rank2-2-2", "rank2-2-3", "rank3"],
)
def test_the_keys_are_the_g_and_c_vectors_of_the_pattern(B, cap):
    # the walk's keys against the memoized pattern's multidegrees and matrix
    belt = Belt(B)
    for kind, i, m, key in bipartite._belt_keys(belt, cap):
        if kind == "x":
            assert key == belt.pattern.g_value(belt.path(m), i)
        else:
            assert key == belt.c_vector(i, m)


@pytest.mark.parametrize(
    "B, kind, later, earlier",
    [
        (A2, "y", (1, 5), (2, 0)),
        (((0, -1), (1, 0)), "x", (1, 5), (2, 0)),
        (named_matrix("B2"), "x", (1, 6), (1, 0)),
        (named_matrix("A3"), "x", (1, 6), (3, 0)),
        (named_matrix("D4"), "x", (1, 8), (1, 0)),
        (named_matrix("G2"), "x", (1, 8), (1, 0)),
    ],
    ids=["A2", "A2-relabeled", "B2", "A3", "D4", "G2"],
)
def test_the_distinctness_step_finds_the_real_repeat_of_a_finite_type(
    B, kind, later, earlier
):
    # past the period the belt repeats; both routes name the same first repeat
    message = "%s repeats: (%d;%d) vs %s" % (kind, *later, earlier)
    for route in (bipartite.belt_distinct, distinct_reference):
        with pytest.raises(CrossCheckFailure) as exc:
            route(Belt(B), 12)
        assert str(exc.value) == message
    belt = Belt(B)
    value = belt.x_im if kind == "x" else belt.y_universal
    assert value(*later) == value(*earlier)


@pytest.mark.parametrize("bc", [(2, 2), (1, 4), (4, 1)])
def test_the_residue_route_gives_the_oracle_report(bc):
    B = rank2_matrix(*bc)
    assert periodicity_check(B, cap=16) == periodicity_reference(B, cap=16)


def test_equal_residues_are_confirmed_exactly(monkeypatch):
    # every x and every Y given one key: each pair of one kind is compared
    keys = bipartite._belt_keys
    monkeypatch.setattr(
        bipartite,
        "_belt_keys",
        lambda belt, cap: ((k, i, m, ()) for k, i, m, _ in keys(belt, cap)),
    )
    compared = _counting_exact_reads(monkeypatch)
    out = periodicity_check(rank2_matrix(2, 2), cap=8)
    assert out == {"finite": False, "no_period_up_to": 8}
    # 9 x and 9 y values, every pair of one kind compared: two reads a pair
    assert len(compared) == 2 * 2 * (9 * 8 // 2)


def _corrupt_g_walks(monkeypatch):
    """Add one y_1 to every c-vector of each g_walk that bipartite starts,
    and to nothing else: the belt's own pattern mutates unchanged."""
    mutate_matrix, g_walk = principal.mutate_matrix, principal.g_walk

    def corrupted(M, k):
        out = mutate_matrix(M, k)
        n = len(out[0])
        return out[:n] + (tuple(v + 1 for v in out[n]),) + out[n + 1 :]

    def corrupted_walk(B0):
        walk = g_walk(B0)

        def at(path):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(principal, "mutate_matrix", corrupted)
                return walk(path)

        return at

    monkeypatch.setattr(bipartite, "g_walk", corrupted_walk)


def test_a_corrupted_walk_matrix_fails_the_g_recurrence(monkeypatch):
    # one more y_1 in every c-vector: the two g routes then disagree
    _corrupt_g_walks(monkeypatch)
    with pytest.raises(CrossCheckFailure, match="g-vector recurrences disagree"):
        periodicity_check(rank2_matrix(2, 2))


def test_a_corrupted_adjacent_walk_matrix_fails_the_g_recurrence(monkeypatch):
    # the adjacent-seed g-vectors of belt_verify pass the two-route check
    _corrupt_g_walks(monkeypatch)
    with pytest.raises(CrossCheckFailure, match="g-vector recurrences disagree"):
        belt_verify(named_matrix("A3"))


# belt_verify's reports where the adjacent-seed g-vectors were read off a
# second PrincipalPattern, of -B
BELT_VERIFY_REPORTS = {
    "A2": 52, "A3": 86, "A4": 128, "B2": 62, "B3": 114, "C3": 114,
    "D4": 146, "G2": 82, "E6": 366, "A1xA1": 42, "E7": 602,
}


@pytest.mark.parametrize(
    "name",
    [n if n != "E7" else pytest.param(n, marks=pytest.mark.slow) for n in BELT_VERIFY_REPORTS],
)
def test_belt_verify_reports_are_unchanged(name):
    report = belt_verify(named_matrix(name))
    assert report == {"checked": BELT_VERIFY_REPORTS[name], "violations": []}


@pytest.mark.parametrize(
    "bc", [(2, 2), (1, 4), pytest.param((2, 3), marks=pytest.mark.slow)]
)
def test_belt_verify_reports_are_unchanged_in_infinite_type(bc):
    report = belt_verify(rank2_matrix(*bc), m_range=(-6, 8))
    assert report == {"checked": 75, "violations": []}


def test_belt_verify_divides_only_the_belts_own_relations(monkeypatch, fresh_belt):
    # belt_verify walks E6's shared belt and the seeds and Y-system checks
    # read it again: 42 relations divided, one Coxeter order searched. The
    # adjacent-seed g-vectors and rank2(2,2)'s certificate divide nothing
    calls, searched = [], []
    exchange, coxeter = PrincipalPattern._exchange, bipartite.coxeter_data
    monkeypatch.setattr(
        PrincipalPattern, "_exchange", lambda *args: calls.append(1) or exchange(*args)
    )
    monkeypatch.setattr(bipartite, "coxeter_data", lambda A: searched.append(A) or coxeter(A))
    E6 = named_matrix("E6")
    belt_verify(E6)
    assert (len(calls), len(searched)) == (42, 1)
    periodicity_check(E6, mode="seeds")
    periodicity_check(E6, mode="y-system")
    assert (len(calls), len(searched)) == (42, 1)
    periodicity_check(rank2_matrix(2, 2), cap=26)
    assert (len(calls), len(searched)) == (42, 2)


# -- the shared belt ------------------------------------------------------


def _belt_entry_points(B):
    """name -> call of each top-level belt reader on B: finite types on their
    default ranges, rank 2 on explicit ones."""
    A = cartan_counterpart_and_sign(B)[0]
    U = UniversalSemifield(tuple("u%d" % (i + 1) for i in range(len(A))))
    finite = coxeter_data(A)["finite_type"]
    m_range = None if finite else (-6, 8)
    return {
        "belt_verify": lambda: belt_verify(B, m_range=m_range),
        "seeds": lambda: periodicity_check(B, mode="seeds", cap=12),
        "y-system": lambda: periodicity_check(B, mode="y-system", cap=12),
        "fibonacci": lambda: fibonacci_polynomials(B, None if finite else (0, 8)),
        "universal-y": lambda: y_system_solve(A, U, steps=8),
    }


SHARED_BELT_TYPES = {
    **{name: named_matrix(name) for name in ("A3", "B3", "D4", "G2", "E6")},
    "rank2-2-2": rank2_matrix(2, 2),
    "rank2-1-4": rank2_matrix(1, 4),
}


@pytest.mark.parametrize("B", SHARED_BELT_TYPES.values(), ids=SHARED_BELT_TYPES.keys())
def test_a_warm_shared_belt_gives_the_cold_results(monkeypatch, fresh_belt, B):
    calls = _belt_entry_points(B)
    names = list(calls)
    cold, warm = {}, {}
    for name in names:
        bipartite._shared_belt.cache_clear()
        cold[name] = calls[name]()
    for at, name in enumerate(names):
        # warmed by another entry point, whose belt the call then reads
        bipartite._shared_belt.cache_clear()
        calls[names[at - 1]]()
        shared = belt_of(B)
        warm[name] = calls[name]()
        assert belt_of(B) is shared, name
    assert warm == cold
    # each call on a private Belt(B), as every call built one before
    for module in (bipartite, finite_type):
        monkeypatch.setattr(module, "belt_of", lambda B: Belt(B))
    assert {name: calls[name]() for name in names} == cold


@pytest.mark.parametrize("entry", ["belt_verify", "seeds"])
def test_a_failed_relation_is_not_kept_by_the_shared_belt(monkeypatch, fresh_belt, entry):
    # the fifth g-recurrence check fails, the forward one of the third
    # relation divided: a second call re-reads the two relations kept and
    # divides and checks the third again
    call = _belt_entry_points(named_matrix("A3"))[entry]
    cold = call()
    bipartite._shared_belt.cache_clear()
    check_g = PrincipalPattern._check_g
    seen, checked = [], []

    def failing_fifth(self, Bt, g, k, deg):
        checked.append((Bt, g, k))
        if (Bt, g, k) not in seen:
            seen.append((Bt, g, k))
        if seen.index((Bt, g, k)) == 4:
            raise CrossCheckFailure("injected at the fifth check")
        return check_g(self, Bt, g, k, deg)

    monkeypatch.setattr(PrincipalPattern, "_check_g", failing_fifth)
    for expected_checks in (5, 1):
        checked.clear()
        with pytest.raises(CrossCheckFailure, match="fifth check"):
            call()
        assert len(checked) == expected_checks
    shared = belt_of(named_matrix("A3"))
    monkeypatch.undo()
    assert call() == cold
    assert belt_of(named_matrix("A3")) is shared


def test_the_shared_belt_holds_the_last_matrix_only(fresh_belt):
    E6 = named_matrix("E6")
    periodicity_check(E6)
    ref = weakref.ref(belt_of(E6))
    gc.collect()
    assert ref() is not None
    belt_verify(named_matrix("A3"))
    gc.collect()
    assert ref() is None


NB, VE = "NotBipartite", "ValueError"
NO_M_RANGE = "m_range required for infinite type"
NOT_BELT = (NB, "exchange matrix is not bipartite")
NOT_PERIODIC = (NB, "periodicity check needs a bipartite matrix")
# B -> what belt_verify (without, then with an m_range), periodicity_check
# (seeds, then y-system) and fibonacci_polynomials return or raise, as
# before the belt was shared
BELT_INPUT_ERRORS = {
    "equal-signs": (
        ((0, 1), (1, 0)),
        [("NotSkewSymmetrizable", "entries b_ij, b_ji have equal signs")] * 5,
    ),
    "three-cycle": (
        ((0, 1, -1), (-1, 0, 1), (1, -1, 0)),
        [(VE, "Coxeter graph is not bipartite")] * 2
        + [NOT_PERIODIC] * 2
        + [(VE, "Coxeter graph is not bipartite")],
    ),
    "linear-A3": (
        ((0, 1, 0), (-1, 0, 1), (0, -1, 0)),
        [NOT_BELT] * 2 + [NOT_PERIODIC] * 2 + [NOT_BELT],
    ),
    "linear-affine": (
        ((0, 2, 0), (-2, 0, 2), (0, -2, 0)),
        [(VE, NO_M_RANGE), NOT_BELT] + [NOT_PERIODIC] * 2 + [("NotFiniteType", NO_M_RANGE)],
    ),
    "rank2-2-2": (
        rank2_matrix(2, 2),
        [(VE, NO_M_RANGE), ("ok", {"checked": 30, "violations": []})]
        + [("ok", {"finite": False, "no_period_up_to": 4})] * 2
        + [("NotFiniteType", NO_M_RANGE)],
    ),
}


@pytest.mark.parametrize(
    "B, outcomes", BELT_INPUT_ERRORS.values(), ids=BELT_INPUT_ERRORS.keys()
)
def test_belt_readers_fail_as_before_on_a_cold_or_warm_belt(fresh_belt, B, outcomes):
    calls = [
        lambda: belt_verify(B),
        lambda: belt_verify(B, m_range=(-2, 3)),
        lambda: periodicity_check(B, cap=4),
        lambda: periodicity_check(B, mode="y-system", cap=4),
        lambda: fibonacci_polynomials(B),
    ]
    for warm in (None, A2):
        got = []
        for call in calls:
            bipartite._shared_belt.cache_clear()
            if warm is not None:
                belt_of(warm)
            try:
                got.append(("ok", call()))
            except (ValueError, AssertionError) as exc:
                got.append((type(exc).__name__, str(exc)))
        assert got == outcomes


from rank2_forms import rank2_y13_closed_form


@pytest.mark.parametrize("bc", [(1, 1), (2, 2), (1, 3), (2, 1)])
def test_rank2_y_system_y13_closed_form(bc):
    b, c = bc
    A = ((2, -b), (-c, 2))
    U = UniversalSemifield(("u1", "u2"))
    vals = y_system_solve(A, U, steps=4, eps=(1, -1))
    assert vals[(1, 3)] == rank2_y13_closed_form(b, c)


def test_affine_four_cycle_gives_squared_fibonacci():
    # the bipartite Y-system on the 4-cycle, started at all ones, walks
    # through squares of every other Fibonacci number
    A = (
        (2, -1, 0, -1),
        (-1, 2, -1, 0),
        (0, -1, 2, -1),
        (-1, 0, -1, 2),
    )
    S = PositiveRationalSemifield()
    vals = y_system_solve(
        A, S, steps=18, initial_values=[Fraction(1)] * 4, eps=(1, -1, 1, -1)
    )
    fib = [0, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    for m in range(1, 17):
        got = vals[(1, m)] if m % 2 else vals[(2, m)]
        assert got == Fraction(fib[2 * m + 1]) ** 2, m


def test_belt_f_recurrence_matches_pattern():
    for name in ("A2", "B2"):
        B = named_matrix(name)
        belt = Belt(B)
        h = coxeter_data(belt.A)["h"]
        tab = belt_f_recurrence(B, h + 2)
        for (i, m), F in tab.items():
            if m < 0:
                continue
            assert belt.state(m).F[i - 1] == F, (name, i, m)


FINITE_BELT_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4", "A1xA1", "E6")


def _relabeled(B, sigma):
    return tuple(tuple(B[sigma[i]][sigma[j]] for j in range(len(B))) for i in range(len(B)))


def _belt_input(name):
    if name == "E6-relabeled":
        return _relabeled(named_matrix("E6"), (3, 0, 5, 1, 4, 2))
    return named_matrix(name)


def _assert_same_table(got, want):
    assert list(got) == list(want)
    for key, F in want.items():
        assert got[key].vars == F.vars, key
        assert got[key].terms == F.terms, key


@pytest.mark.parametrize("name", FINITE_BELT_TYPES + ("E6-relabeled",))
def test_belt_f_recurrence_matches_the_sparse_route(name):
    B = _belt_input(name)
    h = coxeter_data(cartan_counterpart_and_sign(B)[0])["h"]
    _assert_same_table(belt_f_recurrence(B, h + 2), belt_f_reference(B, h + 2))


@pytest.mark.parametrize("bc", [(1, 3), (2, 2)])
def test_belt_f_recurrence_matches_the_sparse_route_in_infinite_type(bc):
    B = rank2_matrix(*bc)
    for m_hi in range(0, 9):
        _assert_same_table(belt_f_recurrence(B, m_hi), belt_f_reference(B, m_hi))


@pytest.mark.slow
def test_belt_f_recurrence_matches_the_sparse_route_on_e7():
    B = named_matrix("E7")
    _assert_same_table(belt_f_recurrence(B, 20), belt_f_reference(B, 20))


@pytest.mark.parametrize("name", FINITE_BELT_TYPES + ("E7",))
def test_belt_degree_boxes_are_the_positive_parts_of_the_d_vectors(name):
    A, eps = cartan_counterpart_and_sign(named_matrix(name))
    h = coxeter_data(A)["h"]
    _, box = belt_modp._belt_degrees(A, eps, h + 2)
    for (i, m), b in box.items():
        d = orbit_vector(A, eps, i - 1, m, tau_action)
        assert b == tuple(max(v, 0) for v in d), (name, i, m)


def test_belt_f_recurrence_refuses_a_remainder_at_a_node(monkeypatch):
    # y^[d]+ of the first step that divides by an F other than 1 gains a
    # y_r; the exact values at (1, ..., 1) and beyond the nodes still come
    # from the true schedule, so only the division at the nodes can see it
    real_degrees, real_values = belt_modp._belt_degrees, belt_modp._belt_values
    true = {}

    def degrees(*args):
        steps, box = real_degrees(*args)
        true["steps"] = steps
        at = next(s for s, (_, m, _, _, _) in enumerate(steps) if m >= 2)
        j, m, lo, hi, nbrs = steps[at]
        true["key"] = (j + 1, m + 1)
        hi = tuple(v + (r == j) for r, v in enumerate(hi))
        return steps[:at] + [(j, m, lo, hi, nbrs)] + steps[at + 1 :], box

    monkeypatch.setattr(belt_modp, "_belt_degrees", degrees)
    monkeypatch.setattr(
        belt_modp, "_belt_values", lambda _, eps, point: real_values(true["steps"], eps, point)
    )
    with pytest.raises(CrossCheckFailure) as exc:
        belt_f_recurrence(named_matrix("D4"), 8)
    assert str(exc.value) == "F(%d;%d) leaves a remainder at a node" % true["key"]


def test_belt_f_recurrence_refuses_a_zero_divisor_at_a_node():
    # a schedule no belt gives: F(1;2) = y1 + y1 passes its own checks but
    # is 0 at y1 = 0, the one node of F(1;4) = (y1 + y1) / F(1;2)
    steps = [(0, 1, (1,), (1,), ()), (0, 3, (1,), (1,), ())]
    box = {(1, 0): (0,), (1, 2): (1,), (1, 4): (0,)}
    at_one = {(1, 0): 1, (1, 2): 2, (1, 4): 1}
    with pytest.raises(CrossCheckFailure) as exc:
        belt_modp._table_mod_p(1, (1,), steps, box, at_one, belt_modp._PRIMES[0])
    assert str(exc.value) == "F(1;4) divides by 0 at a node"


def test_belt_f_recurrence_runs_on_the_first_listed_prime_above_the_bound(monkeypatch):
    # the largest F(1, 1) of A2 is 3, so the bound is 6: 7 is taken, and
    # every coefficient (at most 3) is still at most 7 / 2
    real = belt_modp._table_mod_p
    moduli = []

    def table_mod_p(*args):
        moduli.append(args[-1])
        return real(*args)

    monkeypatch.setattr(belt_modp, "_PRIMES", (5, 7, 11))
    monkeypatch.setattr(belt_modp, "_table_mod_p", table_mod_p)
    B = named_matrix("A2")
    _assert_same_table(belt_f_recurrence(B, 5), belt_f_reference(B, 5))
    assert moduli == [7]


def test_belt_f_recurrence_gives_up_past_the_last_prime(monkeypatch):
    # no listed prime above the bound 6 of A2
    monkeypatch.setattr(belt_modp, "_PRIMES", (3, 5))
    with pytest.raises(ArithmeticError) as exc:
        belt_f_recurrence(named_matrix("A2"), 5)
    assert type(exc.value) is ArithmeticError
    assert len(str(exc.value).splitlines()) == 1


def test_belt_f_recurrence_rejects_a_degree_box_one_too_small(monkeypatch):
    # every F with a nonzero degree, shrunk by one on each such axis in turn
    real = belt_modp._belt_degrees
    A, eps = cartan_counterpart_and_sign(named_matrix("D4"))
    _, boxes = real(A, eps, 8)
    cases = [(key, r) for key, b in boxes.items() for r in range(4) if b[r]]
    assert len(cases) == 27
    for key, r in cases:

        def shrunk(*args):
            steps, box = real(*args)
            box[key] = tuple(v - (s == r) for s, v in enumerate(box[key]))
            return steps, box

        monkeypatch.setattr(belt_modp, "_belt_degrees", shrunk)
        with pytest.raises(CrossCheckFailure):
            belt_f_recurrence(named_matrix("D4"), 8)


def test_not_bipartite_rejected():
    # an oriented 3-cycle: b_12 > 0 asks for eps_2 = -1, b_23 > 0 for eps_2 = +1
    with pytest.raises(NotBipartite):
        Belt(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))


def test_belt_recurrence_rejects_a_matrix_that_is_not_skew_symmetrizable():
    with pytest.raises(NotSkewSymmetrizable):
        belt_f_recurrence(((0, -3), (0, 0)), 2)


# -- the universal Y-system read off the belt -----------------------------


def _ysystem_cases():
    """(A, steps, period or None): the finite types but E6 at 2(h+2)+2
    steps, and rank 2 at 8 (too few to reach a period)."""
    for name in FINITE_BELT_TYPES:
        if name == "E6":
            continue
        A = cartan_counterpart_and_sign(named_matrix(name))[0]
        period = 2 * (coxeter_data(A)["h"] + 2)
        yield pytest.param(A, period + 2, period, id=name)
    for b, c in ((1, 1), (2, 2), (1, 3), (2, 1)):
        yield pytest.param(((2, -b), (-c, 2)), 8, None, id="rank2-%d,%d" % (b, c))


@pytest.mark.parametrize("initial", ["u", "y"])
@pytest.mark.parametrize("A, steps, period", list(_ysystem_cases()))
def test_universal_y_system_satisfies_its_recurrence_exactly(A, steps, period, initial):
    U = UniversalSemifield(tuple("u%d" % (i + 1) for i in range(len(A))))
    vals = y_system_solve(A, U, steps=steps, initial=initial)
    for (i, m) in vals:
        if (i, m + 2) not in vals:
            continue
        rhs = U.one()
        for j in range(len(A)):
            if j != i - 1 and A[j][i - 1]:
                rhs = rhs * U.power(U.oplus(vals[(j + 1, m + 1)], U.one()), -A[j][i - 1])
        assert vals[(i, m)] * vals[(i, m + 2)] == rhs, (i, m + 1)
    if period is not None:
        for (i, m), v in vals.items():
            if (i, m + period) in vals:
                assert vals[(i, m + period)] == v, (i, m)


def test_a_wrong_belt_y_value_fails_the_y_system_check(monkeypatch):
    real = Belt.y_universal

    def wrong(self, j, m):
        y = real(self, j, m)
        if (j, m) == (2, 4):
            return y * y
        return y

    monkeypatch.setattr(Belt, "y_universal", wrong)
    U = UniversalSemifield(("u1", "u2"))
    with pytest.raises(CrossCheckFailure, match=r"at \(2;4\)$"):
        y_system_solve(CARTAN["B2"], U, steps=6)


@pytest.mark.parametrize(
    "A, eps",
    [(CARTAN["A1xA1"], (1, -1)), (A2_CARTAN, (1, 1))],
    ids=["isolated-minus", "not-a-coloring"],
)
def test_a_sign_that_is_not_the_belts_is_refused(A, eps):
    U = UniversalSemifield(("u1", "u2"))
    with pytest.raises(ValueError):
        y_system_solve(A, U, steps=4, eps=eps)


@pytest.mark.parametrize("first", ["u1 + 1", "2*u1", "0"])
def test_a_universal_initial_value_that_is_not_a_monomial_is_refused(first):
    U = UniversalSemifield(("u1", "u2"))
    u1 = RationalExpression.from_poly(lp_parse(first, U.gens))
    with pytest.raises(ValueError, match="not a Laurent monomial"):
        y_system_solve(A2_CARTAN, U, steps=4, initial_values=[u1, U.generator("u2")])


def test_universal_initial_values_may_be_any_unit_monomials():
    # unit monomials written as quotients, u1^2 u2^-1 and u1^-1 u2, enter
    # the check as given; on B2 its exponents -a_ij and -a_ji differ
    U = UniversalSemifield(("u1", "u2"))
    A = CARTAN["B2"]

    def quotient(num, den):
        return RationalExpression(lp_parse(num, U.gens), lp_parse(den, U.gens))

    init = [quotient("2*u1^3", "2*u1*u2"), quotient("-u1", "-u1^2*u2^-1")]
    vals = y_system_solve(A, U, steps=3, initial_values=init)
    y11 = U.div(U.power(U.oplus(init[1], U.one()), -A[1][0]), init[0])
    assert vals[(1, 1)] == y11
    assert vals[(2, 2)] == U.div(U.power(U.oplus(y11, U.one()), -A[0][1]), init[1])
