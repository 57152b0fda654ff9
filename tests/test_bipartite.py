"""Bipartite belts, piecewise-linear orbits, and Y-system dynamics."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusteralg.belt_modp as belt_modp
import clusteralg.bipartite as bipartite
from belt_reference import belt_f_reference, distinct_reference, periodicity_reference
from clusteralg.bipartite import (
    Belt,
    NotBipartite,
    belt_f_recurrence,
    belt_verify,
    belt_walk,
    coxeter_data,
    involution_from_boundary,
    orbit_vector,
    periodicity_check,
    t_action,
    tau_action,
    y_system_solve,
)
from clusteralg.laurent import lp_denominator_vector, lp_parse
from clusteralg.mutation import (
    CARTAN,
    NotSkewSymmetrizable,
    bipartite_sign_from_cartan,
    cartan_counterpart_and_sign,
    named_matrix,
    rank2_matrix,
)
from clusteralg.principal import CrossCheckFailure
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


# -- the residue route of the non-repetition certificate ------------------

# a bipartite rank-3 matrix of infinite type
INFINITE3 = ((0, 2, 1), (-2, 0, 0), (-1, 0, 0))
RANK2_INFINITE = [
    (b, c) for b in range(1, 7) for c in range(1, 7) if 4 <= b * c <= 6
]


def _value(poly, point, p):
    """The Laurent polynomial poly at point, mod p."""
    return sum(
        c * prod(pow(v, e, p) for v, e in zip(point, exps))
        for exps, c in poly.terms.items()
    ) % p


def _assert_residues_are_values(B, cap, p):
    belt = Belt(B)
    xs, ys = belt_modp._point(belt.n)
    residues = belt_modp.belt_residues(belt, cap, p)
    assert [(i, m) for _, i, m, _ in residues] == [
        (i, m) for m in range(cap + 1) for i in range(1, belt.n + 1)
    ]
    for kind, i, m, r in residues:
        if kind == "x":
            assert r == _value(belt.x_im(i, m), xs + ys, p)
        else:
            Y = belt.y_universal(i, m)
            assert r == _value(Y.num, ys, p) * pow(_value(Y.den, ys, p), -1, p) % p


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(RANK2_INFINITE),
    st.integers(0, 5),
    st.sampled_from(belt_modp._PRIMES[:3]),
)
def test_residues_are_the_exact_values_at_the_point(bc, cap, p):
    _assert_residues_are_values(rank2_matrix(*bc), cap, p)


def test_residues_are_the_exact_values_at_the_point_in_rank_3():
    A, _ = cartan_counterpart_and_sign(INFINITE3)
    assert not coxeter_data(A)["finite_type"]
    _assert_residues_are_values(INFINITE3, 5, belt_modp._PRIMES[0])
    assert periodicity_check(INFINITE3, cap=40) == {"finite": False, "no_period_up_to": 40}


@pytest.mark.parametrize(
    "B, kind, later, earlier",
    [
        (A2, "y", (1, 5), (2, 0)),
        (((0, -1), (1, 0)), "x", (1, 5), (2, 0)),
        (named_matrix("B2"), "x", (1, 6), (1, 0)),
    ],
    ids=["A2", "A2-relabeled", "B2"],
)
def test_the_distinctness_step_finds_the_real_repeat_of_a_finite_type(
    B, kind, later, earlier
):
    # past the period the belt repeats; both routes name the same first repeat
    message = "%s repeats: (%d;%d) vs %s" % (kind, *later, earlier)
    for route in (belt_modp.belt_distinct, distinct_reference):
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
    residues = belt_modp.belt_residues
    monkeypatch.setattr(
        belt_modp,
        "belt_residues",
        lambda belt, cap, p: [(k, i, m, 0) for k, i, m, _ in residues(belt, cap, p)],
    )
    compared = []
    x_im, y_universal = Belt.x_im, Belt.y_universal
    monkeypatch.setattr(
        Belt, "x_im", lambda self, i, m: compared.append(m) or x_im(self, i, m)
    )
    monkeypatch.setattr(
        Belt,
        "y_universal",
        lambda self, j, m: compared.append(m) or y_universal(self, j, m),
    )
    out = periodicity_check(rank2_matrix(2, 2), cap=8)
    assert out == {"finite": False, "no_period_up_to": 8}
    # 9 x and 9 y values, every pair of one kind compared: two reads a pair
    assert len(compared) == 2 * 2 * (9 * 8 // 2)


def test_a_zero_divisor_moves_the_walk_to_the_next_prime(monkeypatch):
    inverse = belt_modp._inverse
    primes = []

    def vanishes_once(v, p):
        primes.append(p)
        if len(primes) == 1:
            raise ZeroDivisionError("a divisor is 0 modulo %d" % p)
        return inverse(v, p)

    monkeypatch.setattr(belt_modp, "_inverse", vanishes_once)
    out = periodicity_check(rank2_matrix(2, 2), cap=10)
    assert out == {"finite": False, "no_period_up_to": 10}
    assert primes[0] == belt_modp._PRIMES[0]
    assert set(primes[1:]) == {belt_modp._PRIMES[1]}


def test_a_zero_divisor_at_every_prime_is_one_arithmetic_error(monkeypatch):
    def vanishes(v, p):
        raise ZeroDivisionError("a divisor is 0 modulo %d" % p)

    monkeypatch.setattr(belt_modp, "_inverse", vanishes)
    with pytest.raises(ArithmeticError) as exc:
        periodicity_check(rank2_matrix(2, 2), cap=10)
    assert type(exc.value) is ArithmeticError
    assert len(str(exc.value).splitlines()) == 1


def test_a_wrong_g_vector_fails_the_x_cross_check(monkeypatch):
    g_recurrence = belt_modp.g_recurrence
    monkeypatch.setattr(
        belt_modp,
        "g_recurrence",
        lambda *a: tuple(v + 1 for v in g_recurrence(*a)),
    )
    with pytest.raises(CrossCheckFailure, match="x\\^g F\\(yhat\\)"):
        periodicity_check(rank2_matrix(2, 2), cap=4)


def test_a_wrong_y_mutation_fails_the_y_cross_check(monkeypatch):
    mutate_y = belt_modp._mutate_y
    monkeypatch.setattr(
        belt_modp,
        "_mutate_y",
        lambda Y, row, kk, p: [2 * y % p for y in mutate_y(Y, row, kk, p)],
    )
    with pytest.raises(CrossCheckFailure, match="y\\^c prod F\\^b"):
        periodicity_check(rank2_matrix(2, 2), cap=4)


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


def _failing_batch_inverse(monkeypatch, failures):
    """Make the first `failures` batch inversions report a zero divisor, and
    record the modulus of every call."""
    real = belt_modp._batch_inverse
    moduli = []

    def batch_inverse(values, p):
        moduli.append(p)
        if len(moduli) <= failures:
            raise ZeroDivisionError("a divisor is 0 modulo %d" % p)
        return real(values, p)

    monkeypatch.setattr(belt_modp, "_batch_inverse", batch_inverse)
    return moduli


def test_belt_f_recurrence_moves_to_the_next_prime_on_a_zero_divisor(monkeypatch):
    moduli = _failing_batch_inverse(monkeypatch, 1)
    B = named_matrix("D4")
    got = belt_f_recurrence(B, 8)
    assert moduli[0] == 2 ** 61 - 1
    assert set(moduli[1:]) == {2 ** 89 - 1}
    _assert_same_table(got, belt_f_reference(B, 8))


def test_belt_f_recurrence_gives_up_past_the_last_prime(monkeypatch):
    _failing_batch_inverse(monkeypatch, 10 ** 6)
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
