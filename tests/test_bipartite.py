"""Bipartite belts, piecewise-linear orbits, and Y-system dynamics."""

from fractions import Fraction

import pytest

import clusteralg.belt_modp as belt_modp
from belt_reference import belt_f_reference
from clusteralg.bipartite import (
    Belt,
    NotBipartite,
    belt_f_recurrence,
    belt_verify,
    belt_walk,
    coxeter_data,
    e_action,
    involution_from_boundary,
    orbit_vector,
    periodicity_check,
    t_action,
    tau_action,
    y_system_solve,
)
from clusteralg.laurent import (
    LaurentPolynomial,
    RationalExpression,
    lp_exact_div,
    lp_parse,
)
from clusteralg.mutation import (
    CARTAN,
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
    from clusteralg.laurent import lp_denominator_vector

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
            assert belt.state(m)["F"][i - 1] == F, (name, i, m)


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
    B = (
        (0, 1, 0),
        (-1, 0, 1),
        (0, -1, 0),
    )
    # mutating A3's bipartite matrix at the middle vertex gives a
    # non-bipartite orientation only in larger examples; use a direct one
    with pytest.raises(NotBipartite):
        Belt(((0, 1, -1), (-1, 0, 1), (1, -1, 0)))
