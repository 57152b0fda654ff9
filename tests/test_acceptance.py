"""End-to-end acceptance gate.

Each test prints one ``criterion N: PASS``/``FAIL`` line (written through
the capture so it is always visible) and enforces a wall-clock budget.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from clusteralg.bipartite import (
    Belt,
    belt_f_recurrence,
    belt_verify,
    coxeter_data,
    orbit_vector,
    periodicity_check,
    tau_action,
    y_system_solve,
)
from clusteralg.exchange_graph import (
    covering_check,
    graph_from_spec,
    mutation_class_finiteness,
)
from clusteralg.finite_type import (
    fibonacci_polynomials,
    fibonacci_recurrence_check,
    rank2_mci_verify,
    root_name,
    specialization_construct,
    universal_build,
    universal_exchange_relations,
)
from clusteralg.laurent import (
    LaurentPolynomial,
    RationalExpression,
    lp_canonical_text,
    lp_denominator_vector,
    lp_parse,
    lp_substitute_monomial,
)
from clusteralg.mutation import (
    CARTAN,
    LabeledYSeed,
    cartan_counterpart_and_sign,
    mutate_matrix,
    mutate_y,
    named_matrix,
    oracle_walk,
    principal_extension,
    rank2_matrix,
)
from clusteralg.principal import (
    conjecture_suite,
    enumerate_pattern,
    separation_evaluate,
)
from clusteralg.semifield import (
    PositiveRationalSemifield,
    UniversalSemifield,
)
from rank2_forms import rank2_y13_closed_form

A2 = named_matrix("A2")
WALK = (2, 1, 2, 1, 2)
PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class criterion:
    """Context manager: prints the pass/fail line and enforces the budget."""

    def __init__(self, num, capsys, budget):
        self.num = num
        self.capsys = capsys
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        ok = exc_type is None and dt <= self.budget
        with self.capsys.disabled():
            print(
                "criterion %d: %s (%.2fs, budget %.0fs)"
                % (self.num, "PASS" if ok else "FAIL", dt, self.budget)
            )
        if exc_type is None and dt > self.budget:
            pytest.fail(
                "criterion %d exceeded budget: %.2fs > %.0fs"
                % (self.num, dt, self.budget)
            )
        return False


def test_criterion_1_walk_output_byte_exact(capsys):
    with criterion(1, capsys, 1.0):
        expected_path = os.path.join(
            PKG_ROOT, "tests", "data", "walk_A2_principal_expected.txt"
        )
        with open(expected_path, "rb") as fh:
            expected = fh.read()
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "clusteralg.cli",
                "walk",
                "--type",
                "A2",
                "--path",
                "2,1,2,1,2",
            ],
            capture_output=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == expected


def test_criterion_2_general_coefficient_walk(capsys):
    with criterion(2, capsys, 1.0):
        YV = ("y1", "y2")
        XV = ("x1", "x2", "y1", "y2")
        U2 = UniversalSemifield(YV)
        U4 = UniversalSemifield(XV)

        def re2(num, den="1"):
            return RationalExpression(lp_parse(num, YV), lp_parse(den, YV))

        def re4(num, den="1"):
            return RationalExpression(lp_parse(num, XV), lp_parse(den, XV))

        y_expected = {
            1: (re2("y1*y2 + y1"), re2("1", "y2")),
            2: (re2("1", "y1*y2 + y1"), re2("y1*y2 + y1 + 1", "y2")),
            3: (re2("y1 + 1", "y1*y2"), re2("y2", "y1*y2 + y1 + 1")),
            4: (re2("y1*y2", "y1 + 1"), re2("1", "y1")),
            5: (re2("y2"), re2("y1")),
        }
        x_expected = {
            1: (re4("x1"), re4("x1*y2 + 1", "x2*y2 + x2")),
            2: (
                re4("x1*y1*y2 + x2 + y1", "x1*x2*y1*y2 + x1*x2*y1 + x1*x2"),
                re4("x1*y2 + 1", "x2*y2 + x2"),
            ),
            3: (
                re4("x1*y1*y2 + x2 + y1", "x1*x2*y1*y2 + x1*x2*y1 + x1*x2"),
                re4("x2 + y1", "x1*y1 + x1"),
            ),
            4: (re4("x2"), re4("x2 + y1", "x1*y1 + x1")),
            5: (re4("x2"), re4("x1")),
        }
        ys = LabeledYSeed([U2.generator(v) for v in YV], A2, U2)
        y_in_S = tuple(U4.generator(v) for v in YV)
        for m in range(1, 6):
            ys = mutate_y(ys, WALK[m - 1])
            assert ys.y[0] == y_expected[m][0], ("y1", m)
            assert ys.y[1] == y_expected[m][1], ("y2", m)
            # independent route: plain rational-function mutation
            xs_oracle, ys_oracle = oracle_walk(A2, WALK[:m], U4)
            for ell in (1, 2):
                val = separation_evaluate(
                    A2, WALK[:m], ell, U4, y_in_S=y_in_S
                )
                assert val == x_expected[m][ell - 1], ("x", m, ell)
                assert val == xs_oracle[ell - 1], ("oracle", m, ell)


def test_criterion_3_periodicity(capsys):
    with criterion(3, capsys, 30.0):
        # the general-coefficient A2 pattern closes up: step 5 swaps the
        # two labels, step 10 is the identity
        YV = ("y1", "y2")
        XV = ("x1", "x2", "y1", "y2")
        U2 = UniversalSemifield(YV)
        U4 = UniversalSemifield(XV)
        walk10 = (2, 1, 2, 1, 2, 1, 2, 1, 2, 1)
        ys = LabeledYSeed([U2.generator(v) for v in YV], A2, U2)
        for k in walk10[:5]:
            ys = mutate_y(ys, k)
        assert ys.y[0] == RationalExpression.from_poly(lp_parse("y2", YV))
        assert ys.y[1] == RationalExpression.from_poly(lp_parse("y1", YV))
        y_in_S = tuple(U4.generator(v) for v in YV)
        x5 = [
            separation_evaluate(A2, walk10[:5], ell, U4, y_in_S=y_in_S)
            for ell in (1, 2)
        ]
        assert x5[0] == RationalExpression.from_poly(lp_parse("x2", XV))
        assert x5[1] == RationalExpression.from_poly(lp_parse("x1", XV))
        for k in walk10[5:]:
            ys = mutate_y(ys, k)
        assert ys.y[0] == RationalExpression.from_poly(lp_parse("y1", YV))
        assert ys.y[1] == RationalExpression.from_poly(lp_parse("y2", YV))
        x10 = [
            separation_evaluate(A2, walk10, ell, U4, y_in_S=y_in_S)
            for ell in (1, 2)
        ]
        assert x10[0] == RationalExpression.from_poly(lp_parse("x1", XV))
        assert x10[1] == RationalExpression.from_poly(lp_parse("x2", XV))
        M = A2
        for k in walk10:
            M = mutate_matrix(M, k)
        assert M == A2

        # belt periods divide 2(h+2), on seeds and on universal Y-values
        for name in ("A1", "A3", "B2", "G2"):
            B = named_matrix(name)
            h = coxeter_data(CARTAN[name])["h"]
            out = periodicity_check(B, mode="seeds")
            assert out["finite"] and out["divides"] == 2 * (h + 2), name
            assert out["divides"] % out["period"] == 0, name
            out = periodicity_check(B, mode="y-system")
            assert out["finite"] and out["divides"] == 2 * (h + 2), name


def test_criterion_4_infinite_type(capsys):
    with criterion(4, capsys, 30.0):
        B = rank2_matrix(2, 2)
        out = periodicity_check(B, cap=20)
        assert out == {"finite": False, "no_period_up_to": 20}
        cls = mutation_class_finiteness(principal_extension(B), cap=1000)
        assert cls["finite"] is False


def test_criterion_5_rank2_and_affine_y_systems(capsys):
    with criterion(5, capsys, 10.0):
        for b, c in ((1, 1), (2, 2), (1, 3), (2, 1)):
            A = ((2, -b), (-c, 2))
            U = UniversalSemifield(("u1", "u2"))
            vals = y_system_solve(A, U, steps=4, eps=(1, -1))
            assert vals[(1, 3)] == rank2_y13_closed_form(b, c), (b, c)

        A4 = (
            (2, -1, 0, -1),
            (-1, 2, -1, 0),
            (0, -1, 2, -1),
            (-1, 0, -1, 2),
        )
        S = PositiveRationalSemifield()
        vals = y_system_solve(
            A4, S, steps=10, initial_values=[Fraction(1)] * 4,
            eps=(1, -1, 1, -1),
        )
        fib = [0, 1]
        while len(fib) < 25:
            fib.append(fib[-1] + fib[-2])
        for m in range(1, 9):
            got = vals[(1, m)] if m % 2 else vals[(2, m)]
            assert got == Fraction(fib[2 * m + 1]) ** 2, m


def test_criterion_6_exchange_graphs(capsys):
    with criterion(6, capsys, 60.0):
        g = graph_from_spec(A2, coeffs="principal")
        assert g["finite"] and g["vertices"] == 5 and len(g["edges"]) == 5
        deg = {}
        for u, v in g["edges"]:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert sorted(deg.values()) == [2] * 5

        A3 = named_matrix("A3")
        g3 = graph_from_spec(A3, coeffs="trivial")
        assert g3["finite"] and g3["vertices"] == 14
        assert len(g3["cluster_variables"]) == 9

        for B in (A2, A3):
            ok, witness = covering_check(B, coeffs_other="trivial")
            assert ok, witness


def test_criterion_7_conjecture_audit(capsys):
    with criterion(7, capsys, 300.0):
        reports = {}
        for name in ("A2", "A3", "B2", "G2"):
            rep = conjecture_suite(named_matrix(name))
            assert rep["complete"], name
            reports[name] = rep
        for name in ("B3", "D4"):
            B = named_matrix(name)
            h = coxeter_data(CARTAN[name])["h"]
            belt = Belt(B)
            paths = [belt.path(m) for m in range(0, 2 * (h + 2))]
            reports[name + "-belt"] = conjecture_suite(B, paths=paths)
        required = {
            "f_constant_term_1",
            "f_positive_coefficients",
            "f_unique_dominating_monomial",
            "c_vector_sign_coherent",
            "g_vectors_sign_coherent",
            "h_equals_min_0_g",
            "g_transition_rule",
            "d_plus_g_through_F",
        }
        for name, rep in reports.items():
            seen = set()
            for entry in rep["checks"]:
                assert entry["violations"] == [], (name, entry)
                if entry["instances"]:
                    seen.add(entry["name"])
            assert required <= seen, (name, required - seen)


def test_criterion_8_belt_theorems_and_tables(capsys):
    with criterion(8, capsys, 60.0):
        for name in ("A2", "A3", "B2", "G2"):
            rep = belt_verify(named_matrix(name))
            assert rep["violations"] == [], (name, rep)
            assert rep["checked"] > 0

        # rank-2 bipartite belt over free coefficients u1, u2
        UV = ("u1", "u2")
        Uu = UniversalSemifield(UV)
        Acart = CARTAN["A2"]
        vals = y_system_solve(Acart, Uu, steps=6, eps=(1, -1))

        def reu(num, den="1"):
            return RationalExpression(lp_parse(num, UV), lp_parse(den, UV))

        assert vals[(1, 1)] == reu("u2 + 1", "u1")
        assert vals[(2, 2)] == reu("u1 + u2 + 1", "u1*u2")
        assert vals[(1, 3)] == reu("u1 + 1", "u2")
        assert vals[(2, 4)] == reu("u1")
        assert vals[(1, 5)] == reu("u2")

        # matching cluster variables with coefficients (1/u1, u2)
        XU = ("x1", "x2", "u1", "u2")
        U4 = UniversalSemifield(XU)
        x_field = (U4.generator("x1"), U4.generator("x2"))
        y_field = (U4.generator("u1").inverse(), U4.generator("u2"))

        def rex(num, den="1"):
            return RationalExpression(lp_parse(num, XU), lp_parse(den, XU))

        x_expected = {
            (1, 0): rex("x1"),
            (2, 1): rex("x1*u2 + 1", "x2*u2 + x2"),
            (1, 2): rex(
                "x1*u2 + x2*u1 + 1",
                "x1*x2*u1 + x1*x2*u2 + x1*x2",
            ),
            (2, 3): rex("x2*u1 + 1", "x1*u1 + x1"),
            (1, 4): rex("x2"),
            (2, 5): rex("x1"),
        }
        belt = Belt(A2)
        for (i, m), want in x_expected.items():
            got = separation_evaluate(
                A2,
                belt.path(m),
                i,
                U4,
                x_field=x_field,
                y_field=y_field,
                y_in_S=y_field,
            )
            assert got == want, (i, m)

        # principal-coefficient belt table: tropical y, x, d, g
        V = ("x1", "x2", "y1", "y2")
        table = {
            (2, -1): ("x2", (0, -1), (0, 1)),
            (1, 0): ("x1", (-1, 0), (1, 0)),
            (2, 1): ("x1*x2^-1*y2 + x2^-1", (0, 1), (0, -1)),
            (1, 2): (
                "x2^-1*y1*y2 + x1^-1 + x1^-1*x2^-1*y1",
                (1, 1),
                (-1, 0),
            ),
            (2, 3): ("x1^-1*x2 + x1^-1*y1", (1, 0), (-1, 1)),
            (1, 4): ("x2", (0, -1), (0, 1)),
            (2, 5): ("x1", (-1, 0), (1, 0)),
        }
        y_tracked = {
            (1, -1): (-1, 0),
            (2, 0): (0, 1),
            (1, 1): (1, 0),
            (2, 2): (0, -1),
            (1, 3): (-1, -1),
            (2, 4): (-1, 0),
            (1, 5): (0, 1),
        }
        h = coxeter_data(Acart)["h"]
        for (i, m), (x_text, d, g) in table.items():
            assert lp_canonical_text(belt.x_im(i, m)) == x_text, (i, m)
            assert lp_denominator_vector(belt.x_im(i, m), 2) == d, (i, m)
            if -h - 2 <= m <= h + 1:
                assert (
                    orbit_vector(belt.A, belt.eps, i - 1, m, tau_action) == d
                ), (i, m)
            assert belt.pattern.g_value(belt.path(m), i) == g, (i, m)
        for (j, m), c in y_tracked.items():
            assert belt.y_jm_tracked(j, m) == c, (j, m)


def test_criterion_9_fibonacci_polynomials(capsys):
    with criterion(9, capsys, 30.0):
        fib = fibonacci_polynomials(A2)
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
        # the recurrence (verified instance by instance) and the
        # variable-inversion round trip (asserted inside the builder)
        for name in ("A2", "A3", "B2"):
            assert fibonacci_recurrence_check(named_matrix(name)) > 0, name


def test_criterion_10_universal_coefficients(capsys):
    with criterion(10, capsys, 30.0):
        U = universal_build(A2)
        assert set(U["gen_names"]) == {
            "p[-a1]", "p[-a2]", "p[a1]", "p[a2]", "p[a1+a2]"
        }

        def exps(mono):
            return {g: a for g, a in zip(U["gen_names"], mono.exps) if a}

        assert exps(U["y0"][0]) == {"p[a1]": 1, "p[a1+a2]": 1, "p[-a1]": -1}
        assert exps(U["y0"][1]) == {"p[-a2]": 1, "p[a2]": -1, "p[a1+a2]": -1}

        rels = universal_exchange_relations(U)
        assert len(rels) == 5

        gen_names = U["gen_names"]
        name_to_coords = {
            root_name(r): r for r in U["root_system"]["almost_positive"]
        }

        # cluster variables of the principal pattern, labeled by
        # denominator root
        pat, seen, complete = enumerate_pattern(A2)
        assert complete
        by_root = {}
        for path in seen.values():
            st = pat.state(path)
            for ell in range(2):
                X = st.X[ell]
                d = lp_denominator_vector(X, 2)
                by_root.setdefault(d, X)
                assert by_root[d] == X
        V = pat.vars

        def check_specialized(phi_exps):
            """phi_exps: gen name -> (e1, e2) exponents over (y1, y2)."""
            for pair, terms in rels.items():
                lhs = (
                    by_root[name_to_coords[pair[0]]]
                    * by_root[name_to_coords[pair[1]]]
                )
                rhs = LaurentPolynomial.zero(V)
                for coeff_exps, factors in terms:
                    e = [0, 0, 0, 0]
                    for g, a in zip(gen_names, coeff_exps):
                        img = phi_exps[g]
                        e[2] += a * img[0]
                        e[3] += a * img[1]
                    term = LaurentPolynomial.monomial(V, e)
                    for label, power in factors:
                        term = term * by_root[name_to_coords[label]] ** power
                    rhs = rhs + term
                assert lhs == rhs, pair

        # principal target: the verified paired sweep, then an explicit
        # re-check of all five specialized exchange relations
        out = specialization_construct(U, target="principal")
        assert out["seeds"] >= 10 and out["checked"] >= 40
        phi = out["phi"]
        phi_exps = {
            g: tuple(phi[g].exps) for g in gen_names
        }
        check_specialized(phi_exps)

        out = specialization_construct(U, target="trivial")
        assert out["checked"] >= 40
        # trivial target: all coefficients become 1; the relations must
        # hold for the coefficient-free cluster variables
        ones = {
            "y1": LaurentPolynomial.const(V, 1),
            "y2": LaurentPolynomial.const(V, 1),
            "x1": LaurentPolynomial.var(V, "x1"),
            "x2": LaurentPolynomial.var(V, "x2"),
        }
        by_root_full = dict(by_root)
        by_root = {
            d: lp_substitute_monomial(X, ones) for d, X in by_root_full.items()
        }
        check_specialized({g: (0, 0) for g in gen_names})
        by_root = by_root_full

        out = specialization_construct(U, target="universal")
        assert out["checked"] >= 40

        for name in ("A2", "B2"):
            for coeffs in ("universal", "principal"):
                rep = rank2_mci_verify(CARTAN[name], coeffs=coeffs)
                assert rep["violations"] == [], (name, coeffs)


def test_criterion_11_placeholder(capsys):
    with capsys.disabled():
        print(
            "criterion 11: SKIPPED by default "
            "(run `pytest -m slow tests/test_acceptance.py` for the E8 belt)"
        )


@pytest.mark.slow
def test_criterion_11_e8_belt_f_size(capsys):
    t0 = time.monotonic()
    try:
        B = named_matrix("E8")
        A, _ = cartan_counterpart_and_sign(B)
        h = coxeter_data(A)["h"]
        assert h == 30
        tab = belt_f_recurrence(B, h + 2)
        biggest = max(len(F.terms) for F in tab.values())
        assert biggest == 26908
    except BaseException:
        with capsys.disabled():
            print("criterion 11: FAIL (%.0fs)" % (time.monotonic() - t0))
        raise
    with capsys.disabled():
        print("criterion 11: PASS (%.0fs)" % (time.monotonic() - t0))
