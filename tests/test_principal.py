"""Principal-coefficient patterns, separation, and the property audit."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusteralg import mutation, principal
from clusteralg.exchange_graph import build_exchange_graph
from clusteralg.laurent import (
    LaurentPolynomial,
    RationalExpression,
    lp_canonical_text,
    lp_exact_div,
    lp_exchange_monomials,
    lp_parse,
    lp_substitute_monomial,
)
from clusteralg.mutation import (
    initial_geometric_seed,
    mutate_seed_geometric,
    named_matrix,
    oracle_walk,
    principal_extension,
    rank2_matrix,
    trivial_extension,
)
from clusteralg.principal import (
    CrossCheckFailure,
    PrincipalPattern,
    conjecture_suite,
    enumerate_pattern,
    g_recurrence,
    g_transition,
    seed_signature,
    separation_evaluate,
    tropical_one_var_eval,
    y_factored,
)
from clusteralg.semifield import (
    PositiveRationalSemifield,
    TropicalMonomial,
    TropicalSemifield,
    UniversalSemifield,
)
from suite_reference import suite_reference

A2 = named_matrix("A2")
assert A2 == ((0, 1), (-1, 0))
WALK = (2, 1, 2, 1, 2)
YV = ("y1", "y2")


def test_initial_state():
    pat = PrincipalPattern(A2)
    st = pat.state(())
    assert [lp_canonical_text(x) for x in st.X] == ["x1", "x2"]
    assert all(F.is_one() for F in st.F)
    assert st.g == ((1, 0), (0, 1))


def test_walk_f_polynomials():
    # cross-checked against the rank-2 rational oracle in
    # test_mutation.test_general_coefficient_walk_matches_rational_oracle
    pat = PrincipalPattern(A2)
    texts = {}
    for m in range(1, 6):
        st = pat.state(WALK[:m])
        texts[m] = tuple(lp_canonical_text(F) for F in st.F)
    assert texts[1] == ("1", "y2 + 1")
    assert texts[2] == ("y1*y2 + y1 + 1", "y2 + 1")
    assert texts[3] == ("y1*y2 + y1 + 1", "y1 + 1")
    assert texts[4] == ("1", "y1 + 1")
    assert texts[5] == ("1", "1")


def test_walk_g_vectors():
    pat = PrincipalPattern(A2)
    gs = {m: pat.state(WALK[:m]).g for m in range(1, 6)}
    assert gs[1] == ((1, 0), (0, -1))
    assert gs[2] == ((-1, 0), (0, -1))
    assert gs[3] == ((-1, 0), (-1, 1))
    assert gs[4] == ((0, 1), (-1, 1))
    assert gs[5] == ((0, 1), (1, 0))


def test_walk_cluster_variables():
    pat = PrincipalPattern(A2)
    st = pat.state((2, 1))
    assert lp_canonical_text(st.X[1]) == "x1*x2^-1*y2 + x2^-1"
    assert (
        lp_canonical_text(st.X[0])
        == "x2^-1*y1*y2 + x1^-1 + x1^-1*x2^-1*y1"
    )


def test_y_factored_matches_direct_y_mutation():
    # the cross-check against a universal-semifield Y-walk is built in
    out = y_factored(A2, (2, 1, 2))
    S = TropicalSemifield(YV)
    trop, bexp = out[0]
    assert isinstance(trop, type(S.one()))
    assert len(out) == 2


def test_separation_specializes_to_positive_numbers():
    # independent oracle: run the whole exchange recurrence numerically
    # over positive rationals and compare with the separated evaluation
    S = PositiveRationalSemifield()
    yvals = (Fraction(2), Fraction(5, 3))
    allvars = ("x1", "x2", "y1", "y2")
    y_field = tuple(
        RationalExpression(
            LaurentPolynomial.const(allvars, v.numerator),
            LaurentPolynomial.const(allvars, v.denominator),
        )
        for v in yvals
    )
    U = UniversalSemifield(allvars)
    for m in range(1, 6):
        xs, ys = oracle_walk(A2, WALK[:m], U)
        for ell in (1, 2):
            val = separation_evaluate(
                A2,
                WALK[:m],
                ell,
                S,
                y_field=y_field,
                y_in_S=yvals,
            )
            # evaluate both sides at the same positive point and compare
            point = (Fraction(3, 7), Fraction(11, 4)) + yvals
            got = xs[ell - 1]
            lhs = _num(val.num, point) / _num(val.den, point)
            rhs = _num(got.num, point) / _num(got.den, point)
            assert lhs == rhs


def _num(p, point):
    """Evaluate a Laurent polynomial at a tuple of positive rationals."""
    total = Fraction(0)
    for e, c in p.terms.items():
        term = Fraction(c)
        for a, v in zip(e, point):
            term *= v ** a
        total += term
    return total


def test_tropical_one_var_eval():
    F = lp_parse("y1*y2 + y1 + 1", YV)
    assert tropical_one_var_eval(F, 0, (-1, 0)) == -1
    assert tropical_one_var_eval(F, 1, (0, -1)) == -1


def _trop_eval_objects(F, assign):
    """Tropical evaluation by its definition: the oplus of the term images,
    each a product of TropicalMonomial powers."""
    gens = next(iter(assign.values())).gens
    out = None
    for e in F.terms:
        img = TropicalMonomial(gens, (0,) * len(gens))
        for name, a in zip(F.vars, e):
            if a:
                img = img * (assign[name] ** a)
        out = img if out is None else out.oplus(img)
    return out


@st.composite
def one_var_inputs(draw):
    n = draw(st.integers(1, 4))
    yvars = tuple("y%d" % (j + 1) for j in range(n))
    exponent = st.integers(-5, 5)
    terms = draw(
        st.dictionaries(st.tuples(*[exponent] * n), st.integers(1, 9), min_size=1, max_size=6)
    )
    special = draw(st.integers(0, n - 1))
    exps = draw(st.tuples(*[exponent] * n))
    return LaurentPolynomial(yvars, terms), special, exps


@given(one_var_inputs())
@settings(max_examples=50)
def test_tropical_one_var_eval_matches_the_object_definition(inputs):
    F, special, exps = inputs
    S = TropicalSemifield(("u",))
    assign = {
        name: S.monomial((-1,) if j == special else (exps[j],))
        for j, name in enumerate(F.vars)
    }
    assert tropical_one_var_eval(F, special, exps) == _trop_eval_objects(F, assign).exps[0]


def test_g_transition_consistency():
    # built-in cross-check: recomputing g in the mutated pattern must
    # match the piecewise-linear transition rule
    for path in ((1,), (2, 1), (1, 2, 1)):
        for k in (1, 2):
            for ell in (1, 2):
                g_transition(A2, k, path, ell)


def test_g_transition_h_vectors():
    g, h, hprime = g_transition(A2, 1, (2, 1), 1, return_h=True)
    # h'_k = -[g_k]_+ linkage is asserted inside; sanity on shapes
    assert len(g) == 2


def test_enumerate_pattern_a2_has_ten_seeds():
    pat, seen, complete = enumerate_pattern(A2)
    assert complete and len(seen) == 10


def _enumerate_both_directions(B0, max_seeds=500, max_depth=None):
    """Reference BFS: mutates every seed in every direction except the one
    that reached it, so each labeled edge is computed from both ends."""
    pat = PrincipalPattern(B0)
    seen = {seed_signature(pat.state(())): ()}
    frontier = [()]
    complete = True
    while frontier:
        nxt = []
        for path in frontier:
            if max_depth is not None and len(path) >= max_depth:
                complete = False
                continue
            for k in range(1, pat.n + 1):
                if path and path[-1] == k:
                    continue
                p2 = path + (k,)
                sig = seed_signature(pat.state(p2))
                if sig not in seen:
                    if len(seen) >= max_seeds:
                        complete = False
                        continue
                    seen[sig] = p2
                    nxt.append(p2)
        frontier = nxt
    return seen, complete


BFS_CASES = [(name, {}) for name in ("A2", "A3", "B2", "B3", "C3", "G2", "A1xA1")]
BFS_CASES += [("rank2(1,3)", {}), ("A3", {"max_seeds": 20}), ("B3", {"max_seeds": 20})]
BFS_CASES += [("A3", {"max_depth": 3}), ("B3", {"max_depth": 3})]


def _matrix(name):
    return rank2_matrix(1, 3) if name == "rank2(1,3)" else named_matrix(name)


@pytest.mark.parametrize("name, caps", BFS_CASES)
def test_edge_once_enumeration_matches_both_directions(name, caps):
    _, seen, complete = enumerate_pattern(_matrix(name), **caps)
    ref_seen, ref_complete = _enumerate_both_directions(_matrix(name), **caps)
    assert list(seen.items()) == list(ref_seen.items())
    assert complete == ref_complete


@pytest.mark.parametrize("name, steps", [("A2", 10), ("A3", 126), ("B3", 60)])
def test_edge_once_enumeration_computes_each_labeled_edge_once(monkeypatch, name, steps):
    calls = []
    step = PrincipalPattern._step

    def counting_step(self, state, k):
        calls.append(k)
        return step(self, state, k)

    monkeypatch.setattr(PrincipalPattern, "_step", counting_step)
    pat, seen, complete = enumerate_pattern(named_matrix(name))
    assert complete
    assert len(calls) == pat.n * len(seen) // 2 == steps


SUITE_INSTANCES = {
    # (seeds, per-check instance counts), as before the edge-once BFS
    "A3": (84, {"c_vector_sign_coherent": 252, "d_plus_g_through_F": 252,
                "d_through_F": 168, "f_B_vs_negB": 252, "f_constant_term_1": 252,
                "f_positive_coefficients": 252, "f_unique_dominating_monomial": 252,
                "g_transition_rule": 756, "g_vectors_sign_coherent": 84,
                "h_and_g_transition_exact": 756, "h_equals_min_0_g": 756,
                "three_equivalences_consistent": 252}),
    "B3": (40, {"c_vector_sign_coherent": 120, "d_plus_g_through_F": 120,
                "d_through_F": 90, "f_B_vs_negB": 120, "f_constant_term_1": 120,
                "f_positive_coefficients": 120, "f_unique_dominating_monomial": 120,
                "g_transition_rule": 360, "g_vectors_sign_coherent": 40,
                "h_and_g_transition_exact": 360, "h_equals_min_0_g": 360,
                "three_equivalences_consistent": 120}),
}


@pytest.mark.parametrize("name", sorted(SUITE_INSTANCES))
def test_conjecture_suite_instance_counts(name):
    seeds, instances = SUITE_INSTANCES[name]
    report = conjecture_suite(named_matrix(name))
    assert report["complete"] and report["seeds"] == seeds
    assert {c["name"]: c["instances"] for c in report["checks"]} == instances
    assert all(c["violations"] == [] for c in report["checks"])


def test_conjecture_suite_a2_clean():
    report = conjecture_suite(A2)
    assert report["complete"]
    for entry in report["checks"]:
        assert entry["violations"] == [], entry
        assert entry["instances"] > 0


def test_conjecture_suite_restricted_paths():
    report = conjecture_suite(A2, paths=[(), (2,), (2, 1)])
    assert not report["complete"]
    for entry in report["checks"]:
        assert entry["violations"] == []


ORACLE_TYPES = ("A2", "A3", "B3", "G2")


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_conjecture_suite_equals_the_per_instance_oracle(name):
    assert conjecture_suite(named_matrix(name)) == suite_reference(named_matrix(name))


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_conjecture_suite_records_an_injected_failure_on_every_instance(
    monkeypatch, name
):
    B = named_matrix(name)
    pat = PrincipalPattern(B)
    bad_x = pat.state((1,)).X[0]
    bad_f = pat.state((2,)).F[1]
    transition = principal._g_transition
    dominating = principal._dominating_term

    def failing_transition(pat0, pat1, k, path, ell):
        if k == 2 and pat0.state(path).X[ell - 1] == bad_x:
            raise CrossCheckFailure("injected at k=%d" % k)
        return transition(pat0, pat1, k, path, ell)

    def failing_dominating(F):
        return None if F == bad_f else dominating(F)

    def failing_d_g(pat_, st_, ell, assignments):
        return (False, False) if st_.X[ell] == bad_x else d_g(pat_, st_, ell, assignments)

    d_g = principal._d_g_relation
    monkeypatch.setattr(principal, "_g_transition", failing_transition)
    monkeypatch.setattr(principal, "_dominating_term", failing_dominating)
    monkeypatch.setattr(principal, "_d_g_relation", failing_d_g)
    report = conjecture_suite(B)
    assert report == suite_reference(B)
    checks = {c["name"]: c for c in report["checks"]}
    walked, seen, _ = enumerate_pattern(B)
    x_hits = [
        "path=%s ell=%d" % (list(path), ell + 1)
        for path in seen.values()
        for ell, X in enumerate(walked.state(path).X)
        if X == bad_x
    ]
    assert len(x_hits) > 1
    assert checks["h_and_g_transition_exact"]["violations"] == [
        hit.replace(" ell=", " k=2 ell=") + ": injected at k=2" for hit in x_hits
    ]
    transitions = checks["h_and_g_transition_exact"]["instances"]
    assert checks["g_transition_rule"]["instances"] == transitions - len(x_hits)
    assert checks["h_equals_min_0_g"]["instances"] == transitions - len(x_hits)
    assert len(checks["f_unique_dominating_monomial"]["violations"]) > 1
    assert checks["d_plus_g_through_F"]["violations"] == x_hits
    assert checks["d_through_F"]["violations"] == x_hits
    injected = ("h_and_g_transition_exact", "f_unique_dominating_monomial",
                "d_plus_g_through_F", "d_through_F")
    assert all(c["violations"] == [] for c in report["checks"] if c["name"] not in injected)


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_conjecture_suite_records_a_failed_walk_on_every_instance(monkeypatch, name):
    # the pattern of mu_1(B0) fails its first step in direction 2, so each
    # transition check that reads a vertex below (2,) of it fails
    B = named_matrix(name)
    B1 = principal.mutate_matrix(B, 1)
    assert B1 != tuple(tuple(-v for v in row) for row in B)
    step = PrincipalPattern._step

    def failing_step(self, state, k):
        if self.B0 == B1 and k == 2 and state is self._states[()]:
            raise CrossCheckFailure("injected walk failure")
        return step(self, state, k)

    monkeypatch.setattr(PrincipalPattern, "_step", failing_step)
    report = conjecture_suite(B)
    assert report == suite_reference(B)
    exact = {c["name"]: c for c in report["checks"]}["h_and_g_transition_exact"]
    # mu_1(t0) followed by (2, ...) is the vertex (1, 2, ...) of B0's pattern
    pattern = r"path=\[1, 2(, \d)*\] k=1 ell=\d: injected walk failure"
    assert len(exact["violations"]) > 1
    assert all(re.fullmatch(pattern, v) for v in exact["violations"])


@pytest.mark.parametrize("name, calls", [("A3", 27), ("B3", 36)])
def test_conjecture_suite_runs_each_transition_once(monkeypatch, name, calls):
    # one _g_transition per (k, X, X'): k times the 9 cluster variables of
    # A3 and the 12 of B3, against 756 and 360 instances
    seen = []
    transition = principal._g_transition

    def counting(pat0, pat1, k, path, ell):
        seen.append((k, path, ell))
        return transition(pat0, pat1, k, path, ell)

    monkeypatch.setattr(principal, "_g_transition", counting)
    principal._labeled_suite(named_matrix(name))
    assert len(seen) == calls


# the class route: one seed per relabeling class, counts times |G|
CLASSES = {
    "A1": (2, 1), "A1xA1": (4, 1), "A2": (5, 2), "A3": (14, 6), "A4": (42, 24),
    "B2": (6, 1), "B3": (20, 2), "C3": (20, 2), "D4": (50, 24), "G2": (8, 1),
}


def _classes(B, pat=None):
    """(representative paths, |G|) of the class walk of B's suite."""
    pat = pat if pat is not None else PrincipalPattern(B)
    negpat, mutated = principal._suite_patterns(pat, True)
    return principal._relabeling_classes(pat, negpat, mutated, 10 ** 6)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_the_class_walk_finds_each_class_and_the_relabeling_group(name):
    reps, order = _classes(named_matrix(name))
    assert (len(reps), order) == CLASSES[name]


@pytest.mark.parametrize("transitions", [True, False])
@pytest.mark.parametrize("name", sorted(CLASSES))
def test_the_class_route_equals_the_labeled_route(name, transitions):
    B = named_matrix(name)
    report = principal._class_suite(B, 10 ** 6, transitions)
    assert report is not None and report["complete"]
    labeled = principal._labeled_suite(B, 10 ** 6, transition_checks=transitions)
    assert json.dumps(report) == json.dumps(labeled)
    assert conjecture_suite(B, 10 ** 6, transition_checks=transitions) == report


def test_the_class_route_runs_up_to_the_labeled_seed_count():
    # A4: 42 classes, |G| = 24, 1,008 labeled seeds
    A4 = named_matrix("A4")
    assert principal._class_suite(A4, 1008, True)["seeds"] == 1008
    assert principal._class_suite(A4, 1007, True) is None
    report = conjecture_suite(A4, max_seeds=500)
    assert not report["complete"] and report["seeds"] == 500
    assert report == suite_reference(A4, max_seeds=500)


def test_a_violation_falls_back_to_the_labeled_route(monkeypatch):
    B = named_matrix("A3")
    bad_f = PrincipalPattern(B).state((2,)).F[1]
    dominating = principal._dominating_term
    labeled = principal._labeled_suite
    routes = []

    def failing_dominating(F):
        return None if F == bad_f else dominating(F)

    def recorded(*args):
        routes.append(args)
        return labeled(*args)

    monkeypatch.setattr(principal, "_dominating_term", failing_dominating)
    monkeypatch.setattr(principal, "_labeled_suite", recorded)
    assert principal._class_suite(B, 10 ** 6, True) is None
    report = conjecture_suite(B, max_seeds=10 ** 6)
    assert len(routes) == 1
    assert report == suite_reference(B, max_seeds=10 ** 6)
    checks = {c["name"]: c for c in report["checks"]}
    assert len(checks["f_unique_dominating_monomial"]["violations"]) > 1


def test_a_revisit_off_the_relabeling_raises(monkeypatch):
    # each mu_k(B0) pattern read at the unmutated path: not equivariant
    monkeypatch.setattr(principal, "_mutated_path", lambda k, path: path)
    with pytest.raises(CrossCheckFailure, match=r"path=\[.*\] relabeled by \("):
        _classes(named_matrix("A3"))


def test_a_cluster_with_two_equal_g_vectors_raises():
    pat = PrincipalPattern(A2)
    pat._states[()] = pat._states[()]._replace(g=((1, 0), (1, 0)))
    with pytest.raises(CrossCheckFailure, match="repeats a g-vector"):
        _classes(A2, pat=pat)


def test_the_class_route_steps_once_per_class_and_direction(monkeypatch):
    # A4 and D4: 92 classes walked in three patterns' worth of directions
    # each, against 14,787 labeled steps; the recorded relations and their
    # g recurrences are the labeled route's 470 and 940
    calls = {"step": 0, "exchange": 0, "g_recurrence": 0, "g_transition": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(PrincipalPattern, "_step", counting("step", PrincipalPattern._step))
    monkeypatch.setattr(
        PrincipalPattern, "_exchange", counting("exchange", PrincipalPattern._exchange)
    )
    monkeypatch.setattr(
        principal, "g_recurrence", counting("g_recurrence", principal.g_recurrence)
    )
    monkeypatch.setattr(
        principal, "_g_transition", counting("g_transition", principal._g_transition)
    )
    for name in ("A4", "D4"):
        assert conjecture_suite(named_matrix(name), max_seeds=10 ** 6)["complete"]
    assert calls == {"step": 2113, "exchange": 470, "g_recurrence": 940, "g_transition": 120}


@pytest.mark.slow
def test_the_e6_audit_completes_on_one_seed_per_class():
    report = conjecture_suite(named_matrix("E6"), max_seeds=600000)
    assert report["complete"] and report["seeds"] == 599760
    assert all(c["violations"] == [] for c in report["checks"])


def test_pattern_keeps_one_object_per_cluster_variable():
    # the states hold one copy of each distinct X and F
    pat, seen, _ = enumerate_pattern(named_matrix("A3"))
    first = {}
    for path in seen.values():
        st_ = pat.state(path)
        for v in st_.X + st_.F:
            assert first.setdefault(v, v) is v
    assert len([v for v in first if v.vars == pat.vars]) == 9


def test_exchange_table_divides_each_relation_once(monkeypatch):
    # A3's suite walks the patterns of B0, -B0 and each mu_k(B0) and
    # divides once per exchangeable pair, one division each (X; F is read
    # off X and checked by a product); dividing F as well took 120, one
    # pair of divisions per distinct relation 238, one per tree edge 806
    calls = []
    divide = principal.lp_exact_div

    def counting(p, q):
        calls.append(q)
        return divide(p, q)

    monkeypatch.setattr(principal, "lp_exact_div", counting)
    principal._labeled_suite(named_matrix("A3"))
    assert len(calls) == 60


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_there_and_back_divides_nothing_on_the_way_back(monkeypatch, name):
    # mu_k undoes itself, so the step forward records the step back
    calls = []

    def counting(p, q):
        calls.append(q)
        return lp_exact_div(p, q)

    monkeypatch.setattr(principal, "lp_exact_div", counting)
    monkeypatch.setattr(mutation, "lp_exact_div", counting)
    B = named_matrix(name)
    for k in range(1, len(B) + 1):
        pat = PrincipalPattern(B)
        pat.state((k,))
        calls.clear()
        assert pat.state((k, k)) == pat.state(())
        assert calls == []
        for Bt in (principal_extension(B), trivial_extension(B)):
            seed = initial_geometric_seed(Bt)
            there = mutate_seed_geometric(seed, k)
            calls.clear()
            back = mutate_seed_geometric(there, k)
            assert calls == []
            assert back.x == seed.x and back.Btilde == seed.Btilde


def _key_quotient(key, variables):
    """A fresh division of the exchange relation that key stands for: the
    frozen variables are the last ones of variables."""
    xk, pairs, frozen = key
    factors = []
    for pair in pairs:
        (v, b), count = pair if isinstance(pair[0], tuple) else (pair, 1)
        factors += [(v, b)] * count
    n = len(variables) - len(frozen)
    factors += [
        (LaurentPolynomial.var(variables, variables[n + i]), c)
        for i, c in enumerate(frozen)
    ]
    plus, minus = lp_exchange_monomials(factors, variables)
    return lp_exact_div(plus + minus, xk)


TABLE_TYPES = [named_matrix(t) for t in ("A3", "B3", "C3", "D4", "G2", "A1xA1")]
TABLE_TYPES.append(rank2_matrix(2, 2))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TABLE_TYPES), st.data())
def test_every_exchange_table_entry_is_its_keys_quotient(B, data):
    # entries recorded for the reverse direction included
    n = len(B)
    path = data.draw(st.lists(st.integers(1, n), max_size=6))
    pat = PrincipalPattern(B)
    pat.state(path)
    # x_i -> 1, y_j -> y_j: the specialization X -> F
    spec = {v: LaurentPolynomial.const(pat.yvars, 1) for v in pat.xvars}
    spec.update((v, LaurentPolynomial.var(pat.yvars, v)) for v in pat.yvars)
    for key, (X, F, g) in pat._exchanges.items():
        assert X == _key_quotient(key, pat.vars)
        assert F == lp_substitute_monomial(X, spec)
        assert g == pat._multidegree(X)
    for Bt in (principal_extension(B), trivial_extension(B)):
        seed = initial_geometric_seed(Bt)
        for k in path:
            seed = mutate_seed_geometric(seed, k)
        for key, x in seed._exchanges.items():
            assert x == _key_quotient(key, seed.vars)


@pytest.mark.parametrize("name", ["D4", "E6"])
@pytest.mark.parametrize("extend", [principal_extension, trivial_extension])
def test_every_entry_of_a_full_walk_table_is_its_keys_quotient(name, extend):
    # the reference BFS mutates through the same tables, so a fresh
    # division of every key is the oracle for the variables their
    # d-vectors named
    g = build_exchange_graph(initial_geometric_seed(extend(named_matrix(name))))
    seed = g["seeds"][0]
    assert len(seed._exchanges) == {"D4": 104, "E6": 770}[name]
    for key, x in seed._exchanges.items():
        assert x == _key_quotient(key, seed.vars)


def g_recurrence_reference(Bt, g, k, b0cols):
    """(recurrence through b_ik > 0, recurrence through b_ik < 0, whether
    sum_i b_ik g_i = sum_j b_{n+j,k} b0_j), each written out on its own."""
    n = len(g)
    kk = k - 1

    def recurrence(sign):
        v = [-a for a in g[kk]]
        for i in range(n):
            if sign * Bt[i][kk] > 0:
                v = [a + abs(Bt[i][kk]) * b for a, b in zip(v, g[i])]
        for j in range(n):
            if sign * Bt[n + j][kk] > 0:
                v = [a - abs(Bt[n + j][kk]) * b for a, b in zip(v, b0cols[j])]
        return tuple(v)

    lhs = [sum(Bt[i][kk] * g[i][r] for i in range(n)) for r in range(n)]
    rhs = [sum(Bt[n + j][kk] * b0cols[j][r] for j in range(n)) for r in range(n)]
    return recurrence(1), recurrence(-1), lhs == rhs


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(TABLE_TYPES),
    st.data(),
    st.sampled_from(["none", "g", "b0cols"]),
)
def test_g_recurrence_matches_the_reference(B, data, corrupt):
    n = len(B)
    path = data.draw(st.lists(st.integers(1, n), max_size=6))
    k = data.draw(st.integers(1, n))
    pat = PrincipalPattern(B)
    state = pat.state(path)
    g = [list(v) for v in state.g]
    b0cols = [list(col) for col in pat._b0cols]
    target = {"none": None, "g": g, "b0cols": b0cols}[corrupt]
    if target is not None:
        i = data.draw(st.integers(0, n - 1))
        r = data.draw(st.integers(0, n - 1))
        target[i][r] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    g = tuple(map(tuple, g))
    b0cols = [tuple(col) for col in b0cols]
    plus, minus, identity = g_recurrence_reference(state.Btilde, g, k, b0cols)
    if identity:
        assert plus == minus
        assert g_recurrence(state.Btilde, g, k, b0cols) == plus
        if corrupt == "none":
            assert plus == pat.state(tuple(path) + (k,)).g[k - 1]
    else:
        with pytest.raises(CrossCheckFailure) as exc:
            g_recurrence(state.Btilde, g, k, b0cols)
        message = str(exc.value)
        assert "k=%d" % k in message
        assert str(plus) in message and str(minus) in message


G_MESSAGE = "g-vector recurrence %s disagrees with multidegree %s at k=%d"


def test_g_vector_disagreement_names_both_vectors(monkeypatch):
    pat = PrincipalPattern(A2)
    g = pat.state((1,)).g[0]
    shifted = tuple(v + 1 for v in g)
    multidegree = PrincipalPattern._multidegree
    monkeypatch.setattr(
        PrincipalPattern,
        "_multidegree",
        lambda self, X: tuple(v + 1 for v in multidegree(self, X)),
    )
    corrupted = PrincipalPattern(A2)
    # a failed relation is not recorded, so the step fails again
    for _ in range(2):
        with pytest.raises(CrossCheckFailure) as exc:
            corrupted.state((1,))
        assert str(exc.value) == G_MESSAGE % (g, shifted, 1)


def test_the_step_back_checks_the_g_recurrence_from_the_mutated_vertex(
    monkeypatch,
):
    # corrupted only where it reads the mutated vertex: the forward check
    # passes and the check of the step back, against g_1 at (), fails
    pat = PrincipalPattern(A2)
    Bt0, Bt1 = pat.state(()).Btilde, pat.state((1,)).Btilde
    g1 = pat.state(()).g[0]
    calls = []

    def corrupted(Bt, g, k, b0cols):
        calls.append(Bt)
        v = g_recurrence(Bt, g, k, b0cols)
        return tuple(a + 1 for a in v) if Bt == Bt1 else v

    monkeypatch.setattr(principal, "g_recurrence", corrupted)
    fresh = PrincipalPattern(A2)
    for _ in range(2):
        with pytest.raises(CrossCheckFailure) as exc:
            fresh.state((1,))
        assert str(exc.value) == G_MESSAGE % (tuple(a + 1 for a in g1), g1, 1)
    assert calls == [Bt0, Bt1, Bt0, Bt1]


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2"])
def test_every_stored_g_vector_is_the_multidegree_of_its_variable(name):
    # what lets _step check the g-recurrence once per relation direction
    pat, _, complete = enumerate_pattern(named_matrix(name), max_seeds=10 ** 6)
    assert complete
    for state in pat._states.values():
        assert state.g == tuple(pat._multidegree(X) for X in state.X)


def test_the_g_recurrence_runs_twice_per_recorded_relation(monkeypatch):
    calls = {"step": 0, "exchange": 0, "g_recurrence": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(PrincipalPattern, "_step", counting("step", PrincipalPattern._step))
    monkeypatch.setattr(
        PrincipalPattern, "_exchange", counting("exchange", PrincipalPattern._exchange)
    )
    monkeypatch.setattr(
        principal, "g_recurrence", counting("g_recurrence", principal.g_recurrence)
    )
    for name in ("A4", "D4"):
        assert principal._labeled_suite(named_matrix(name), max_seeds=10 ** 6)["complete"]
    assert calls == {"step": 14787, "exchange": 470, "g_recurrence": 940}


def test_f_cross_check_runs_on_first_sighting(monkeypatch):
    at_x_one, equal = PrincipalPattern._at_x_one, principal.lp_equal
    # the F-polynomial read off X, or the product F_k F_k', the first
    # operand of the check, made twice what it should be
    for owner, name, corrupted in [
        (PrincipalPattern, "_at_x_one", lambda self, X: at_x_one(self, X) * 2),
        (principal, "lp_equal", lambda p, q: equal(p * 2, q)),
    ]:
        pat = PrincipalPattern(named_matrix("A3"))
        pat.state((1, 2))
        pat.state((3,))
        with monkeypatch.context() as m:
            m.setattr(owner, name, corrupted)
            # mu_1 at (1, 2, 1) is a relation not yet in the table: the check runs
            with pytest.raises(CrossCheckFailure, match="F-polynomial"):
                pat.state((1, 2, 1))
            # b_13 = 0, so mu_3 leaves the relation of mu_1 as it is: (3, 1) is
            # a table hit that (1,) already checked, and no corrupted route runs
            assert pat.state((3, 1)).F[0] == pat.state((1,)).F[0]


@st.composite
def skew_symmetrizable(draw):
    """A rank-2 or rank-3 skew-symmetrizable B whose cluster variables stay
    small for six mutations.

    Rank 2: [[0, b], [-c, 0]] with bc <= 4 (finite and affine types).
    Rank 3: B = D S with S skew-symmetric in {-1, 0, 1}, so D^-1 B = S, and
    one d_i = 2 at most, only on an acyclic S.  Matrices with two products
    |b_ij b_ji| >= 2, or a 2 on a cycle, can take seconds a step at depth 6.
    """
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        b, c = draw(st.sampled_from(
            [(0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)]
        ))
        return ((0, sign * b), (-sign * c, 0))
    s01, s02, s12 = draw(st.lists(st.integers(-1, 1), min_size=3, max_size=3))
    S = ((0, s01, s02), (-s01, 0, s12), (-s02, -s12, 0))
    d = [1, 1, 1]
    if 0 in (s01, s02, s12):
        d[draw(st.integers(0, 2))] = draw(st.integers(1, 2))
    return tuple(tuple(d[i] * S[i][j] for j in range(3)) for i in range(3))


@given(skew_symmetrizable(), st.lists(st.integers(1, 3), max_size=6))
@settings(max_examples=40, deadline=None)
def test_pattern_cluster_matches_geometric_mutation(B, path):
    pat = PrincipalPattern(B)
    path = [(k - 1) % pat.n + 1 for k in path]
    seed = initial_geometric_seed(principal_extension(B), pat.vars)
    for k in path:
        seed = mutate_seed_geometric(seed, k)
    st_ = pat.state(path)
    assert st_.X == seed.x
    assert st_.Btilde == seed.Btilde
