"""The benchmark's workloads: seeded inputs, the library calls they make, and
the exact summaries of their results that are checked against the reference.

A workload is a list of operations. Each operation is one top-level library
call; it fails if it raises or if the summary of its result differs from the
recorded reference. The seed only picks a simultaneous relabeling of the
indices of every input matrix (seed 0 keeps the named labeling). Relabeling
changes the grlex order and so the division paths, but no summary below.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from clusteralg.bipartite import belt_f_recurrence, belt_verify, periodicity_check
from clusteralg.exchange_graph import graph_from_spec
from clusteralg.mutation import named_matrix, rank2_matrix
from clusteralg.principal import conjecture_suite

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class Op:
    """One top-level library call and the summary its result is checked by."""

    __slots__ = ("name", "call", "summarize")

    def __init__(self, name, call, summarize):
        self.name = name
        self.call = call
        self.summarize = summarize


def relabel(B, sigma):
    """B with row and column i taken from index sigma[i]."""
    n = len(B)
    return tuple(tuple(B[sigma[i]][sigma[j]] for j in range(n)) for i in range(n))


class Relabeler:
    """Draws one permutation per input matrix, in a fixed order, from the seed."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def __call__(self, B):
        sigma = list(range(len(B)))
        if self.seed:
            self.rng.shuffle(sigma)
        return relabel(B, sigma)


# -- summaries: exact, JSON-able, and invariant under relabeling ----------


def _belt_table_summary(table):
    sizes = [(len(F.terms), sum(F.terms.values())) for F in table.values()]
    return {
        "entries": len(table),
        "max_terms": max(t for t, _ in sizes),
        "total_terms": sum(t for t, _ in sizes),
        "terms_and_coefficient_sums": sorted(sizes),
    }


def _graph_summary(g):
    return {
        "vertices": g["vertices"],
        "edges": len(g["edges"]),
        "cluster_variables": len(g["cluster_variables"]),
        "finite": g["finite"],
    }


def _audit_summary(report):
    return {
        "complete": report["complete"],
        "seeds": report["seeds"],
        "checks": {
            c["name"]: {"instances": c["instances"], "violations": len(c["violations"])}
            for c in report["checks"]
        },
    }


def _belt_verify_summary(report):
    return {"checked": report["checked"], "violations": len(report["violations"])}


# -- workloads --------------------------------------------------------------


def _belt_e7(r):
    B = r(named_matrix("E7"))
    m_hi = 18 + 2  # h + 2, with h = 18 the Coxeter number of E7
    return [
        Op("belt_f_recurrence(E7,h+2)", lambda: belt_f_recurrence(B, m_hi), _belt_table_summary),
    ]


def _graph_e6(r):
    B = r(named_matrix("E6"))
    return [
        Op("graph_from_spec(E6,principal)", lambda: graph_from_spec(B, "principal"), _graph_summary),
        Op("graph_from_spec(E6,trivial)", lambda: graph_from_spec(B, "trivial"), _graph_summary),
    ]


def _audit_a4d4(r):
    A4 = r(named_matrix("A4"))
    D4 = r(named_matrix("D4"))
    # max_seeds far above the 1,008 and 1,200 labeled seeds: enumerate fully.
    full = 10 ** 6
    return [
        Op(
            "conjecture_suite(A4)",
            lambda: conjecture_suite(A4, max_seeds=full, transition_checks=True),
            _audit_summary,
        ),
        Op(
            "conjecture_suite(D4)",
            lambda: conjecture_suite(D4, max_seeds=full, transition_checks=True),
            _audit_summary,
        ),
    ]


def _belt_e6(r):
    E6 = r(named_matrix("E6"))
    K22 = r(rank2_matrix(2, 2))
    return [
        Op("belt_verify(E6)", lambda: belt_verify(E6), _belt_verify_summary),
        Op("periodicity_check(E6,seeds)", lambda: periodicity_check(E6, mode="seeds"), dict),
        Op("periodicity_check(E6,y-system)", lambda: periodicity_check(E6, mode="y-system"), dict),
        Op("periodicity_check(rank2(2,2),cap=26)", lambda: periodicity_check(K22, cap=26), dict),
    ]


WORKLOADS = {
    "belt_e7": _belt_e7,
    "graph_e6": _graph_e6,
    "audit_a4d4": _audit_a4d4,
    "belt_e6": _belt_e6,
}


def build(workload, seed):
    """The workload's operations on the inputs picked by seed."""
    return WORKLOADS[workload](Relabeler(seed))


def normalize(summary):
    """The JSON form a summary is stored and compared in."""
    return json.loads(json.dumps(summary, sort_keys=True))


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(workload, name, summary, reference):
    """None if the summary matches the reference, else a one-line reason."""
    expected = reference.get(workload, {}).get(name)
    if expected is None:
        return "no reference for %s" % name
    got = normalize(summary)
    if got != expected:
        return "%s: result differs from the reference" % name
    return None
