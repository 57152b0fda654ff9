"""Tests of the benchmark itself (not part of the library's suite):

    python3 -m pytest bench/test_bench.py

They run every workload twice in process, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from clusteralg.mutation import named_matrix  # noqa: E402


def _run_and_check(workload, seed, reference):
    ops = workloads.build(workload, seed)
    return [workloads.check(workload, op.name, op.summarize(op.call()), reference) for op in ops]


def test_seed_zero_keeps_the_named_labeling_and_other_seeds_relabel():
    E7 = named_matrix("E7")
    assert workloads.Relabeler(0)(E7) == E7
    assert workloads.Relabeler(1)(E7) != E7


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_pass_the_same_reference(workload, seed):
    reference = workloads.load_reference()
    assert set(reference[workload]) == {op.name for op in workloads.build(workload, seed)}
    assert _run_and_check(workload, seed, reference) == [None] * len(reference[workload])


def _bench_copy(tmp_path, with_sources):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path / "bench"


def test_corrupted_reference_is_reported_as_a_failure(tmp_path):
    bench = _bench_copy(tmp_path, with_sources=True)
    ref = json.loads((bench / "reference.json").read_text())
    ref["belt_e6"]["belt_verify(E6)"]["checked"] += 1
    (bench / "reference.json").write_text(json.dumps(ref))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "belt_e6",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert "belt_e6 fail_ratio = 0.25 ratio" in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    bench = _bench_copy(tmp_path, with_sources=False)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "belt_e7",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bindings():
    return {
        (id(owner), name): value
        for owner in [m for n, m in sys.modules.items() if n.startswith("clusteralg.")]
        + [getattr(module, cls) for _, module, cls, *_ in tracing.TARGETS if cls]
        for name, value in list(vars(owner).items())
    }


def test_tracing_keeps_results_adds_up_and_restores_everything():
    before = _bindings()
    originals = {
        id(getattr(module, attr) if cls is None else getattr(module, cls).__dict__[attr])
        for _, module, cls, attr, *_ in tracing.TARGETS
    }
    reference = workloads.load_reference()
    ops = workloads.build("belt_e6", 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every namespace that bound a target now binds its wrapper
        assert not originals & {id(v) for v in _bindings().values()}
        t = time.perf_counter()
        results = [op.call() for op in ops]
        wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
    assert _bindings() == before
    for op, result in zip(ops, results):
        assert workloads.check("belt_e6", op.name, op.summarize(result), reference) is None

    metrics = tracer.metrics(wall)
    assert list(metrics) == [name for name, _ in tracing.LAYER_METRICS]
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert self_total + metrics["trace.unattributed_s"]["value"] == pytest.approx(wall)
    assert metrics["laurent.exact_div.calls"]["value"] > 0
    assert metrics["bipartite.seed_key.calls"]["value"] > 0
    assert metrics["exchange_graph.canonical_form.calls"]["value"] == 0
