"""clusteralg benchmark: four exact-computation workloads, timed end to end
and, in a separate traced run, per layer.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One client runs single-threaded child processes one at a time, back to back
(a closed loop). Each child imports clusteralg, builds the workload's inputs
from the seed, runs it and checks every result against bench/reference.json.
Untraced, the client first starts SETUP_CHILDREN children that only set up,
back to back. Then it runs workload children while the next one is expected
to end within --seconds (at least one).

--trace 0 reports the end-to-end metrics: wall_s (median wall time of the
workload body), setup_s (median over the setup children of the time a fresh
child takes to import clusteralg and build the inputs) and peak_rss_mib
(median peak RSS of the children that ran the workload). --trace 1
alternates untraced and traced children and reports the per-layer metrics of
the traced child with the median traced wall time (see tracing.py), plus
trace.overhead_s, the difference of the median traced and untraced wall
times.

Every line but the last is for people: each metric by name and unit with its
sample count, fail_ratio, and the run's metadata. The last line is one JSON
object with the keys correct, attempted, failed and metrics. The full record
goes to .bench_out/BENCH_<workload>_seed<N>[_trace].json, and the spans of the
reported traced child to .bench_out/spans_<workload>_seed<N>.tsv.gz. The exit
code is 1 if any operation raised or differed from the reference, and 2 if
the benchmark cannot run at all.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "clusteralg"
OUT = ROOT / ".bench_out"

WORKLOADS = ("belt_e7", "graph_e6", "audit_a4d4", "belt_e6")
SETUP_CHILDREN = 15
# Every run, its children included, ends within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class ChildFailed(RuntimeError):
    pass


def metadata(workload, seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py"))),
    }


def _commit():
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Client:
    """Starts one child at a time and keeps the run within its deadline."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        # A fixed hash seed keeps the iteration order of string sets and
        # dicts, and so the work done, the same from run to run.
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def elapsed(self):
        return time.perf_counter() - self.started

    def child(self, mode, spans=None):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
        ]
        if spans:
            cmd += ["--spans", str(spans)]
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise ChildFailed("no time left before the deadline")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed("%s child killed at the %gs deadline" % (mode, DEADLINE_S)) from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise ChildFailed("%s child exited %d: %s" % (mode, proc.returncode, tail))
        return json.loads(lines[-1])


def _lower_median_index(values):
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def run_workload(workload, seed, seconds, trace):
    """Run one workload for about `seconds`; return its record."""
    client = Client(workload, seed)
    n_ops = len(_reference()[workload])
    record = {"meta": metadata(workload, seed), "seconds": seconds, "trace": trace}
    setups, walls, rss, traced, errors = [], [], [], [], []
    op_s = {}
    attempted = failed = 0

    def take(result):
        nonlocal attempted, failed
        attempted += len(result["ops"])
        bad = [op["error"] for op in result["ops"] if not op["ok"]]
        failed += len(bad)
        errors.extend(bad)
        return result

    OUT.mkdir(exist_ok=True)
    try:
        # setup_s comes from these children only, so that every run has the
        # same number of set-up samples whatever the workload's length.
        for _ in range(0 if trace else SETUP_CHILDREN):
            setups.append(client.child("setup")["setup_s"])
        while True:
            t = client.elapsed()
            r = take(client.child("run"))
            walls.append(r["wall_s"])
            for op in r["ops"]:
                op_s.setdefault(op["name"], []).append(op["seconds"])
            rss.append(r["peak_rss_kib"] / 1024)
            if trace:
                spans = OUT / ("spans_%s_seed%d_rep%d.tsv.gz" % (workload, seed, len(traced)))
                traced.append((take(client.child("trace", spans)), spans))
            cost = client.elapsed() - t
            if client.elapsed() + cost > seconds:
                break
    except ChildFailed as exc:
        attempted += n_ops
        failed += n_ops
        errors.append(str(exc))

    record.update(
        attempted=attempted,
        failed=failed,
        errors=errors,
        samples={"setup_s": setups, "wall_s": walls, "peak_rss_mib": rss, "op_s": op_s},
    )
    median = statistics.median
    if not trace and walls:
        metrics = {"wall_s": median(walls), "setup_s": median(setups), "peak_rss_mib": median(rss)}
        record["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    elif traced:
        traced_walls = [r["wall_s"] for r, _ in traced]
        best, spans = traced[_lower_median_index(traced_walls)]
        layers = best["layers"]
        layers["trace.overhead_s"]["value"] = median(traced_walls) - median(walls)
        record["samples"]["traced_wall_s"] = traced_walls
        record["traced_wall_s"] = best["wall_s"]
        record["spans"] = best["spans"]
        record["metrics"] = layers
        keep = OUT / ("spans_%s_seed%d.tsv.gz" % (workload, seed))
        spans.replace(keep)
        for _, other in traced:
            if other.exists():
                other.unlink()
    return record


def _reference():
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def report(record):
    """Print the record for people; return the metrics it reports."""
    w = record["meta"]["workload"]
    print("# %s meta %s" % (w, json.dumps(record["meta"], sort_keys=True)))
    for e in record["errors"]:
        print("# %s FAILED %s" % (w, e))
    samples = record["samples"]
    for name, m in record.get("metrics", {}).items():
        count = len(samples.get(name, ()))
        note = " (median of %d)" % count if count else ""
        print("%s %s = %.6g %s%s" % (w, name, m["value"], m["unit"], note))
    attempted, failed = record["attempted"], record["failed"]
    print("%s fail_ratio = %g ratio (%d failed / %d attempted)" % (w, failed / attempted, failed, attempted))
    for name, seconds in samples["op_s"].items():
        print("# %s %s = %.6g s (median of %d, untraced)" % (w, name, statistics.median(seconds), len(seconds)))
    if record["trace"] and "traced_wall_s" in record:
        print("%s traced_wall_s = %.6g s, %d spans" % (w, record["traced_wall_s"], record["spans"]))
    suffix = "_trace" if record["trace"] else ""
    path = OUT / ("BENCH_%s_seed%d%s.json" % (w, record["meta"]["seed"], suffix))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record.get("metrics", {})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "__init__.py").is_file():
        print("bench: %s not found; run from a checkout of clusteralg" % SRC, file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for w in names:
        record = run_workload(w, args.seed, args.seconds, args.trace)
        attempted += record["attempted"]
        failed += record["failed"]
        for name, m in report(record).items():
            metrics[name if len(names) == 1 else "%s.%s" % (w, name)] = m
    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
