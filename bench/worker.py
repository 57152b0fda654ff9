"""One child process of the benchmark: set up one workload, optionally run it
(traced or not), check every result against the reference, and print one
JSON line with what it measured.

    python3 bench/worker.py --workload NAME --seed N --mode setup|run|trace
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# setup_s runs from here: importing clusteralg and building the inputs.
T0 = time.perf_counter()
import workloads  # noqa: E402


def run_ops(ops):
    """Call every operation; return (wall seconds, [(result or exception,
    seconds)])."""
    results = []
    t = time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failing operation is counted, not fatal
            result = exc
        results.append((result, time.perf_counter() - t_op))
    return time.perf_counter() - t, results


def check_ops(workload, ops, results):
    reference = workloads.load_reference()
    out = []
    for op, (result, seconds) in zip(ops, results):
        if isinstance(result, Exception):
            error = "%s raised %s: %s" % (op.name, type(result).__name__, result)
        else:
            error = workloads.check(workload, op.name, op.summarize(result), reference)
        out.append({"name": op.name, "ok": error is None, "error": error, "seconds": seconds})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    record = {"setup_s": time.perf_counter() - T0}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            wall, results = run_ops(ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["wall_s"] = wall
        record["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["ops"] = check_ops(args.workload, ops, results)
        if tracer is not None:
            record["layers"] = tracer.metrics(wall)
            record["spans"] = len(tracer.start)
            if args.spans:
                tracer.write_spans(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
