"""chaincast benchmark: closed-loop workloads, timed end to end and per layer.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload cli_jobs --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``cli_jobs``, ``generic_chain``,
``residual_report``.  One caller runs one job at a time, in whole cycles
(one job of every kind), until starting another cycle would overrun
``--seconds``; at least one cycle runs.  Every job's output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
cycles untraced and then traced, and prints the per-layer metrics (see
tracing.py).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread: the workloads are single-caller closed loops, and a
# shared two-core box makes threaded BLAS timings noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "accuracy_digits": "digits",
}


def run_job(job) -> dict:
    """Time one job, then check its output (untimed)."""
    record = {"kind": job.kind, "defect": job.known_defect, "digits": None}
    start = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # any exception the program raises is a failure
        record.update(seconds=time.perf_counter() - start, outcome="failed",
                      note=f"{type(exc).__name__}: {str(exc)[:160]}")
        return record
    record["seconds"] = time.perf_counter() - start
    try:
        digits = job.check(result)
    except workloads.Failed as exc:
        record.update(outcome="failed", note=str(exc))
        return record
    except Exception as exc:  # a check that cannot read the output flags it
        record.update(outcome="wrong", note=f"{type(exc).__name__}: {exc}")
        return record
    record["digits"] = digits
    if digits is not None and digits < workloads.MIN_DIGITS:
        record.update(outcome="wrong", note=f"{digits:.2f} correct digits")
    else:
        record.update(outcome="ok", note="")
    return record


def closed_loop(workload, seed, seconds=None, cycles=None, tracer=None):
    """Run whole cycles until the next one would overrun ``seconds`` (or
    exactly ``cycles`` of them).  The same seed yields the same jobs."""
    rng = np.random.default_rng(seed)
    records = []
    start = time.perf_counter()
    done = 0
    while True:
        cycle_start = time.perf_counter()
        for job in workload.cycle(rng):
            if tracer is not None:
                tracer.job = len(records)
            records.append(run_job(job) | {"cycle": done})
        done += 1
        last = time.perf_counter() - cycle_start
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() - start + last > seconds:
            break
    return records, done


def jobs_per_s(records) -> float:
    """Median over cycles of a cycle's jobs per second of job wall time.

    Every cycle holds the same mix of jobs, so the median over cycles is
    the rate of the mix, and a stretch of cycles slowed by the shared host
    moves it no more than it moves ``job_s_p50``."""
    cycles = {}
    for r in records:
        cycles.setdefault(r["cycle"], []).append(r["seconds"])
    return statistics.median(len(t) / sum(t) for t in cycles.values())


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it
    (the maximum when there are ten samples or fewer), that percentile, and
    the number of samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(records, setup_s, peak_rss_mb):
    times = [r["seconds"] for r in records]
    failed = sum(r["outcome"] != "ok" for r in records)
    digits = [r["digits"] for r in records if r["digits"] is not None]
    tail_s, pct, beyond = tail(times)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": jobs_per_s(records),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / len(records),
        "accuracy_digits": min(digits) if digits else 0.0,
    }
    print(f"# job_s_tail is the p{pct:.1f} wall time of {len(times)} jobs "
          f"({beyond} samples beyond it)")
    return metrics


def summarize(records) -> None:
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    print(f"# {'kind':34s} {'jobs':>4s} {'fail':>4s} {'p50 s':>9s} {'digits':>6s}  note")
    for kind, rs in kinds.items():
        bad = [r for r in rs if r["outcome"] != "ok"]
        digs = [r["digits"] for r in rs if r["digits"] is not None]
        note = bad[0]["note"] if bad else ""
        if bad and bad[0]["defect"]:
            note = f"[{bad[0]['defect']}] {note}"
        print(f"# {kind:34s} {len(rs):4d} {len(bad):4d} "
              f"{statistics.median(r['seconds'] for r in rs):9.4f} "
              f"{min(digs) if digs else float('nan'):6.2f}  {note[:110]}")


def setup_probes(args) -> float:
    """Median wall time of fresh processes that do this run's set-up.

    Output is captured so the wait ends on end-of-file rather than on
    ``wait``'s coarse polling."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--workload", args.workload,
                        "--seed", str(args.seed), "--setup-probe"],
                       capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_cli_spans(spans_dir: Path):
    """Merge the per-job span files written by cli_child.py."""
    spans, import_s, offset = [], 0.0, 0
    for job, path in enumerate(sorted(spans_dir.glob("job*.jsonl"))):
        top = 0
        with open(path) as fh:
            for line in fh:
                d = json.loads(line)
                if "import_s" in d:
                    import_s += d["import_s"]
                    continue
                top = max(top, d["id"])
                parent = d["parent"] + offset if d["parent"] else 0
                spans.append((d["id"] + offset, parent, job, d["name"], d["start"],
                              d["end"], d["size"], d["ok"]))
        offset += top
    return spans, import_s


def per_layer(workload, args, workdir: Path) -> tuple[dict, list]:
    untraced, cycles = closed_loop(workload, args.seed, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    if isinstance(workload, workloads.CliJobs):
        workload.spans_dir = workdir / "spans"
        workload.spans_dir.mkdir()
        traced, _ = closed_loop(workload, args.seed, cycles=cycles)
        tracer.spans, import_s = traced_cli_spans(workload.spans_dir)
    else:
        restore = tracing.install(tracer)
        try:
            traced, _ = closed_loop(workload, args.seed, cycles=cycles, tracer=tracer)
        finally:
            tracing.uninstall(restore)
        import_s = 0.0
    workdir.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracing.aggregate(tracer.spans, len(traced), import_s)
    busy = sum(r["seconds"] for r in traced)
    plain, rate = jobs_per_s(untraced), jobs_per_s(traced)
    metrics.update({
        "trace.job_s": busy / len(traced),
        "trace.spans_per_job": len(tracer.spans) / len(traced),
        "trace.jobs_per_s": rate,
        "trace.untraced_jobs_per_s": plain,
        "trace.overhead_pct": 100.0 * (plain - rate) / plain,
    })
    return metrics, untraced + traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "chaincast" / "__init__.py").is_file():
        print(f"no chaincast sources under {src}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    workloads.cap_memory()
    workdir = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    kind = workloads.WORKLOADS[args.workload]
    workload = kind(root, workdir) if kind is workloads.CliJobs else kind()
    try:
        workload.prepare()
        if args.setup_probe:
            workload.cycle(np.random.default_rng(args.seed))
            return 0
        if args.trace:
            metrics, records = per_layer(workload, args, workdir)
            units = {k: u for k, (u, _) in tracing.PER_LAYER.items()}
        else:
            records, _ = closed_loop(workload, args.seed, seconds=args.seconds)
            who = (resource.RUSAGE_CHILDREN if isinstance(workload, workloads.CliJobs)
                   else resource.RUSAGE_SELF)
            peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
            metrics = end_to_end(records, setup_probes(args), peak_mb)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summarize(records)
    wrong = [r for r in records if r["outcome"] == "wrong" and not r["defect"]]
    for r in wrong:
        print(f"# WRONG OUTPUT {r['kind']}: {r['note']}")
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": sum(r["outcome"] != "ok" for r in records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for name, m in result["metrics"].items():
        print(f"# {name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
