"""The chatelet benchmark: job documents through the CLI entry point.

    python3 perfbench/run.py --workload local-verdicts --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a source checkout; nothing needs building.  Set-up time
is the median of several fresh launches of the workload process (interpreter
start, `import chatelet`, loading the documents), after one launch that
warms the bytecode cache.  Then whole passes over the workload's documents
are made, each in a fresh workload process so every pass does the same work
from cold library caches: at least one, and another while it should still
end within `--seconds` of the start.  Every output is checked by
`checks.py`.  Times are scaled to a nominal machine speed by reference
slices timed next to each job and launch (see NOMINAL_SLICE_S).

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` one untraced pass is followed by traced passes, and it reports
the per-layer metrics and the tracing overhead instead.  Spans, per-layer
figures and per-job times are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("local-verdicts", "group-cohomology", "snf-dense")
# set-up launches per run, half before the passes and half after them
SETUP_LAUNCHES = 16
# one run must end within 180 s; a pass that has not ended by then is a hang
PASS_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from checks import run_checks  # noqa: E402
from worker import reference_slice  # noqa: E402

# Times are reported at a nominal machine speed: each job's wall time is
# scaled by NOMINAL_SLICE_S over the mean of the reference slices timed just
# before and just after it.  0.8 ms is about what a slice takes on the shared
# 2-core machine the reference figures in README.md come from.
NOMINAL_SLICE_S = 0.0008


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # set iteration order must not vary from process to process
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(args: list, env: dict, timeout: float):
    """Start a workload process; returns (seconds until `ready`, scaled to
    the nominal machine speed, and the process's summary)."""
    before = statistics.median(reference_slice() for _ in range(3))
    started = time.perf_counter()
    # -S: the workload needs only the standard library and `src`, and the
    # .pth hooks of an installed site-packages can cost more than the import
    # being measured
    proc = subprocess.Popen([sys.executable, "-S", str(WORKER)] + args, stdout=subprocess.PIPE,
                            env=env, cwd=str(ROOT), text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    after = statistics.median(reference_slice() for _ in range(3))
    setup *= NOMINAL_SLICE_S * 2 / (before + after)
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def run_pass(workload: str, seed: int, env: dict, spans: Path | None, entries: dict):
    spool = OUT / f"spool-{workload}-{os.getpid()}.jsonl"
    args = ["--docs", str(HERE / "docs" / f"{workload}.jsonl"), "--seed", str(seed),
            "--spool", str(spool)]
    if spans is not None:
        args += ["--spans", str(spans)]
    try:
        _, summary = launch(args, env, PASS_TIMEOUT_S)
        outcomes = {}
        with open(spool, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                outcomes[rec["id"]] = (rec["exit"], rec["out"], rec["err"])
    finally:
        spool.unlink(missing_ok=True)
    failed, errors = run_checks(workload, entries, outcomes)
    summary["failed_ids"] = sorted(failed)
    summary["errors"] = errors
    return summary


def scaled(p: dict) -> list:
    """The pass's job times at the nominal machine speed."""
    ref = p["ref"]
    return [t * NOMINAL_SLICE_S * 2 / (ref[k] + ref[k + 1]) for k, t in enumerate(p["seconds"])]


def pass_rate(p: dict) -> float:
    """Jobs completed per second of (scaled) job wall time in one pass."""
    return sum(1 for code in p["exit"] if code == 0) / sum(scaled(p))


def end_to_end(setups: list, passes: list) -> dict:
    """Per-pass figures, then the median over the run's passes."""
    p50, p90 = [], []
    for p in passes:
        done = [s for s, code in zip(scaled(p), p["exit"]) if code == 0]
        p50.append(statistics.median(done) * 1e3)
        p90.append(statistics.quantiles(done, n=10)[-1] * 1e3)
    metrics = {
        "jobs_per_s": (statistics.median(pass_rate(p) for p in passes), "1/s"),
        "job_p50_ms": (statistics.median(p50), "ms"),
        "job_p90_ms": (statistics.median(p90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        "output_kb": (statistics.median(p["out_bytes"] for p in passes) / 1000, "kB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


LAYER_UNITS = {"calls": "count", "self_ms": "ms", "is_square_calls": "count",
               "max_digits": "count", "cache_hits": "count", "spans": "count"}


def per_layer(untraced: dict, traced: list) -> dict:
    names = traced[0]["layers"].keys()
    metrics = {}
    for name in names:
        values = [p["layers"][name] for p in traced]
        metrics[name] = {"value": statistics.median(values),
                         "unit": LAYER_UNITS[name.rsplit(".", 1)[1]]}

    plain = pass_rate(untraced)
    traced_rate = statistics.median(pass_rate(p) for p in traced)
    metrics["trace.untraced_jobs_per_s"] = {"value": plain, "unit": "1/s"}
    metrics["trace.traced_jobs_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.overhead_pct"] = {"value": (plain / traced_rate - 1) * 100, "unit": "%"}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up launches, passes and checks for one workload; returns the
    result object the last stdout line reports."""
    started = time.perf_counter()
    env = worker_env()
    docs = str(HERE / "docs" / f"{workload}.jsonl")
    with open(docs, encoding="utf-8") as fh:
        entries = {e["id"]: e for e in map(json.loads, fh)}
    setup_args = ["--docs", docs, "--seed", str(seed), "--setup-only"]
    tag = f"{workload}-seed{seed}"

    launch(setup_args, env, 60)  # writes the bytecode cache
    setups = [launch(setup_args, env, 60)[0] for _ in range(SETUP_LAUNCHES // 2)]
    spans = OUT / f"spans-{tag}.tsv" if trace else None
    untraced = run_pass(workload, seed, env, None, entries) if trace else None
    # whole passes only, and another one only if it should end in time
    passes, last = [], 0.0
    while not passes or time.perf_counter() - started + last <= seconds:
        began = time.perf_counter()
        passes.append(run_pass(workload, seed, env, spans, entries))
        last = time.perf_counter() - began
    setups += [launch(setup_args, env, 60)[0] for _ in range(SETUP_LAUNCHES // 2)]

    everything = passes + ([untraced] if untraced else [])
    errors = [e for p in everything for e in p["errors"]]
    if len({tuple(p["failed_ids"]) for p in everything}) > 1:
        errors.append("the failed jobs differ between passes")
    if len({p["out_bytes"] for p in everything}) > 1:
        errors.append("the output differs between passes")
    for e in errors[:20]:
        print(f"{workload}: check failed: {e}", file=sys.stderr)

    if trace:
        metrics = per_layer(untraced, passes)
        with open(OUT / f"layers-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=1, sort_keys=True)
    else:
        metrics = end_to_end(setups, passes)
        with open(OUT / f"run-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setups, "passes": [
                {k: p[k] for k in ("ids", "exit", "seconds", "ref", "out_bytes", "peak_rss_kb")}
                for p in passes]}, fh)
    return {"correct": not errors,
            "attempted": sum(len(p["ids"]) for p in everything),
            "failed": sum(len(p["failed_ids"]) for p in everything),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chatelet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chatelet" / "cli.py").is_file():
        print(f"no chatelet source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: benchmark aborted: {exc}", file=sys.stderr)
            return 1
        r = results[name]
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, "
              f"outputs {'correct' if r['correct'] else 'WRONG'}")
        for metric, m in r["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
