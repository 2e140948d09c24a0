"""One workload process: the unit `run.py` launches and times.

    python3 perfbench/worker.py --docs perfbench/docs/snf-dense.jsonl \
        --seed 1 --spool out.jsonl [--setup-only] [--spans spans.tsv]

It imports `chatelet`, loads the job documents and writes `ready` to stdout:
the launcher's clock from start to that line is the set-up time.  Unless
`--setup-only` is given it then submits every document, in an order fixed by
`--seed`, to `chatelet.cli.main` in this process with stdin and stdout
replaced, timing each call.  A reference slice is timed before the first job
and after every job.  Each job's exit code and output go to the spool file
after its clock has stopped; the last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction


def reference_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with `chatelet`: Fraction arithmetic, a small integer matrix
    product, and tuple and dict building, the operations the library spends
    its time in.  The machine this runs on changes speed by tens of percent
    within seconds, and a slice timed next to a job slows with it.  The
    collector is off during the slice, so the size of the library's heap
    cannot change what the slice costs."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 60):
            total += Fraction(1, i) * Fraction(i + 1, i + 2)
        rows = [[(i * j) % 7 - 3 for j in range(12)] for i in range(12)]
        cols = list(zip(*rows))
        [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in rows]
        table = {}
        for i in range(200):
            table[(i, i % 5)] = (i, str(i))
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def load_documents(path: str) -> list[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    return [(e["id"], json.dumps(e["doc"])) for e in entries]


def submit(main, text: str):
    """Run one document through the CLI entry point; returns the exit code,
    the captured stdout and stderr, and the wall time in seconds."""
    real = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    failure = None
    started = time.perf_counter()
    try:
        code = main(["-"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught exception exits the CLI with 1
        code, failure = 1, exc
    elapsed = time.perf_counter() - started
    sys.stdin, sys.stdout, sys.stderr = real
    if failure is not None:
        err.write("".join(traceback.format_exception(failure)))
    return code, out.getvalue(), err.getvalue(), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--docs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spool")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import chatelet.cli

    documents = load_documents(args.docs)
    random.Random(args.seed).shuffle(documents)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.spans:
        from trace_layers import Tracer
        tracer = Tracer()
        tracer.install()

    ids, codes, seconds = [], [], []
    ref = [reference_slice()]
    out_bytes = 0
    with open(args.spool, "w", encoding="utf-8") as spool:
        for job_id, text in documents:
            if tracer is not None:
                tracer.job = job_id
            code, out, err, elapsed = submit(chatelet.cli.main, text)
            ref.append(reference_slice())
            ids.append(job_id)
            codes.append(code)
            seconds.append(elapsed)
            out_bytes += len(out.encode("utf-8"))
            spool.write(json.dumps({"id": job_id, "exit": code, "out": out, "err": err}) + "\n")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    summary = {"ids": ids, "exit": codes, "seconds": seconds, "ref": ref,
               "out_bytes": out_bytes, "peak_rss_kb": peak_kb}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)
        summary["layers"] = tracer.layer_metrics()
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
