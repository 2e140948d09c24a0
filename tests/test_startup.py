"""Start-up stays light: the CLI loads neither `dataclasses` nor `typing`.

Those two (with `inspect`, which `dataclasses` pulls in) cost more to import
than a one-shot job takes to run.  pytest imports all three itself, so the
check runs in a fresh interpreter started with `-S`.  It looks once after
`import chatelet.cli` and once more after one document of every job type
has gone through `cli.main` in every output mode, so nothing heavy is
merely put off until a job needs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("dataclasses", "typing", "inspect")

CHILD = """
import io
import sys

import chatelet.cli

HEAVY = %r
after_import = [m for m in HEAVY if m in sys.modules]
texts = sys.stdin.read().splitlines()
real = sys.stdin, sys.stdout, sys.stderr
codes = []
for text in texts:
    for flags in (["--format", "json"], ["--format", "text"],
                  ["--format", "json", "--trace"], ["--format", "text", "--trace"]):
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
        try:
            codes.append(chatelet.cli.main(["-", *flags]))
        finally:
            sys.stdin, sys.stdout, sys.stderr = real
after_jobs = [m for m in HEAVY if m in sys.modules]
import json  # loaded by the CLI already
print(json.dumps([after_import, after_jobs, codes]))
""" % (HEAVY,)


def _one_document_per_job_type() -> tuple[list[str], list[int]]:
    """The first benchmark document of each job type, a global analyze job
    and a document that fails validation in every job type, as one-line
    JSON texts with the exit code each should give."""
    texts, types = [], set()
    for path in sorted((ROOT / "perfbench" / "docs").glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            doc = json.loads(line)["doc"]
            kinds = {job["type"] for job in doc["jobs"]}
            if not kinds <= types:
                types |= kinds
                texts.append(json.dumps(doc))
    assert types == {"snf", "h1", "ext-check", "square-class", "analyze"}
    global_job = {"type": "analyze", "surface": {"base": "Q", "d": 2, "roots": [1, 2, 3, 4]},
                  "extension": {"degree": 2, "completion": {"p": 5, "steps": []}}}
    texts.append(json.dumps({"version": 1, "jobs": [global_job]}))
    invalid = ROOT / "tests" / "docs" / "invalid_field_per_job_type.json"
    texts.append(json.dumps(json.loads(invalid.read_text(encoding="utf-8"))))
    return texts, [0] * (len(texts) - 1) + [2]


def test_the_cli_never_loads_dataclasses_typing_or_inspect():
    texts, expected = _one_document_per_job_type()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD], input="\n".join(texts),
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    after_import, after_jobs, codes = json.loads(proc.stdout)
    assert codes == [code for code in expected for _ in range(4)]
    assert after_import == []
    assert after_jobs == []
