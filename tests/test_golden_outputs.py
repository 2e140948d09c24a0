"""Golden outputs: every benchmark document gives the committed CLI bytes.

Each document in `perfbench/docs/*.jsonl` goes through `chatelet.cli.main`
in this one process, in four modes: json and text output, each with and
without `--trace`.  The exit codes, stdout and stderr of the four runs are
hashed into one sha256 per document and compared with
`tests/golden_digests.json`.  A change that is meant to keep every output
byte for byte (a speed-up, a refactor) must pass this test unchanged.

After a change that alters output on purpose, rewrite the digests with

    PYTHONPATH=src python tests/test_golden_outputs.py --record

and say in the change which documents moved.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

from chatelet.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "perfbench" / "docs"
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
MODES = (
    ["--format", "json"],
    ["--format", "text"],
    ["--format", "json", "--trace"],
    ["--format", "text", "--trace"],
)


def _submit(text: str, flags: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run on a document read from stdin."""
    real = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        code = main(["-", *flags])
    finally:
        sys.stdin, sys.stdout, sys.stderr = real
    return code, out.getvalue(), err.getvalue()


def document_digests() -> dict[str, dict[str, str]]:
    """{workload: {document id: sha256 of its four runs}} over every document."""
    digests = {}
    for path in sorted(DOCS.glob("*.jsonl")):
        table = {}
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                entry = json.loads(line)
                text = json.dumps(entry["doc"])
                h = hashlib.sha256()
                for flags in MODES:
                    h.update(json.dumps(_submit(text, flags)).encode("utf-8"))
                table[str(entry["id"])] = h.hexdigest()
        digests[path.stem] = table
    return digests


def test_every_document_gives_the_committed_bytes():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = document_digests()
    assert got.keys() == expected.keys()
    for workload, table in expected.items():
        assert got[workload].keys() == table.keys(), workload
        moved = sorted((k for k in table if got[workload][k] != table[k]), key=int)
        assert not moved, f"{workload}: documents {moved} changed output"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_outputs.py --record")
    DIGESTS.write_text(json.dumps(document_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
