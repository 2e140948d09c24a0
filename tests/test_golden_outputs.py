"""Golden outputs: every benchmark document gives the committed CLI bytes.

Each document in `perfbench/docs/*.jsonl` goes through `chatelet.cli.main`
in this one process, in four modes: json and text output, each with and
without `--trace`.  The exit codes, stdout and stderr of the four runs are
hashed into one sha256 per document and compared with
`tests/golden_digests.json`.  A change that is meant to keep every output
byte for byte (a speed-up, a refactor) must pass this test unchanged.

The documents named in `PINNED` (under `tests/docs`) reach what no
benchmark document does: analyze jobs in global mode, on six-root
surfaces, on refused surfaces or on surfaces repeated across jobs, the
largest `h1` jobs, the regular module of a group of order 128 with and
without a subgroup, an `ext-check` whose hom module is
Hom(Z[D6], Z[D6]), of rank 144, an `ext-check` that corestricts from
the non-normal point stabiliser of S4, of index 4, with classes of order
3 and 6, `h1` jobs whose restriction and corestriction maps have free
parts (Z -> Z^12 over Z[S4] among them, injective but not surjective), and
p-adic towers past the benchmark's
degree 8: an Eisenstein tower of degree 256 over Q_3, two unramified steps
over Q_1000003, and analyze jobs over a base of p = 2^61 - 1.  They are
hashed the same way, one sha256 per document, against
`tests/golden_pinned_digests.json`.

To pin a new document, add it and write its digest with

    PYTHONPATH=src python tests/test_golden_outputs.py --record

which computes digests only for the documents that have none in either
file and leaves every existing entry as it is.  After a change that alters
output on purpose, delete the moved documents' entries, record again and
say in the change which documents moved.
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
PINNED_DIR = Path(__file__).resolve().parent / "docs"
PINNED_DIGESTS = Path(__file__).resolve().parent / "golden_pinned_digests.json"
PINNED = (
    "analyze_global_odd_degree",
    "analyze_global_completion_certifies",
    "analyze_global_completion_inconclusive",
    "analyze_global_asserted_degenerate",
    "analyze_global_no_evidence",
    "analyze_six_roots_local",
    "analyze_six_roots_global",
    "analyze_invalid_surfaces",
    "analyze_repeated_surfaces",
    "regular_h1_order_128",
    "regular_h1_order_128_subgroup",
    "ext_check_regular_d6",
    "ext_check_s4_point_stabiliser",
    "h1_subgroup_free_parts",
    "eisenstein_tower_degree_256",
    "two_unramified_steps_1000003",
    "analyze_large_prime_base",
)
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


def _digest(text: str) -> str:
    """sha256 of the four runs of one document."""
    h = hashlib.sha256()
    for flags in MODES:
        h.update(json.dumps(_submit(text, flags)).encode("utf-8"))
    return h.hexdigest()


def _document_texts() -> dict[str, dict[str, str]]:
    """{workload: {document id: document text}} over every benchmark document."""
    texts = {}
    for path in sorted(DOCS.glob("*.jsonl")):
        table = {}
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    entry = json.loads(line)
                    table[str(entry["id"])] = json.dumps(entry["doc"])
        texts[path.stem] = table
    return texts


def _pinned_text(name: str) -> str:
    return (PINNED_DIR / f"{name}.json").read_text(encoding="utf-8")


def document_digests() -> dict[str, dict[str, str]]:
    """{workload: {document id: sha256 of its four runs}} over every document."""
    return {workload: {k: _digest(text) for k, text in table.items()}
            for workload, table in _document_texts().items()}


def pinned_digests() -> dict[str, str]:
    """{document name: sha256 of its four runs} over the pinned documents."""
    return {name: _digest(_pinned_text(name)) for name in PINNED}


def test_every_document_gives_the_committed_bytes():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = document_digests()
    assert got.keys() == expected.keys()
    for workload, table in expected.items():
        assert got[workload].keys() == table.keys(), workload
        moved = sorted((k for k in table if got[workload][k] != table[k]), key=int)
        assert not moved, f"{workload}: documents {moved} changed output"


def test_every_pinned_analyze_document_gives_the_committed_bytes():
    expected = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))
    got = pinned_digests()
    assert got.keys() == expected.keys()
    moved = [name for name in PINNED if got[name] != expected[name]]
    assert not moved, f"documents {moved} changed output"


def record_missing() -> list[str]:
    """Write the digest of every document that has no entry yet, and return
    their names; existing entries are neither recomputed nor rewritten."""
    recorded = []
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for workload, table in _document_texts().items():
        entries = digests.setdefault(workload, {})
        for k, text in table.items():
            if k not in entries:
                entries[k] = _digest(text)
                recorded.append(f"{workload}/{k}")
    pinned = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))
    for name in PINNED:
        if name not in pinned:
            pinned[name] = _digest(_pinned_text(name))
            recorded.append(name)
    for path, table in ((DIGESTS, digests), (PINNED_DIGESTS, pinned)):
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return recorded


def test_record_writes_only_the_missing_digests(tmp_path, monkeypatch):
    text = DIGESTS.read_text(encoding="utf-8")
    digests = tmp_path / "digests.json"
    digests.write_text(text, encoding="utf-8")
    pinned = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))
    committed = pinned.pop("h1_subgroup_free_parts")
    pinned["analyze_large_prime_base"] = "stale"
    pinned_path = tmp_path / "pinned.json"
    pinned_path.write_text(json.dumps(pinned), encoding="utf-8")
    monkeypatch.setitem(globals(), "DIGESTS", digests)
    monkeypatch.setitem(globals(), "PINNED_DIGESTS", pinned_path)
    assert record_missing() == ["h1_subgroup_free_parts"]
    assert digests.read_text(encoding="utf-8") == text
    assert json.loads(pinned_path.read_text(encoding="utf-8")) == {
        **pinned, "h1_subgroup_free_parts": committed}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_outputs.py --record")
    print("recorded:", ", ".join(record_missing()) or "nothing")
