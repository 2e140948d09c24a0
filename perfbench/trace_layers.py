"""Spans around the public functions of each `chatelet` layer.

`Tracer.install` replaces every target, in every `chatelet.*` module and
class that binds it by name, with a wrapper that records a span: name,
start, end, parent span and job id.  Spans stay in memory until the pass
ends; `write` dumps them as tab-separated lines and `layer_metrics` derives
call counts and self times (span time minus the time its child spans cover).
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# (layer metric name, module, attribute path) of every wrapped target
TARGETS = [
    ("cli.main", "chatelet.cli", "main"),
    ("cli.parse_element", "chatelet.cli", "parse_element"),
    ("surfaces.analyze_local", "chatelet.surfaces", "analyze_local"),
    ("padic.is_square", "chatelet.padic", "is_square"),
    ("padic.square_class_group", "chatelet.padic", "square_class_group"),
    ("padic.square_class", "chatelet.padic", "square_class"),
    ("padic.field_build", "chatelet.padic", "LocalField.qp"),
    ("padic.field_build", "chatelet.padic", "LocalField.extend_unramified"),
    ("padic.field_build", "chatelet.padic", "LocalField.extend_eisenstein"),
    ("padic.mul", "chatelet.padic", "PadicElement.__mul__"),
    ("padic.inverse", "chatelet.padic", "PadicElement.inverse"),
    ("intmat.matmul", "chatelet.intmat", "IntMatrix.__matmul__"),
    ("intmat.smith_normal_form", "chatelet.intmat", "smith_normal_form"),
    ("intmat.unimodular_inverse", "chatelet.intmat", "unimodular_inverse"),
    ("intmat.lattice_subquotient", "chatelet.intmat", "LatticeSubquotient.__init__"),
    ("intmat.solution_lattice", "chatelet.intmat", "solution_lattice"),
    ("cohomology.h0", "chatelet.cohomology", "h0"),
    ("cohomology.h1", "chatelet.cohomology", "h1"),
    ("cohomology.restriction_map", "chatelet.cohomology", "restriction_map"),
    ("cohomology.corestriction_map", "chatelet.cohomology", "corestriction_map"),
    ("modules.hom_module", "chatelet.modules", "hom_module"),
    ("modules.validate", "chatelet.modules", "GModule.validate"),
    ("modules.validate", "chatelet.modules", "GModuleMap.validate"),
    ("groups.group_build", "chatelet.groups", "FiniteGroup.__init__"),
    ("extensions.lemma52_check", "chatelet.extensions", "lemma52_check"),
]

# squareness tests are counted under these spans: the greedy square class
# search spends most of its work there
SQUARE_PARENTS = ("padic.square_class_group", "padic.square_class")


def _digits(n: int) -> int:
    """Decimal digits of |n|, without converting it to a string."""
    n = abs(n)
    if n == 0:
        return 1
    d = int((n.bit_length() - 1) * 0.30102999566398120) + 1
    return d + 1 if n >= 10 ** d else d


class Tracer:
    def __init__(self):
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name id, start, end, parent index, job)
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.max_digits = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        # squareness is split by residue characteristic: p = 2 is the slow case
        split = name == "padic.is_square"
        if split:
            p2, odd_p = self._name_id(f"{name}.p2"), self._name_id(f"{name}.odd_p")
        else:
            fixed = self._name_id(name)
        measure_snf = name == "intmat.smith_normal_form"
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            nid = (p2 if args[0].field.p == 2 else odd_p) if split else fixed
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (nid, start, end, parent, tracer.job)
            if measure_snf:
                widest = max((abs(x) for M in (result.U, result.V)
                              for row in M.rows for x in row), default=0)
                tracer.max_digits = max(tracer.max_digits, _digits(widest))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a `chatelet` module or class binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "chatelet" or n.startswith("chatelet.")]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(name, fn)
            replacement = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw or value is fn:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, replacement)
        self._h1 = sys.modules["chatelet.cohomology"].h1.__wrapped__

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for nid, start, end, parent, job in self.spans:
                fh.write(f"{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times (ms) over every recorded span."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        for i, (nid, start, end, _, _) in enumerate(spans):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_ms[name] = self_ms.get(name, 0.0) + (end - start - child[i]) * 1e3
        for totals in (calls, self_ms):
            totals["padic.is_square"] = sum(totals.get(f"padic.is_square.{part}", 0)
                                            for part in ("p2", "odd_p"))

        square_ids = {self._name_ids.get(n) for n in ("padic.is_square.p2",
                                                      "padic.is_square.odd_p")}
        parent_ids = {self._name_ids.get(n): n for n in SQUARE_PARENTS}
        under = {n: 0 for n in SQUARE_PARENTS}
        for nid, _, _, parent, _ in spans:
            if nid not in square_ids:
                continue
            seen = set()
            while parent >= 0:
                pid = spans[parent][0]
                if pid in parent_ids and pid not in seen:
                    seen.add(pid)
                    under[parent_ids[pid]] += 1
                parent = spans[parent][3]

        out: dict[str, float] = {}
        names = sorted({name for name, _, _ in TARGETS}
                       | {"padic.is_square.p2", "padic.is_square.odd_p"})
        for name in names:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
        for name in SQUARE_PARENTS:
            out[f"{name}.is_square_calls"] = under[name]
        out["intmat.smith_normal_form.max_digits"] = self.max_digits
        out["cohomology.h1.cache_hits"] = self._h1.cache_info().hits
        out["trace.spans"] = len(spans)
        return out
