"""Command line driver: runs batches of jobs described by a JSON document.

The document has the shape {"version": 1, "jobs": [...]}, each job being one
of five types:

  snf           exact Smith normal form of an integer matrix
  h1            cohomology of a finite group module (degree 0 or 1), with
                optional restriction / corestriction verdicts for a subgroup
  ext-check     the commuting-square comparison between pushing an extension
                class out along a multiplied map and the restrict / push /
                corestrict route through a subgroup
  square-class  squareness, valuations, and square classes in a p-adic field
  analyze       restriction and corestriction verdicts for a conic bundle
                surface under base change (local tower or global evidence)

Output is deterministic: the same document always produces the same bytes.
Exit codes: 0 success, 2 invalid input (every problem is reported with the
path of the offending field), 4 unexpected internal failure, including a
result that cannot be encoded (nothing is written to stdout then).  Exit
code 3 is reserved for precision exhaustion; the arithmetic here is exact,
so it is never used, and the --precision flag is accepted but has no effect.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .cohomology import corestriction_map, h0, h1, restriction_map
from .extensions import lemma52_check
from .groups import (
    FiniteGroup,
    Subgroup,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from .intmat import IntMatrix, smith_normal_form
from .modules import (
    CACHE_SIZE,
    GModule,
    GModuleMap,
    chatelet_picard_module,
    describe_invariants,
    regular_module,
    restrict_module,
    trivial_module,
)
from .padic import (
    LocalField,
    _is_prefix,
    _remember,
    is_square,
    square_class,
    square_class_group,
    valuation,
)
from .surfaces import (
    ChateletSurface,
    RationalChateletSurface,
    analyze_global,
    analyze_local,
)


# -- element expressions -------------------------------------------------------


class ExpressionError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(\d+)|(t\d+)|([+\-*/^()×])|(\S))")

# largest bit length of a numerator or denominator that an element
# expression may reach (3,010 decimal digits): a power is refused before it
# is computed when |n| times the bit length of its base exceeds it
MAX_ELEMENT_BITS = 10_000

# deepest nesting of parentheses and unary signs an expression may have;
# the parser recurses at most four frames per level, so this stays far
# below the interpreter's recursion limit
MAX_NESTING = 100


def _bits(value) -> int:
    """The largest bit length among the numerators and denominator of an element."""
    return max(max(abs(a) for a in value.nums).bit_length(), value.den.bit_length())


def _bounded(value):
    if _bits(value) > MAX_ELEMENT_BITS:
        raise ExpressionError(f"value exceeds {MAX_ELEMENT_BITS} bits")
    return value


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        pos = m.end()
        # a number with more significant digits than this exceeds
        # MAX_ELEMENT_BITS, and past 4,300 digits int() itself refuses it
        digits = (m.group(1) or m.group(2) or "").lstrip("t0")
        if len(digits) > MAX_ELEMENT_BITS // 3:
            raise ExpressionError(f"number exceeds {MAX_ELEMENT_BITS} bits")
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("gen", int(m.group(2)[1:])))
        elif m.group(3) is not None:
            op = "*" if m.group(3) == "×" else m.group(3)
            tokens.append(("op", op))
        elif m.group(4) is not None:
            raise ExpressionError(f"unexpected character {m.group(4)!r}")
    return tokens


def parse_element(text, field: LocalField):
    """Evaluate an element expression: integers, generators t1, t2, ...,
    the operators + - * / ^, and parentheses.

    Elements are immutable, so each (text, field) is evaluated once and kept
    in a cache bounded at CACHE_SIZE; an error is not kept and repeats
    unchanged."""
    if not isinstance(text, (str, int)) or isinstance(text, bool):
        raise ExpressionError("element must be a string expression or an integer")
    return _evaluate(text, field)


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def _evaluate(text, field: LocalField):
    if isinstance(text, int):
        return _bounded(field.integer(text))
    tokens = _tokenize(text)
    state = {"pos": 0, "depth": 0}

    def peek():
        return tokens[state["pos"]] if state["pos"] < len(tokens) else (None, None)

    def take():
        tok = peek()
        state["pos"] += 1
        return tok

    def descend():
        state["depth"] += 1
        if state["depth"] > MAX_NESTING:
            raise ExpressionError(f"expression nests deeper than {MAX_NESTING} levels")

    def expr():
        value = term()
        while peek() == ("op", "+") or peek() == ("op", "-"):
            _, op = take()
            rhs = term()
            value = _bounded(value + rhs if op == "+" else value - rhs)
        return value

    def term():
        value = factor()
        while peek() == ("op", "*") or peek() == ("op", "/"):
            _, op = take()
            rhs = factor()
            if op == "/" and rhs.is_zero():
                raise ExpressionError("division by zero")
            value = _bounded(value * rhs if op == "*" else value / rhs)
        return value

    def factor():
        kind, val = peek()
        if kind == "op" and val in ("+", "-"):
            take()
            descend()
            value = factor()
            state["depth"] -= 1
            return -value if val == "-" else value
        value = atom()
        if peek() == ("op", "^"):
            take()
            sign = 1
            if peek() == ("op", "-"):
                take()
                sign = -1
            kind, val = take()
            if kind != "int":
                raise ExpressionError("exponent must be an integer literal")
            if sign < 0 and value.is_zero():
                raise ExpressionError("zero cannot be inverted")
            if val * _bits(value) > MAX_ELEMENT_BITS:
                raise ExpressionError(f"power exceeds {MAX_ELEMENT_BITS} bits")
            return value ** (sign * val)
        return value

    def atom():
        kind, val = take()
        if kind == "int":
            return field.integer(val)
        if kind == "gen":
            if not 1 <= val <= len(field.steps):
                raise ExpressionError(f"t{val} is not a generator of this field")
            return field.gen(val - 1)
        if (kind, val) == ("op", "("):
            descend()
            value = expr()
            state["depth"] -= 1
            if take() != ("op", ")"):
                raise ExpressionError("expected closing parenthesis")
            return value
        raise ExpressionError("expected a number, generator, or parenthesis")

    if not tokens:
        raise ExpressionError("empty expression")
    try:
        value = expr()
    except ZeroDivisionError:
        raise ExpressionError("division by zero") from None
    if state["pos"] != len(tokens):
        raise ExpressionError("trailing input after expression")
    return _bounded(value)


# -- validation helpers ----------------------------------------------------------


def _err(errors: list, path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def _parse_each(raws, path, errors, parse):
    """Parse every entry, reporting each failure at path[i]; None if any failed."""
    values = []
    for i, raw in enumerate(raws):
        try:
            values.append(parse(raw))
        except ExpressionError as exc:
            _err(errors, f"{path}[{i}]", str(exc))
    return values if len(values) == len(raws) else None


def _as_object(value, path, errors):
    if not isinstance(value, dict):
        _err(errors, path, "expected an object")
        return None
    return value


def _as_array(value, path, errors, min_len=0):
    if not isinstance(value, list):
        _err(errors, path, "expected an array")
        return None
    if len(value) < min_len:
        _err(errors, path, f"expected at least {min_len} entries")
        return None
    return value


def _as_int(value, path, errors, lo=None, hi=None):
    if not isinstance(value, int) or isinstance(value, bool):
        _err(errors, path, "expected an integer")
        return None
    if lo is not None and value < lo:
        _err(errors, path, f"must be at least {lo}")
        return None
    if hi is not None and value > hi:
        _err(errors, path, f"must be at most {hi}")
        return None
    return value


def _as_str(value, path, errors, choices=None):
    if not isinstance(value, str):
        _err(errors, path, "expected a string")
        return None
    if choices is not None and value not in choices:
        _err(errors, path, "expected one of " + ", ".join(sorted(choices)))
        return None
    return value


def _as_matrix(value, path, errors, square=False):
    rows = _as_array(value, path, errors, min_len=1)
    if rows is None:
        return None
    width = None
    out = []
    for i, row in enumerate(rows):
        cells = _as_array(row, f"{path}[{i}]", errors, min_len=1)
        if cells is None:
            return None
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            _err(errors, f"{path}[{i}]", "rows must all have the same length")
            return None
        # the per-cell check builds a path string per cell; run it only
        # when some cell is not a plain int
        if not all(type(cell) is int for cell in cells):
            for j, cell in enumerate(cells):
                if _as_int(cell, f"{path}[{i}][{j}]", errors) is None:
                    return None
        out.append(cells)
    if square and len(out) != width:
        _err(errors, path, "matrix must be square")
        return None
    return IntMatrix(out, ncols=width)


def _build_group(spec, path, errors):
    obj = _as_object(spec, path, errors)
    if obj is None:
        return None
    kind = _as_str(obj.get("kind"), f"{path}.kind", errors,
                   choices={"cyclic", "dihedral", "symmetric", "quaternion", "table"})
    if kind is None:
        return None
    if kind == "cyclic":
        n = _as_int(obj.get("n"), f"{path}.n", errors, lo=1, hi=64)
        return None if n is None else cyclic_group(n)
    if kind == "dihedral":
        n = _as_int(obj.get("n"), f"{path}.n", errors, lo=1, hi=16)
        return None if n is None else dihedral_group(n)
    if kind == "symmetric":
        n = _as_int(obj.get("n"), f"{path}.n", errors, lo=1, hi=4)
        return None if n is None else symmetric_group(n)
    if kind == "quaternion":
        return quaternion_group()
    table = obj.get("table")
    rows = _as_array(table, f"{path}.table", errors, min_len=1)
    if rows is None:
        return None
    try:
        return FiniteGroup(rows)
    except (ValueError, TypeError) as exc:
        _err(errors, f"{path}.table", str(exc))
        return None


def _build_module(spec, group, path, errors):
    obj = _as_object(spec, path, errors)
    if obj is None or group is None:
        return None
    kind = _as_str(obj.get("kind"), f"{path}.kind", errors,
                   choices={"trivial", "regular", "picard", "explicit"})
    if kind is None:
        return None
    if kind == "regular":
        return regular_module(group)
    if kind == "picard":
        module = chatelet_picard_module()
        if group != module.group:
            _err(errors, path, "the picard module lives over the two-element group")
            return None
        return module
    rank = _as_int(obj.get("rank", 1 if kind == "trivial" else None), f"{path}.rank",
                   errors, lo=1, hi=12)
    matrices = _build_action(obj, group, rank, path, errors) if kind == "explicit" else ()
    if rank is None or matrices is None:
        return None
    relations = ()
    if "relations" in obj:
        rel_matrix = _as_matrix(obj["relations"], f"{path}.relations", errors)
        if rel_matrix is None:
            return None
        if rel_matrix.ncols != rank:
            _err(errors, f"{path}.relations", "relation length must equal rank")
            return None
        relations = tuple(tuple(r) for r in rel_matrix.rows)
    if kind == "trivial":
        return trivial_module(group, rank, relations)
    try:
        return GModule(group, rank, relations, matrices, name="explicit")
    except ValueError as exc:
        _err(errors, path, str(exc))
        return None


def _build_action(obj, group, rank, path, errors):
    action_spec = _as_array(obj.get("action"), f"{path}.action", errors, min_len=1)
    if rank is None or action_spec is None:
        return None
    if len(action_spec) != group.order:
        _err(errors, f"{path}.action",
             f"need one matrix per group element ({group.order})")
        return None
    matrices = []
    for i, mat in enumerate(action_spec):
        m = _as_matrix(mat, f"{path}.action[{i}]", errors, square=True)
        if m is None:
            return None
        if m.nrows != rank:
            _err(errors, f"{path}.action[{i}]", "matrix size must equal rank")
            return None
        matrices.append(m)
    return matrices


# fields already built, keyed by the JSON text of their spec; a spec that
# fails is never stored, so it runs every check and reports the same errors
# each time
_FIELDS: dict = {}


def _build_field(spec, path, errors):
    # a spec that cannot be written as JSON text, or only from a shallower
    # stack, is built without the lookup
    try:
        key = json.dumps(spec, sort_keys=True)
    except (TypeError, ValueError, RecursionError):
        key = None
    field = _FIELDS.get(key)
    if field is None:
        field = _check_field(spec, path, errors)
        if field is not None and key is not None:
            _remember(_FIELDS, key, field)
    return field


def _check_field(spec, path, errors):
    obj = _as_object(spec, path, errors)
    if obj is None:
        return None
    p = _as_int(obj.get("p"), f"{path}.p", errors, lo=2)
    if p is None:
        return None
    try:
        field = LocalField.qp(p)
    except ValueError as exc:
        _err(errors, f"{path}.p", str(exc))
        return None
    steps = obj.get("steps", [])
    steps_arr = _as_array(steps, f"{path}.steps", errors)
    if steps_arr is None:
        return None
    for i, step in enumerate(steps_arr):
        step_path = f"{path}.steps[{i}]"
        step_obj = _as_object(step, step_path, errors)
        if step_obj is None:
            return None
        kind = _as_str(step_obj.get("kind"), f"{step_path}.kind", errors,
                       choices={"unramified", "eisenstein"})
        poly = _as_array(step_obj.get("poly"), f"{step_path}.poly", errors, min_len=2)
        if kind is None or poly is None:
            return None
        coeffs = _parse_each(poly, f"{step_path}.poly", errors,
                             lambda c: parse_element(c, field))
        if coeffs is None:
            return None
        try:
            if kind == "unramified":
                field = field.extend_unramified(coeffs)
            else:
                field = field.extend_eisenstein(coeffs)
        except ValueError as exc:
            _err(errors, step_path, str(exc))
            return None
    return field


def _build_subgroup(spec, group, path, errors):
    arr = _as_array(spec, path, errors, min_len=1)
    if arr is None or group is None:
        return None
    elems = []
    for i, e in enumerate(arr):
        n = _as_int(e, f"{path}[{i}]", errors, lo=0, hi=group.order - 1)
        if n is None:
            return None
        elems.append(n)
    try:
        return Subgroup(group, elems)
    except ValueError as exc:
        _err(errors, path, str(exc))
        return None


# -- job validators: each returns a closure that computes the result dict ---------


def _prep_snf(job, path, errors, trace):
    matrix = _as_matrix(job.get("matrix"), f"{path}.matrix", errors)
    if matrix is None:
        return None

    def execute():
        dec = smith_normal_form(matrix)
        return {
            "type": "snf",
            "diagonal": list(dec.diagonal),
            "rank": dec.rank,
            "u": [list(r) for r in dec.U.rows],
            "v": [list(r) for r in dec.V.rows],
        }

    return execute


def _prep_h1(job, path, errors, trace):
    group = _build_group(job.get("group"), f"{path}.group", errors)
    module = _build_module(job.get("module"), group, f"{path}.module", errors)
    degree = _as_int(job.get("degree", 1), f"{path}.degree", errors, lo=0, hi=1)
    sub = None
    if "subgroup" in job:
        sub = _build_subgroup(job["subgroup"], group, f"{path}.subgroup", errors)
        if sub is None:
            return None
    if group is None or module is None or degree is None:
        return None

    def execute():
        coh = h1(group, module) if degree == 1 else h0(group, module)
        order = coh.order
        result = {
            "type": "h1",
            "degree": degree,
            "invariants": list(coh.invariants),
            "order": order,
            "description": describe_invariants(coh.invariants),
        }
        if sub is not None:
            res = restriction_map(sub, module, degree=degree)
            cor = corestriction_map(sub, module, degree=degree)
            result["subgroup"] = {
                "elements": list(sub.elements),
                "index": sub.index,
                "invariants": list(res.target.invariants),
                "restriction": {
                    "zero": res.is_zero(),
                    "injective": res.is_injective(),
                    "surjective": res.is_surjective(),
                },
                "corestriction": {
                    "zero": cor.is_zero(),
                    "injective": cor.is_injective(),
                    "surjective": cor.is_surjective(),
                },
            }
        return result

    return execute


def _prep_ext_check(job, path, errors, trace):
    group = _build_group(job.get("group"), f"{path}.group", errors)
    sub = _build_subgroup(job.get("subgroup"), group, f"{path}.subgroup", errors)
    quotient = _build_module(job.get("quotient_module"), group,
                             f"{path}.quotient_module", errors)
    pushed = _build_module(job.get("sub_module"), group,
                           f"{path}.sub_module", errors)
    target = _build_module(job.get("push_target"), group,
                           f"{path}.push_target", errors)
    matrix = _as_matrix(job.get("push_map"), f"{path}.push_map", errors)
    if None in (group, sub, quotient, pushed, target, matrix):
        return None
    if matrix.ncols != pushed.rank or matrix.nrows != target.rank:
        _err(errors, f"{path}.push_map",
             f"expected a {target.rank} x {pushed.rank} matrix")
        return None
    try:
        push = GModuleMap(restrict_module(pushed, sub),
                          restrict_module(target, sub), matrix)
    except ValueError as exc:
        _err(errors, f"{path}.push_map", str(exc))
        return None

    def execute():
        outcome = lemma52_check(sub, quotient, pushed, target, push)
        result = {
            "type": "ext-check",
            "holds": outcome.holds,
            "index": outcome.index,
            "norm_multiple_equivariant": outcome.norm_multiple_equivariant,
            "generator_count": len(outcome.witnesses),
            "source_invariants": list(outcome.source_invariants),
            "target_invariants": list(outcome.target_invariants),
        }
        if trace:
            result["witnesses"] = [
                {"multiplied_route": None if a is None else list(a),
                 "transfer_route": list(b)}
                for a, b in outcome.witnesses
            ]
        return result

    return execute


def _prep_square_class(job, path, errors, trace):
    field = _build_field(job.get("field"), f"{path}.field", errors)
    elems_spec = _as_array(job.get("elements"), f"{path}.elements", errors, min_len=1)
    if field is None or elems_spec is None:
        return None

    def nonzero(raw):
        value = parse_element(raw, field)
        if value.is_zero():
            raise ExpressionError("zero has no square class")
        return value

    values = _parse_each(elems_spec, f"{path}.elements", errors, nonzero)
    if values is None:
        return None

    def execute():
        basis = square_class_group(field)
        rows = []
        for raw, value in zip(elems_spec, values):
            rows.append({
                "input": str(raw),
                "value": value.as_string(),
                "valuation": valuation(value),
                "square": is_square(value),
                "class": list(square_class(field, value)),
            })
        return {
            "type": "square-class",
            "field": field.describe(),
            "class_group_order": 2 ** len(basis),
            "generators": [b.as_string() for b in basis],
            "elements": rows,
        }

    return execute


def _prep_analyze(job, path, errors, trace):
    surface_spec = _as_object(job.get("surface"), f"{path}.surface", errors)
    if surface_spec is None:
        return None
    base_spec = surface_spec.get("base", "Q")
    is_global = base_spec == "Q"

    if is_global:
        surface = _build_rational_surface(surface_spec, f"{path}.surface", errors)
        ext_spec = _as_object(job.get("extension"), f"{path}.extension", errors)
        if surface is None or ext_spec is None:
            return None
        degree = _as_int(ext_spec.get("degree"), f"{path}.extension.degree",
                         errors, lo=2)
        assert_degenerate = ext_spec.get("assert_degenerate", False)
        if not isinstance(assert_degenerate, bool):
            _err(errors, f"{path}.extension.assert_degenerate", "expected a boolean")
            return None
        completion = None
        if "completion" in ext_spec:
            completion = _build_field(ext_spec["completion"],
                                      f"{path}.extension.completion", errors)
            if completion is None:
                return None
        if degree is None:
            return None
        if assert_degenerate and degree % 2 != 0:
            _err(errors, f"{path}.extension.assert_degenerate",
                 "an odd degree extension cannot absorb a nonsquare")
            return None

        def execute():
            report = analyze_global(surface, degree,
                                    assert_degenerate=assert_degenerate,
                                    completion=completion)
            return _report_dict(report, trace)

        return execute

    base = _build_field(base_spec, f"{path}.surface.base", errors)
    if base is None:
        return None
    surface = _build_local_surface(surface_spec, base, f"{path}.surface", errors)
    extension = _build_field(job.get("extension"), f"{path}.extension", errors)
    if surface is None or extension is None:
        return None
    if not _is_prefix(base, extension):
        _err(errors, f"{path}.extension",
             "must be a tower extension of the surface base field")
        return None

    def execute():
        report = analyze_local(surface, extension)
        return _report_dict(report, trace)

    return execute


def _build_local_surface(spec, base, path, errors):
    d_raw = spec.get("d")
    roots_raw = _as_array(spec.get("roots"), f"{path}.roots", errors, min_len=4)
    if d_raw is None:
        _err(errors, f"{path}.d", "missing")
        return None
    if roots_raw is None:
        return None
    try:
        d = parse_element(d_raw, base)
    except ExpressionError as exc:
        _err(errors, f"{path}.d", str(exc))
        return None
    roots = _parse_each(roots_raw, f"{path}.roots", errors, lambda r: parse_element(r, base))
    if roots is None:
        return None
    try:
        return ChateletSurface(base, d, tuple(roots))
    except ValueError as exc:
        _err(errors, path, str(exc))
        return None


def _rational_from_spec(raw, path, errors):
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            _err(errors, path, "expected a rational like 3 or -5/7")
            return None
    _err(errors, path, "expected a rational like 3 or -5/7")
    return None


def _build_rational_surface(spec, path, errors):
    d = _rational_from_spec(spec.get("d"), f"{path}.d", errors)
    roots_raw = _as_array(spec.get("roots"), f"{path}.roots", errors, min_len=4)
    if d is None or roots_raw is None:
        return None
    roots = []
    for i, raw in enumerate(roots_raw):
        r = _rational_from_spec(raw, f"{path}.roots[{i}]", errors)
        if r is None:
            return None
        roots.append(r)
    try:
        return RationalChateletSurface(d, tuple(roots))
    except ValueError as exc:
        _err(errors, path, str(exc))
        return None


def _report_dict(report, trace):
    data = {"type": "analyze", **report.as_dict()}
    if not trace:
        for key in ("rule_trace", "assumptions", "conventions"):
            del data[key]
    return data


_JOB_TYPES = {
    "snf": _prep_snf,
    "h1": _prep_h1,
    "ext-check": _prep_ext_check,
    "square-class": _prep_square_class,
    "analyze": _prep_analyze,
}


def run(document, trace: bool = False):
    """Validate and execute a job document.

    Returns (results, errors): exactly one of the two is None.  `errors` is a
    list of "path: message" strings suitable for stderr.
    """
    errors: list = []
    doc = _as_object(document, "document", errors)
    if doc is None:
        return None, errors
    version = doc.get("version")
    if version != 1:
        _err(errors, "document.version", "expected 1")
    jobs = _as_array(doc.get("jobs"), "document.jobs", errors, min_len=1)
    if errors:
        return None, errors

    thunks = []
    for i, job in enumerate(jobs):
        path = f"jobs[{i}]"
        obj = _as_object(job, path, errors)
        if obj is None:
            continue
        jtype = obj.get("type")
        # an array or object is unhashable, so test the type before membership
        if not isinstance(jtype, str) or jtype not in _JOB_TYPES:
            _err(errors, f"{path}.type",
                 "expected one of " + ", ".join(sorted(_JOB_TYPES)))
            continue
        thunks.append(_JOB_TYPES[jtype](obj, path, errors, trace))

    if errors:
        return None, errors
    return [thunk() for thunk in thunks], None


# the text json.dumps gives each scalar type; strings go through the same
# encoder it uses
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _to_json(value, indent: str = "") -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True), nested at indent.

    With an indent, json.dumps encodes in pure Python one element at a time,
    and a Smith transform is hundreds of integers; here a list of integers
    is joined in one step.  Strings, integers, booleans, None, nonempty
    lists and string-keyed dicts are written here; every other value is
    left to json.dumps, so the bytes are the same.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if type(value) is list and value:
        brackets = "[]"
        if all(type(x) is int for x in value):
            items = map(int.__repr__, value)
        else:
            items = [_to_json(x, inner) for x in value]
    elif type(value) is dict and value and all(type(k) is str for k in value):
        brackets = "{}"
        items = [encode_basestring_ascii(k) + ": " + _to_json(v, inner)
                 for k, v in sorted(value.items())]
    else:
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _render_text(results) -> str:
    lines = []
    for i, r in enumerate(results):
        head = f"[{i}] {r['type']}"
        if r["type"] == "snf":
            lines.append(f"{head}: diagonal={r['diagonal']} rank={r['rank']}")
        elif r["type"] == "h1":
            lines.append(f"{head}: degree={r['degree']} "
                         f"group={r['description']} order={r['order']}")
            if "subgroup" in r:
                s = r["subgroup"]
                for name in ("restriction", "corestriction"):
                    flags = ", ".join(k for k, v in sorted(s[name].items()) if v) or "none"
                    lines.append(f"    {name} (index {s['index']}): {flags}")
        elif r["type"] == "ext-check":
            lines.append(f"{head}: holds={r['holds']} index={r['index']} "
                         f"generators={r['generator_count']}")
        elif r["type"] == "square-class":
            lines.append(f"{head}: field={r['field']} "
                         f"order={r['class_group_order']}")
            for e in r["elements"]:
                lines.append(f"    {e['input']}: square={e['square']} "
                             f"valuation={e['valuation']} class={e['class']}")
        else:
            lines.append(f"{head}: base={r['base']} degree={r['degree']} "
                         f"degenerate={r['degenerate']}")
            for key in sorted(r["verdicts"]):
                lines.append(f"    {key}: {r['verdicts'][key]}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chatelet",
        description="exact invariants of group modules, p-adic fields, and "
                    "conic bundle surfaces",
        epilog="exit codes: 0 ok, 2 invalid input, 4 internal error or "
               "output that cannot be encoded (3 is reserved and never "
               "raised: arithmetic is exact)")
    parser.add_argument("input", help="path to a JSON job document, or - for stdin")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--precision", type=int, default=None,
                        help="accepted for interface compatibility; has no "
                             "effect because all arithmetic is exact")
    parser.add_argument("--seed", type=int, default=None,
                        help="reserved; no job type uses randomness")
    parser.add_argument("--trace", action="store_true",
                        help="include rule traces and witness detail")
    return parser


# built once: parsing leaves the parser unchanged, and building it costs more
# than a small job
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"document: cannot read input ({exc})", file=sys.stderr)
        return 2

    # an integer literal past the int-to-str digit limit raises a plain
    # ValueError, the parent class of JSONDecodeError, and nesting past the
    # interpreter's recursion limit raises RecursionError
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        print(f"document: invalid JSON ({exc})", file=sys.stderr)
        return 2

    # encoding stays inside the guard: a result that cannot be written out
    # is an internal error, and nothing reaches stdout
    try:
        results, errors = run(document, trace=args.trace)
        if errors is None:
            if args.format == "json":
                payload = {"version": 1, "results": results}
                output = _to_json(payload) + "\n"
            else:
                output = _render_text(results)
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4

    if errors is not None:
        for line in errors:
            print(line, file=sys.stderr)
        return 2

    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
