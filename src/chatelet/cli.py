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
from functools import lru_cache, partial
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

# largest order of a group given by its multiplication table.  H^1 of the
# regular module costs about the cube of the order: over the XOR tables of
# order 128 and 256, a document with that job and an index-two subgroup
# took 3.6 s and 22.7 s, and one without it 1.9 s and 10.2 s, on a shared
# 2-core machine
MAX_TABLE_ORDER = 128

# deepest nesting of parentheses and unary signs an expression may have;
# the parser recurses at most four frames per level, so this stays far
# below the interpreter's recursion limit
MAX_NESTING = 100

# largest rank of a trivial or explicit module
MAX_MODULE_RANK = 12

# the group kinds built from a size n, each with the largest n it admits
_SIZED_GROUPS = {"cyclic": (cyclic_group, 64), "dihedral": (dihedral_group, 16),
                 "symmetric": (symmetric_group, 4)}


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


@lru_cache(maxsize=CACHE_SIZE)
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


def _check_group(spec, path, errors):
    obj = _as_object(spec, path, errors)
    if obj is None:
        return None
    kind = _as_str(obj.get("kind"), f"{path}.kind", errors,
                   choices={*_SIZED_GROUPS, "quaternion", "table"})
    if kind is None:
        return None
    if kind in _SIZED_GROUPS:
        make, largest = _SIZED_GROUPS[kind]
        n = _as_int(obj.get("n"), f"{path}.n", errors, lo=1, hi=largest)
        return None if n is None else make(n)
    if kind == "quaternion":
        return quaternion_group()
    table = obj.get("table")
    rows = _as_array(table, f"{path}.table", errors, min_len=1)
    if rows is None:
        return None
    if len(rows) > MAX_TABLE_ORDER:
        _err(errors, f"{path}.table", f"group order must be at most {MAX_TABLE_ORDER}")
        return None
    try:
        return FiniteGroup(rows)
    except (ValueError, TypeError) as exc:
        _err(errors, f"{path}.table", str(exc))
        return None


def _check_module(spec, group, path, errors):
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
                   errors, lo=1, hi=MAX_MODULE_RANK)
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


def _check_subgroup(spec, group, path, errors):
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


# json.dumps(spec, sort_keys=True) without building an encoder per call: the
# same text.  It keeps no record of the containers it is inside: a document
# read by json.loads cannot hold itself, and a Python spec that does, like
# one nested too deep, raises RecursionError and is only checked (`_build`)
_spec_text = json.JSONEncoder(sort_keys=True, check_circular=False).encode


class _Refused(Exception):
    """A spec that failed its check, with the errors relative to its path."""


@lru_cache(maxsize=CACHE_SIZE)
def _resolve(check, text, *over):
    """check on the spec read back from its JSON text, at the empty path.
    A failed check raises, so nothing is kept for it."""
    errors: list = []
    value = check(json.loads(text), *over, "", errors)
    if value is None:
        raise _Refused(errors)
    return value


def _build(check, spec, path, errors, *over):
    """check(spec, *over, path, errors), resolved once per JSON text of spec
    (key order does not matter) and objects it is built over.  A check may
    build the specs it holds with _build in turn, so those are resolved only
    when the outer spec is not yet known.

    A spec that fails reports the same errors at each path.  A spec that
    cannot be written as JSON text, or read back from it, is only checked."""
    try:
        return _resolve(check, _spec_text(spec), *over)
    except _Refused as exc:
        errors.extend(path + e for e in exc.args[0])
        return None
    except (TypeError, ValueError, RecursionError):
        return check(spec, *over, path, errors)


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
    group = _build(_check_group, job.get("group"), f"{path}.group", errors)
    module = _build(_check_module, job.get("module"), f"{path}.module", errors, group)
    degree = _as_int(job.get("degree", 1), f"{path}.degree", errors, lo=0, hi=1)
    sub = None
    if "subgroup" in job:
        sub = _build(_check_subgroup, job["subgroup"], f"{path}.subgroup", errors, group)
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
            maps = {"restriction": restriction_map(sub, module, degree=degree),
                    "corestriction": corestriction_map(sub, module, degree=degree)}
            result["subgroup"] = {
                "elements": list(sub.elements),
                "index": sub.index,
                "invariants": list(maps["restriction"].target.invariants),
            }
            for name, m in maps.items():
                result["subgroup"][name] = {"zero": m.is_zero(), "injective": m.is_injective(),
                                            "surjective": m.is_surjective()}
        return result

    return execute


def _prep_ext_check(job, path, errors, trace):
    group = _build(_check_group, job.get("group"), f"{path}.group", errors)
    sub = _build(_check_subgroup, job.get("subgroup"), f"{path}.subgroup", errors, group)
    quotient, pushed, target = (
        _build(_check_module, job.get(key), f"{path}.{key}", errors, group)
        for key in ("quotient_module", "sub_module", "push_target"))
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
    field = _build(_check_field, job.get("field"), f"{path}.field", errors)
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
    known = len(errors)
    surface = _build(_check_surface, surface_spec, f"{path}.surface", errors)

    if surface_spec.get("base", "Q") == "Q":
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
            completion = _build(_check_field, ext_spec["completion"],
                                f"{path}.extension.completion", errors)
            if completion is None:
                return None
        if degree is None:
            return None
        if assert_degenerate and degree % 2 != 0:
            _err(errors, f"{path}.extension.assert_degenerate",
                 "an odd degree extension cannot absorb a nonsquare")
            return None
        analyze = partial(analyze_global, surface, degree,
                          assert_degenerate=assert_degenerate, completion=completion)
    else:
        # a bad base is reported alone: the extension is not read
        if surface is None and errors[known].startswith(f"{path}.surface.base"):
            return None
        extension = _build(_check_field, job.get("extension"), f"{path}.extension", errors)
        if surface is None or extension is None:
            return None
        if not _is_prefix(surface.base, extension):
            _err(errors, f"{path}.extension",
                 "must be a tower extension of the surface base field")
            return None
        analyze = partial(analyze_local, surface, extension)
    return lambda: _report_dict(analyze(), trace)


def _rational(raw):
    """A rational from an integer, or from a string like 3 or -5/7."""
    if isinstance(raw, (int, str)) and not isinstance(raw, bool):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            pass
    raise ExpressionError("expected a rational like 3 or -5/7")


def _check_surface(spec, path, errors):
    """The surface of spec over its base: the local field of spec["base"],
    or Q when that is "Q" or absent.  d and each root are read as elements of
    the base, or as rationals.  The base is built from its own spec, so a
    surface spec resolved once needs no base lookup again."""
    base_spec = spec.get("base", "Q")
    if base_spec == "Q":
        parse, make = _rational, RationalChateletSurface
    else:
        base = _build(_check_field, base_spec, f"{path}.base", errors)
        if base is None:
            return None
        parse, make = partial(parse_element, field=base), partial(ChateletSurface, base)
    d_raw = spec.get("d")
    roots_raw = _as_array(spec.get("roots"), f"{path}.roots", errors, min_len=4)
    if d_raw is None:
        _err(errors, f"{path}.d", "missing")
        return None
    try:
        d = parse(d_raw)
    except ExpressionError as exc:
        _err(errors, f"{path}.d", str(exc))
        return None
    if roots_raw is None:
        return None
    roots = _parse_each(roots_raw, f"{path}.roots", errors, parse)
    if roots is None:
        return None
    try:
        return make(d, tuple(roots))
    except ValueError as exc:
        _err(errors, path, str(exc))
        return None


def _report_dict(report, trace):
    """The result of an analyze job: the report's own dict with its type,
    keeping the rule trace, assumptions and conventions only under --trace."""
    data = report.as_dict()
    data["type"] = "analyze"
    if not trace:
        del data["rule_trace"], data["assumptions"], data["conventions"]
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


def _to_json(value) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True).

    With an indent, json.dumps encodes in pure Python one element at a time,
    and a Smith transform is hundreds of integers.  Here the text goes into
    one list of pieces joined once: a list of integers is joined in one
    step, and a string, integer or boolean value of a dict is written in
    place, not by a call of its own.  A dict is written through the layout
    of its keys (`_layout`), so a batch of results of the same shapes sorts
    and encodes each shape's keys once.  Strings, integers, booleans, None,
    nonempty lists and string-keyed dicts are written here; every other
    value is left to json.dumps, so the bytes are the same.
    """
    out: list = []
    _write_json(value, "", out)
    return "".join(out)


@lru_cache(maxsize=CACHE_SIZE)
def _layout(keys: tuple, indent: str):
    """The text around the values of a dict with these keys written at
    indent: (key, text before its value) in sorted key order, and the
    closing text.  None when a key is not a string."""
    if not all(type(k) is str for k in keys):
        return None
    inner = indent + "  "
    before = ["{\n" + inner] + [",\n" + inner] * (len(keys) - 1)
    return ([(k, b + encode_basestring_ascii(k) + ": ") for b, k in zip(before, sorted(keys))],
            f"\n{indent}}}")


def _write_json(value, indent: str, out: list) -> None:
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
        return
    inner = indent + "  "
    if type(value) is list and value:
        first, sep = "\n" + inner, ",\n" + inner
        if all(type(x) is int for x in value):
            out += "[", first, sep.join(map(int.__repr__, value)), f"\n{indent}]"
            return
        out.append("[")
        for x in value:
            out.append(first)
            first = sep
            _write_json(x, inner, out)
        out.append(f"\n{indent}]")
        return
    layout = _layout(tuple(value), indent) if type(value) is dict and value else None
    if layout is None:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))
        return
    pairs, close = layout
    for k, before in pairs:
        out.append(before)
        v = value[k]
        t = type(v)
        if t is str:
            out.append(encode_basestring_ascii(v))
        elif t is int:
            out.append(int.__repr__(v))
        elif t is bool:
            out.append("true" if v else "false")
        else:
            _write_json(v, inner, out)
    out.append(close)


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
                        help="include rule traces and witness detail in JSON "
                             "output; text output is the same with or without it")
    return parser


# built once: parsing leaves the parser unchanged, and building it costs more
# than a small job
_PARSER = _build_parser()

# the parsed arguments of each distinct argument list: a batch sends every
# document with the same list, and parsing it costs about a tenth of a small
# job.  A parse that exits is not kept, so its message repeats on every call
_parse_args = lru_cache(maxsize=CACHE_SIZE)(_PARSER.parse_args)


def main(argv=None) -> int:
    args = _parse_args(tuple(sys.argv[1:] if argv is None else argv))

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
