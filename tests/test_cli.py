"""Tests for the command line driver: job validation, execution, output."""

import hashlib
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatelet import cli
from chatelet.cli import ExpressionError, main, parse_element, run
from chatelet.intmat import IntMatrix
from chatelet.modules import CACHE_SIZE
from chatelet.padic import LocalField


def doc(*jobs):
    return {"version": 1, "jobs": list(jobs)}


# -- element expressions ---------------------------------------------------------


def test_expression_arithmetic():
    q5 = LocalField.qp(5)
    assert parse_element("2 + 3 * 4", q5) == q5.integer(14)
    assert parse_element("(2 + 3) * 4", q5) == q5.integer(20)
    assert parse_element("-2^2", q5) == q5.integer(-4)
    assert parse_element("2^3", q5) == q5.integer(8)
    assert parse_element("7 - 10", q5) == q5.integer(-3)
    assert parse_element("3/4", q5) == q5.integer(3) / q5.integer(4)
    assert parse_element("2 × 3", q5) == q5.integer(6)
    assert parse_element("5^-1 * 5", q5) == q5.one()
    assert parse_element(42, q5) == q5.integer(42)
    assert parse_element("3 ", q5) == q5.integer(3)


def test_expression_generators():
    field = LocalField.qp(5).extend_eisenstein([-5, 0])
    pi = field.gen(0)
    assert parse_element("t1", field) == pi
    assert parse_element("t1^2", field) == field.integer(5)
    assert parse_element("1 + 2*t1", field) == field.one() + field.integer(2) * pi


def test_expression_rejects():
    q5 = LocalField.qp(5)
    for bad in ("", "2 +", "1/0", "0^-1", "2 3", "(1", "t1", "t9", "2t1",
                "x + 1", "^2", "2^t1"):
        with pytest.raises(ExpressionError):
            parse_element(bad, q5)
    with pytest.raises(ExpressionError):
        parse_element(True, q5)
    with pytest.raises(ExpressionError):
        parse_element([1], q5)


def test_expression_size_bound():
    q5 = LocalField.qp(5)
    field = q5.extend_eisenstein([-5, 0])
    assert parse_element("2^64", q5) == q5.integer(2 ** 64)
    assert parse_element("t1^-1", field) == field.gen(0).inverse()
    # 2^5000 has 5,001 bits; three of them multiplied exceed the bound
    assert parse_element("2^5000", q5) == q5.integer(2 ** 5000)
    assert parse_element("0" * 3400 + "7", q5) == q5.integer(7)
    # each sum, difference, product and quotient is bounded as well; in the
    # last three refusals below every operand and the final value fit
    big = "2^5000 * 2^4999"     # 10,000 bits
    assert parse_element("2^5000 * 2^4998 + 2^5000 * 2^4998", q5) == q5.integer(2 ** 9999)
    for bad in ("2^5000 * 2^5000 * 2^5000", "2^10000", "1" + "0" * 3400,
                "t" + "1" * 3400, 10 ** 4000, f"{big} + {big} - {big}",
                "2^5000 * 2^5000 / 2^5000", "(3^5000/5^3000) * (3^5000/5^3000) / (3^5000/5^3000)"):
        with pytest.raises(ExpressionError, match="exceeds 10000 bits"):
            parse_element(bad, q5)


# -- job execution ---------------------------------------------------------------


def test_snf_job_reconstructs():
    matrix = [[6, 4, 2], [4, 8, 0]]
    results, errors = run(doc({"type": "snf", "matrix": matrix}))
    assert errors is None
    (r,) = results
    assert r["diagonal"] == [2, 4]
    assert r["rank"] == 2
    u = IntMatrix(r["u"])
    v = IntMatrix(r["v"])
    s = u @ IntMatrix(matrix) @ v
    for i in range(s.nrows):
        for j in range(s.ncols):
            expect = r["diagonal"][i] if i == j and i < len(r["diagonal"]) else 0
            assert s.rows[i][j] == expect


def test_h1_job_with_subgroup():
    job = {
        "type": "h1",
        "group": {"kind": "cyclic", "n": 6},
        "module": {"kind": "trivial", "relations": [[2]]},
        "subgroup": [0, 3],
    }
    results, errors = run(doc(job))
    assert errors is None
    (r,) = results
    # Hom(C6, Z/2) = Z/2, and the index-3 restriction hits Hom(C2, Z/2)
    assert r["invariants"] == [2]
    assert r["description"] == "Z/2"
    sub = r["subgroup"]
    assert sub["index"] == 3
    assert sub["restriction"]["injective"]
    assert sub["restriction"]["surjective"]
    # corestriction back is multiplication by an odd index on exponent 2
    assert sub["corestriction"]["injective"]


def test_h1_degree_zero():
    job = {
        "type": "h1",
        "group": {"kind": "symmetric", "n": 3},
        "module": {"kind": "regular"},
        "degree": 0,
    }
    results, errors = run(doc(job))
    assert errors is None
    # fixed points of the regular representation form one copy of Z
    assert results[0]["invariants"] == [0]
    assert results[0]["order"] is None


def test_h1_explicit_module():
    flip = [[0, 1], [1, 0]]
    job = {
        "type": "h1",
        "group": {"kind": "cyclic", "n": 2},
        "module": {"kind": "explicit", "rank": 2,
                   "action": [[[1, 0], [0, 1]], flip]},
    }
    results, errors = run(doc(job))
    assert errors is None
    assert results[0]["invariants"] == []


def test_h1_picard_module():
    job = {
        "type": "h1",
        "group": {"kind": "cyclic", "n": 2},
        "module": {"kind": "picard"},
    }
    results, errors = run(doc(job))
    assert errors is None
    assert results[0]["invariants"] == [2, 2]


def test_ext_check_job():
    job = {
        "type": "ext-check",
        "group": {"kind": "cyclic", "n": 4},
        "subgroup": [0, 2],
        "quotient_module": {"kind": "trivial"},
        "sub_module": {"kind": "trivial", "relations": [[2]]},
        "push_target": {"kind": "trivial", "relations": [[2]]},
        "push_map": [[1]],
    }
    results, errors = run(doc(job))
    assert errors is None
    (r,) = results
    assert r["holds"] is True
    assert r["index"] == 2
    assert r["norm_multiple_equivariant"] is True
    assert "witnesses" not in r

    results, errors = run(doc(job), trace=True)
    assert errors is None
    wit = results[0]["witnesses"]
    assert len(wit) == results[0]["generator_count"]
    for entry in wit:
        assert set(entry) == {"multiplied_route", "transfer_route"}


def test_square_class_job():
    job = {
        "type": "square-class",
        "field": {"p": 2, "steps": []},
        "elements": ["17", "5", "2", "-7"],
    }
    results, errors = run(doc(job))
    assert errors is None
    (r,) = results
    assert r["class_group_order"] == 8
    by_input = {e["input"]: e for e in r["elements"]}
    assert by_input["17"]["square"] is True
    assert by_input["17"]["class"] == [0, 0, 0]
    assert by_input["5"]["square"] is False
    assert by_input["-7"]["square"] is True
    assert by_input["2"]["valuation"] == 1
    assert len(r["generators"]) == 3


def test_square_class_in_extension():
    job = {
        "type": "square-class",
        "field": {"p": 5, "steps": [{"kind": "eisenstein", "poly": [-5, 0]}]},
        "elements": ["t1^2 / 5", "t1"],
    }
    results, errors = run(doc(job))
    assert errors is None
    elems = results[0]["elements"]
    assert elems[0]["square"] is True
    assert elems[1]["square"] is False
    assert elems[1]["valuation"] == 1


def test_analyze_local_job():
    job = {
        "type": "analyze",
        "surface": {"base": {"p": 5, "steps": []},
                    "d": "2", "roots": ["1", "2", "3", "4"]},
        "extension": {"p": 5, "steps": [{"kind": "eisenstein", "poly": [-5, 0]}]},
    }
    results, errors = run(doc(job))
    assert errors is None
    (r,) = results
    assert r["degenerate"] is False
    assert r["brauer_invariants"] == [2, 2]
    assert r["verdicts"]["h1_restriction"] == "BIJECTIVE"
    assert r["verdicts"]["chow_corestriction"] == "BIJECTIVE"
    assert "rule_trace" not in r

    results, errors = run(doc(job), trace=True)
    assert "rule_trace" in results[0]
    assert "conventions" in results[0]


def test_analyze_global_job():
    job = {
        "type": "analyze",
        "surface": {"base": "Q", "d": 2, "roots": [1, 2, 3, 4]},
        "extension": {"degree": 3},
    }
    results, errors = run(doc(job))
    assert errors is None
    (r,) = results
    assert r["base"] == "Q"
    assert r["degenerate"] is False
    assert r["verdicts"]["chow_restriction"] == "INJECTIVE"

    job["extension"] = {"degree": 2,
                        "completion": {"p": 5, "steps": []}}
    results, errors = run(doc(job))
    assert errors is None
    assert results[0]["degenerate"] is False

    job["surface"]["d"] = "12/3"  # a square: not a valid surface
    results, errors = run(doc(job))
    assert errors is not None


def test_analyze_global_asserted_degeneracy():
    job = {
        "type": "analyze",
        "surface": {"base": "Q", "d": 5, "roots": [1, 2, 3, 4]},
        "extension": {"degree": 4, "assert_degenerate": True},
    }
    results, errors = run(doc(job), trace=True)
    assert errors is None
    (r,) = results
    assert r["degenerate"] is True
    assert r["verdicts"]["h1_restriction"] == "ZERO"
    assert r["assumptions"]

    job["extension"] = {"degree": 3, "assert_degenerate": True}
    results, errors = run(doc(job))
    assert errors is not None


# -- validation diagnostics ------------------------------------------------------


def test_all_errors_reported_with_paths():
    document = {
        "version": 1,
        "jobs": [
            {"type": "snf", "matrix": [[1, 2], [3]]},
            {"type": "nope"},
            {"type": "h1", "group": {"kind": "cyclic", "n": 0},
             "module": {"kind": "trivial"}},
            {"type": "square-class", "field": {"p": 4, "steps": []},
             "elements": ["1"]},
        ],
    }
    results, errors = run(document)
    assert results is None
    assert len(errors) >= 4
    assert any(e.startswith("jobs[0].matrix[1]") for e in errors)
    assert any(e.startswith("jobs[1].type") for e in errors)
    assert any(e.startswith("jobs[2].group.n") for e in errors)
    assert any(e.startswith("jobs[3].field.p") for e in errors)


def test_version_and_jobs_required():
    results, errors = run({"version": 2, "jobs": []})
    assert results is None
    assert any("document.version" in e for e in errors)
    assert any("document.jobs" in e for e in errors)
    results, errors = run([1, 2])
    assert results is None


def test_explicit_module_must_be_equivariant_everywhere():
    # relations not preserved by the action
    job = {
        "type": "h1",
        "group": {"kind": "cyclic", "n": 2},
        "module": {"kind": "explicit", "rank": 2, "relations": [[2, 0]],
                   "action": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
    }
    results, errors = run(doc(job))
    assert results is None
    assert any("jobs[0].module" in e for e in errors)


def test_explicit_module_wrong_action_count():
    job = {
        "type": "h1",
        "group": {"kind": "cyclic", "n": 3},
        "module": {"kind": "explicit", "rank": 1, "action": [[[1]]]},
    }
    results, errors = run(doc(job))
    assert results is None
    assert any("one matrix per group element" in e for e in errors)


def test_picard_module_needs_order_two_group():
    job = {
        "type": "h1",
        "group": {"kind": "cyclic", "n": 4},
        "module": {"kind": "picard"},
    }
    results, errors = run(doc(job))
    assert results is None
    assert any("two-element group" in e for e in errors)


def test_subgroup_must_be_closed():
    job = {
        "type": "h1",
        "group": {"kind": "cyclic", "n": 6},
        "module": {"kind": "trivial"},
        "subgroup": [0, 1],
    }
    results, errors = run(doc(job))
    assert results is None
    assert any("jobs[0].subgroup" in e for e in errors)


def test_push_map_must_be_equivariant():
    # C2 acting by sign on the sub module but trivially on the target:
    # the identity matrix does not commute with the action
    job = {
        "type": "ext-check",
        "group": {"kind": "cyclic", "n": 2},
        "subgroup": [0, 1],
        "quotient_module": {"kind": "trivial"},
        "sub_module": {"kind": "explicit", "rank": 1,
                       "action": [[[1]], [[-1]]]},
        "push_target": {"kind": "trivial"},
        "push_map": [[1]],
    }
    results, errors = run(doc(job))
    assert results is None
    assert any("jobs[0].push_map" in e for e in errors)


def test_square_class_rejects_zero():
    job = {
        "type": "square-class",
        "field": {"p": 3, "steps": []},
        "elements": ["1 - 1"],
    }
    results, errors = run(doc(job))
    assert results is None
    assert any("zero has no square class" in e for e in errors)


def test_analyze_extension_must_extend_base():
    job = {
        "type": "analyze",
        "surface": {"base": {"p": 5, "steps": []},
                    "d": "2", "roots": ["1", "2", "3", "4"]},
        "extension": {"p": 3, "steps": []},
    }
    results, errors = run(doc(job))
    assert results is None
    assert any("tower extension" in e for e in errors)


def test_field_spec_errors_have_paths():
    job = {
        "type": "square-class",
        "field": {"p": 5, "steps": [{"kind": "eisenstein", "poly": [-25, 0]}]},
        "elements": ["1"],
    }
    results, errors = run(doc(job))
    assert results is None
    assert any("jobs[0].field.steps[0]" in e for e in errors)

    job["field"] = {"p": 5, "steps": [{"kind": "unramified", "poly": ["t3", 0]}]}
    results, errors = run(doc(job))
    assert results is None
    assert any("jobs[0].field.steps[0].poly[0]" in e for e in errors)


# -- the field and element caches ------------------------------------------------


def test_cli_caches_are_bounded(monkeypatch, capsys):
    errors = []

    def field_spec(k):
        return {"p": 3, "steps": [{"kind": "eisenstein", "poly": [3 * (3 * k + 1), 0]}]}

    def send(k):
        assert _run_stdin(monkeypatch, doc({"type": "snf", "matrix": [[k]]}), "--seed", str(k)) == 0

    for k in range(CACHE_SIZE + 12):
        assert cli._build(cli._check_field, field_spec(k), "field", errors) is not None
        parse_element(str(k), LocalField.qp(3))
        send(k)
    assert errors == []
    assert capsys.readouterr().out.count('"version": 1') == CACHE_SIZE + 12
    newest = CACHE_SIZE + 11
    for cache, repeat in [
            (cli._resolve, lambda: cli._build(cli._check_field, field_spec(newest), "field", errors)),
            (cli._evaluate, lambda: parse_element(str(newest), LocalField.qp(3))),
            (cli._parse_args, lambda: send(newest))]:
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE
        repeat()
        assert cache.cache_info().hits == info.hits + 1
        assert cache.cache_info().misses == info.misses


def test_a_repeated_bad_field_spec_is_reported_at_each_path():
    bad = {"p": 5, "steps": [{"kind": "eisenstein", "poly": [-25, 0]}]}
    job = {"type": "square-class", "field": bad, "elements": ["1"]}
    results, errors = run(doc(job, job))
    assert results is None
    assert errors == [f"jobs[{i}].field.steps[0]: Eisenstein constant term must have "
                      "valuation one" for i in range(2)]


def test_a_built_prime_does_not_admit_a_bad_step(monkeypatch, capsys):
    good = {"type": "square-class", "field": {"p": 5}, "elements": ["2"]}
    bad = {"type": "square-class", "elements": ["2"],
           "field": {"p": 5, "steps": [{"kind": "unramified", "poly": [-1, 0]}]}}
    assert _run_stdin(monkeypatch, doc(good, bad)) == 2
    assert capsys.readouterr().err == ("jobs[1].field.steps[0]: polynomial is not "
                                       "irreducible over the residue field\n")


def test_a_boolean_element_after_the_same_integer_is_refused(monkeypatch, capsys):
    job = {"type": "square-class", "field": {"p": 5}, "elements": [1, True]}
    assert _run_stdin(monkeypatch, doc(job)) == 2
    assert capsys.readouterr().err == ("jobs[0].elements[1]: element must be a string "
                                       "expression or an integer\n")


def test_an_absent_step_list_is_the_empty_one():
    errors = []
    bare = cli._build(cli._check_field, {"p": 2}, "field", errors)
    assert bare == cli._build(cli._check_field, {"p": 2, "steps": []}, "field",
                              errors) == LocalField.qp(2)
    assert errors == []


def test_group_module_and_subgroup_caches_are_bounded():
    errors = []
    group = cli._build(cli._check_group, {"kind": "cyclic", "n": 64}, "group", errors)
    for k in range(CACHE_SIZE + 12):
        assert cli._build(cli._check_group, {"kind": "cyclic", "n": 4, "note": k}, "group",
                          errors)
        assert cli._build(cli._check_module, {"kind": "trivial", "note": k}, "module", errors,
                          group)
        assert cli._build(cli._check_subgroup, [0] * (k + 1) + [32], "subgroup", errors, group)
    assert errors == []
    info = cli._resolve.cache_info()
    assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE


def test_a_repeated_spec_is_resolved_once_whatever_its_key_order():
    errors = []
    build = cli._build
    group = build(cli._check_group, {"kind": "dihedral", "n": 4}, "group", errors)
    assert build(cli._check_group, {"n": 4, "kind": "dihedral"}, "group", errors) is group
    module = build(cli._check_module, {"kind": "trivial", "rank": 2,
                                       "relations": [[2, 0], [0, 4]]}, "module", errors, group)
    assert build(cli._check_module, {"relations": [[2, 0], [0, 4]], "rank": 2,
                                     "kind": "trivial"}, "module", errors, group) is module
    sub = build(cli._check_subgroup, [0, 4], "subgroup", errors, group)
    assert build(cli._check_subgroup, [0, 4], "subgroup", errors, group) is sub
    assert errors == []
    # the same spec over another group is another module and subgroup
    other = build(cli._check_group, {"kind": "cyclic", "n": 8}, "group", errors)
    assert build(cli._check_module, {"kind": "trivial", "rank": 2,
                                     "relations": [[2, 0], [0, 4]]}, "module", errors,
                 other).group is other
    assert build(cli._check_subgroup, [0, 4], "subgroup", errors, other).parent is other


def test_a_tuple_in_a_spec_is_read_as_its_array():
    # run takes Python objects; a spec is read back from its JSON text
    steps = ({"kind": "eisenstein", "poly": (-5, 0)},)
    job = {"type": "square-class", "field": {"p": 5, "steps": steps}, "elements": ["t1"]}
    results, errors = run(doc(job))
    assert errors is None
    assert results == run(doc({**job, "field": json.loads(json.dumps(job["field"]))}))[0]


def _library_caches():
    """Every lru_cache that a module or class of the library binds, by the
    qualified name of the function it wraps, or by where it is bound when
    that function lies outside the library."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name != "chatelet" and not name.startswith("chatelet."):
            continue
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == name]
        for owner in owners:
            for attr, value in vars(owner).items():
                value = getattr(value, "__func__", value)
                if hasattr(value, "cache_info"):
                    found[value] = (f"{value.__module__}.{value.__qualname__}"
                                    if value.__module__.startswith("chatelet.")
                                    else f"{name}.{attr}")
    return {label: cache for cache, label in found.items()}


@pytest.mark.parametrize("workload", ["local-verdicts", "group-cohomology", "snf-dense"])
def test_a_benchmark_pass_evicts_nothing(workload, monkeypatch, capsys):
    caches = _library_caches()
    assert set(caches) == {
        "chatelet.cli._evaluate", "chatelet.cli._layout", "chatelet.cli._parse_args",
        "chatelet.cli._resolve", "chatelet.cohomology.h0", "chatelet.cohomology.h1",
        "chatelet.modules.hom_module", "chatelet.modules.restrict_module",
        "chatelet.padic._class_vector", "chatelet.padic._restriction_images",
        "chatelet.padic.LocalField.make", "chatelet.surfaces._descent_verdicts"}
    for cache in caches.values():
        cache.cache_clear()
    path = Path(__file__).parents[1] / "perfbench" / "docs" / f"{workload}.jsonl"
    for line in path.read_text().splitlines():
        _run_stdin(monkeypatch, json.loads(line)["doc"])
        capsys.readouterr()
    for label, cache in caches.items():
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE, label
        assert info.misses == info.currsize, (label, info)
    assert caches["chatelet.cli._parse_args"].cache_info().currsize == 1


@pytest.mark.parametrize("job, message", [
    ({"type": "h1", "group": {"kind": "cyclic", "n": 65}, "module": {"kind": "trivial"}},
     "group.n: must be at most 64"),
    ({"type": "h1", "group": {"kind": "cyclic", "n": 4}, "module": {"kind": "picard"}},
     "module: the picard module lives over the two-element group"),
    ({"type": "h1", "group": {"kind": "cyclic", "n": 4}, "module": {"kind": "regular"},
      "subgroup": [0, 1]},
     "subgroup: subgroup not closed under inverse"),
    ({"type": "h1", "group": {"kind": "cyclic", "n": 2},
      "module": {"kind": "explicit", "rank": 1, "action": [[[1]], [[1, 0]]]}},
     "module.action[1]: matrix must be square"),
    ({"type": "h1", "group": {"kind": "cyclic", "n": 2},
      "module": {"kind": "trivial", "rank": 2, "relations": [[2]]}},
     "module.relations: relation length must equal rank"),
    ({"type": "h1", "group": {"kind": "cyclic", "n": 2},
      "module": {"kind": "explicit", "rank": 2, "action": [[[1]], [[1]]]}},
     "module.action[0]: matrix size must equal rank"),
    ({"type": "h1", "group": {"kind": "table", "table": 5}, "module": {"kind": "trivial"}},
     "group.table: expected an array"),
    ({"type": "ext-check", "group": {"kind": "cyclic", "n": 2}, "subgroup": [0],
      "quotient_module": {"kind": "trivial"}, "sub_module": {"kind": "trivial"},
      "push_target": {"kind": "trivial"}, "push_map": [[1, 0]]},
     "push_map: expected a 1 x 1 matrix"),
])
def test_a_repeated_bad_group_module_or_subgroup_is_reported_at_each_path(job, message):
    results, errors = run(doc(job, {"type": "snf", "matrix": [[1]]}, job))
    assert results is None
    assert errors == [f"jobs[{i}].{message}" for i in (0, 2)]


@pytest.mark.parametrize("kind, largest", [("cyclic", 64), ("dihedral", 16), ("symmetric", 4)])
def test_a_sized_group_is_refused_outside_its_range(kind, largest):
    for n, message in ((0, "must be at least 1"), (largest + 1, f"must be at most {largest}")):
        job = {"type": "h1", "group": {"kind": kind, "n": n}, "module": {"kind": "trivial"}}
        assert run(doc(job)) == (None, [f"jobs[0].group.n: {message}"])


LOCAL_SURFACE = {"base": {"p": 5}, "d": "2", "roots": ["1", "2", "3", "4"]}
GLOBAL_SURFACE = {"base": "Q", "d": 2, "roots": [1, 2, 3, 4]}


def _surface_errors(surface, changes):
    surface = {k: v for k, v in {**surface, **changes}.items() if v is not None}
    extension = {"degree": 2} if surface["base"] == "Q" else {"p": 5}
    results, errors = run(doc({"type": "analyze", "surface": surface, "extension": extension}))
    assert results is None
    return [e.removeprefix("jobs[0].surface") for e in errors]


@pytest.mark.parametrize("changes, errors", [
    ({"d": "2 +"}, [".d: expected a number, generator, or parenthesis"]),
    ({"d": None}, [".d: missing"]),
    ({"roots": ["1", "t1", "3", "("]},
     [".roots[1]: t1 is not a generator of this field",
      ".roots[3]: expected a number, generator, or parenthesis"]),
    ({"roots": ["1", "2", "3"]}, [".roots: expected at least 4 entries"]),
    ({"d": "2 +", "roots": 5},
     [".roots: expected an array", ".d: expected a number, generator, or parenthesis"]),
    ({"roots": ["1", "2", "3", "9/3"]}, [": roots must be distinct"]),
])
def test_a_bad_local_surface_is_reported_at_its_path(changes, errors):
    assert _surface_errors(LOCAL_SURFACE, changes) == errors


@pytest.mark.parametrize("changes, errors", [
    ({"d": "x"}, [".d: expected a rational like 3 or -5/7"]),
    ({"d": None}, [".d: missing"]),
    ({"roots": [1, "y", 3, [4]]},
     [".roots[1]: expected a rational like 3 or -5/7",
      ".roots[3]: expected a rational like 3 or -5/7"]),
    ({"roots": [1, 2, 3]}, [".roots: expected at least 4 entries"]),
    ({"d": "x", "roots": 5}, [".roots: expected an array", ".d: expected a rational like 3 or -5/7"]),
    ({"roots": [1, 2, 3, "6/2"]}, [": roots must be distinct and nonzero"]),
])
def test_a_bad_global_surface_is_reported_at_its_path(changes, errors):
    assert _surface_errors(GLOBAL_SURFACE, changes) == errors


def _analyze(surface, extension):
    return {"type": "analyze", "surface": surface, "extension": extension}


LOCAL_JOB = _analyze(LOCAL_SURFACE, {"p": 5, "steps": [{"kind": "unramified",
                                                         "poly": ["2", "0"]}]})
GLOBAL_JOB = _analyze(GLOBAL_SURFACE, {"degree": 2})


def test_a_repeated_surface_is_built_once():
    cli._resolve.cache_clear()
    results, errors = run(doc(LOCAL_JOB, GLOBAL_JOB, LOCAL_JOB, GLOBAL_JOB, LOCAL_JOB))
    assert errors is None and results[0] == results[2] == results[4]
    # the base field, the local surface, the extension and the global surface;
    # a repeated local job looks up its surface and extension only
    assert cli._resolve.cache_info()[:2] == (5, 4)
    errors = []
    reordered = {"roots": ["1", "2", "3", "4"], "d": "2", "base": {"p": 5}}
    surface = cli._build(cli._check_surface, LOCAL_SURFACE, "surface", errors)
    assert cli._build(cli._check_surface, reordered, "surface", errors) is surface
    assert errors == [] and cli._resolve.cache_info().misses == 4


def test_one_surface_spec_over_two_bases_is_two_surfaces():
    cli._resolve.cache_clear()
    errors = []
    spec = {"d": "2", "roots": ["1", "2", "3", "4"]}
    bases = [{"p": 5}, {"p": 5, "steps": [{"kind": "eisenstein", "poly": [5, 0]}]}]
    surfaces = [cli._build(cli._check_surface, {**spec, "base": K}, "surface", errors)
                for K in bases]
    assert errors == [] and [S.base for S in surfaces] == [
        LocalField.qp(5), LocalField.qp(5).extend_eisenstein([5, 0])]
    # the two bases and the two surfaces
    assert cli._resolve.cache_info().currsize == 4


@pytest.mark.parametrize("surface, message", [
    ({**LOCAL_SURFACE, "roots": ["1", "2", "3", "9/3"]}, "surface: roots must be distinct"),
    ({**LOCAL_SURFACE, "d": "4"}, "surface: d must be a nonsquare of the base field"),
    ({**LOCAL_SURFACE, "d": "2 +"}, "surface.d: expected a number, generator, or parenthesis"),
    ({**GLOBAL_SURFACE, "d": 4}, "surface: d must be a rational nonsquare"),
    ({**GLOBAL_SURFACE, "roots": [1, 2, 3]}, "surface.roots: expected at least 4 entries"),
])
def test_a_repeated_bad_surface_is_reported_at_each_path(surface, message):
    job = _analyze(surface, {"degree": 2} if surface["base"] == "Q" else {"p": 5})
    results, errors = run(doc(job, {"type": "snf", "matrix": [[1]]}, job))
    assert results is None
    assert errors == [f"jobs[{i}].{message}" for i in (0, 2)]


@pytest.mark.parametrize("surface, extension, errors", [
    # a bad base is reported alone: the extension is not read
    ({**LOCAL_SURFACE, "base": {"p": 4}}, {"p": "x"}, ["surface.base.p: p must be prime"]),
    ({**LOCAL_SURFACE, "base": {"p": 4}, "d": "2 +"}, {"p": "x"},
     ["surface.base.p: p must be prime"]),
    # a bad surface over a good base still has the extension checked
    ({**LOCAL_SURFACE, "d": "2 +"}, {"p": "x"},
     ["surface.d: expected a number, generator, or parenthesis",
      "extension.p: expected an integer"]),
    ({**LOCAL_SURFACE, "roots": ["1", "2", "3", "t1"]},
     {"p": 5, "steps": [{"kind": "eisenstein", "poly": ["5"]}]},
     ["surface.roots[3]: t1 is not a generator of this field",
      "extension.steps[0].poly: expected at least 2 entries"]),
    ({**GLOBAL_SURFACE, "d": 4}, None,
     ["surface: d must be a rational nonsquare", "extension: expected an object"]),
    # a good surface is kept by the first run, and its base is not read again
    (LOCAL_SURFACE, {"p": "x"}, ["extension.p: expected an integer"]),
    (LOCAL_SURFACE, {"p": 7}, ["extension: must be a tower extension of the surface base field"]),
])
def test_a_bad_surface_and_a_bad_extension_report_as_before(surface, extension, errors):
    job = _analyze(surface, extension)
    for _ in range(2):  # built, then resolved
        assert run(doc(job)) == (None, [f"jobs[0].{e}" for e in errors])


def test_a_circular_spec_is_checked_and_reports_its_error():
    # no JSON reader returns a circular value, but run takes Python objects
    field = {"p": 4}
    field["note"] = field
    job = {"type": "square-class", "field": field, "elements": ["2"]}
    for _ in range(2):
        assert run(doc(job)) == (None, ["jobs[0].field.p: p must be prime"])
    surface = {**LOCAL_SURFACE, "d": "2 +"}
    surface["note"] = [surface]
    assert run(doc(_analyze(surface, {"p": 5}))) == (
        None, ["jobs[0].surface.d: expected a number, generator, or parenthesis"])


def test_a_spec_too_deep_to_write_as_text_is_still_built():
    # no JSON reader returns a list this deep, but run takes Python objects
    deep = []
    for _ in range(5000):
        deep = [deep]
    job = {"type": "square-class", "field": {"p": 5, "note": deep}, "elements": ["2"]}
    results, errors = run(doc(job))
    assert errors is None and results[0]["field"] == "Q_5"


# -- the command line itself -----------------------------------------------------


def write_doc(tmp_path, document):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(document))
    return str(path)


def test_main_json_roundtrip_deterministic(tmp_path, capsys):
    document = doc(
        {"type": "snf", "matrix": [[2, 0], [0, 6]]},
        {"type": "square-class", "field": {"p": 3, "steps": []},
         "elements": ["3", "-1"]},
    )
    path = write_doc(tmp_path, document)
    assert main([path]) == 0
    first = capsys.readouterr().out
    assert main([path]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")
    payload = json.loads(first)
    assert payload["version"] == 1
    assert payload["results"][0]["diagonal"] == [2, 6]


def test_the_readme_example_document_runs(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = write_doc(tmp_path, json.loads(text))
    types = ["snf", "h1", "square-class", "analyze"]
    assert main([path]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [r["type"] for r in json.loads(out)["results"]] == types
    assert main([path, "--format", "text"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    heads = [line.split(":", 1)[0] for line in out.splitlines() if line.startswith("[")]
    assert heads == [f"[{i}] {t}" for i, t in enumerate(types)]


def test_main_text_format(tmp_path, capsys):
    document = doc({"type": "snf", "matrix": [[4]]})
    path = write_doc(tmp_path, document)
    assert main([path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "snf" in out and "diagonal=[4]" in out


def test_main_stdin(capsys, monkeypatch):
    import io
    document = doc({"type": "snf", "matrix": [[1]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
    assert main(["-"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["rank"] == 1


def test_main_exit_codes(tmp_path, capsys):
    assert main([str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    invalid = write_doc(tmp_path, {"version": 1, "jobs": [{"type": "snf"}]})
    assert main([invalid]) == 2
    err = capsys.readouterr().err
    assert "jobs[0].matrix" in err



@pytest.mark.parametrize("jtype", [[1], {"kind": "snf"}])
def test_main_rejects_unhashable_job_type(jtype, tmp_path, capsys):
    path = write_doc(tmp_path, doc({"type": jtype, "matrix": [[1]]}))
    assert main([path]) == 2
    assert capsys.readouterr().err.startswith("jobs[0].type: expected one of ")


def test_square_class_over_a_large_prime_is_quick(tmp_path, capsys):
    # 1000003 is 3 mod 4, so the greedy basis stops at -1 without building
    # the rest of the candidate pool
    path = write_doc(tmp_path, doc({"type": "square-class", "field": {"p": 1000003},
                                    "elements": ["-1", "2", "1000003"]}))
    start = time.perf_counter()
    assert main([path]) == 0
    assert time.perf_counter() - start < 1.0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["generators"] == ["1000003", "-1"]
    assert [e["class"] for e in result["elements"]] == [[0, 1], [0, 1], [1, 0]]


DOCS = Path(__file__).parent / "docs"


def test_square_class_over_a_mersenne_prime_is_quick(capsys):
    # p = 2^61 - 1: Miller-Rabin settles primality in O(log p) products,
    # where trial division did not finish in 30 s
    start = time.perf_counter()
    assert main([str(DOCS / "square_class_large_prime.json")]) == 0
    assert time.perf_counter() - start < 2.0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["generators"] == [str(2 ** 61 - 1), "-1"]
    assert ([e["class"] for e in result["elements"]]
            == [[0, 1], [0, 0], [0, 1], [1, 0], [0, 1]])


def test_regular_h1_at_the_table_order_bound_finishes(capsys):
    # the order-128 XOR table, (Z/2)^7; the closing-edge system took 25.7 s
    start = time.perf_counter()
    assert main([str(DOCS / "regular_h1_order_128.json")]) == 0
    assert time.perf_counter() - start < 10.0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["invariants"] == [] and result["order"] == 1


def test_a_table_past_the_order_bound_exits_2(capsys):
    assert main([str(DOCS / "table_order_129.json")]) == 2
    assert capsys.readouterr().err == ("jobs[0].group.table: group order must be "
                                       f"at most {cli.MAX_TABLE_ORDER}\n")


def test_prime_past_the_bound_exits_2(capsys):
    assert main([str(DOCS / "prime_past_bound.json")]) == 2
    assert capsys.readouterr().err == "jobs[0].field.p: p must be below 2^64\n"


# Unramified steps over large p are judged by one unit test in the residue
# ring.  Enumerating residues instead took 6.8 s and 20 s on the first two
# documents, whose output digests are the ones that enumeration gave, and
# ran out of memory on the third.
@pytest.mark.parametrize("name, digest", [
    ("unramified_quadratic_1000003",
     "2635e1516cb45cc237a8cc16a332ac70024689639dc72abe67c9f5a89bd506c3"),
    ("unramified_quartic_1009",
     "82798d44c47f12113b1f78afe5fb247cdac5ed81e2f672ee04b034bd98eeb466"),
])
def test_unramified_step_over_a_large_prime_is_quick(name, digest, capsys):
    start = time.perf_counter()
    assert main([str(DOCS / f"{name}.json")]) == 0
    assert time.perf_counter() - start < 2.0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_unramified_step_over_a_mersenne_prime_is_quick(capsys):
    p = 2 ** 61 - 1
    start = time.perf_counter()
    assert main([str(DOCS / "unramified_quadratic_mersenne.json")]) == 0
    assert time.perf_counter() - start < 2.0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    t1 = result["elements"][0]
    assert t1["input"] == "t1" and t1["valuation"] == 0
    # a unit of an unramified quadratic extension is a square exactly when
    # its norm is a square mod p, and the norm of t1 is -3
    assert t1["square"] is (pow(-3 % p, (p - 1) // 2, p) == 1)


def test_rootless_reducible_quartic_step_exits_2(capsys):
    # x^4 + 1 has no root mod 1019, as 1019 = 3 mod 8 leaves F_1019 without
    # primitive eighth roots of unity, but it is (x^2 + a x - 1)(x^2 - a x - 1)
    # with a^2 = -2, so only the quadratic-factor test rejects it
    start = time.perf_counter()
    assert main([str(DOCS / "unramified_quartic_two_quadratics.json")]) == 2
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == ("jobs[0].field.steps[0]: polynomial is not "
                                       "irreducible over the residue field\n")


def test_intermediate_growth_of_an_expression_exits_2(capsys):
    # 100 factors 3^5000/5^3000 multiplied and then divided out: each factor
    # and the final value fit the bound, and building the products the
    # bound refuses ran for more than a minute
    start = time.perf_counter()
    assert main([str(DOCS / "expression_intermediate_growth.json")]) == 2
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == "jobs[0].elements[0]: value exceeds 10000 bits\n"


def test_deeply_nested_expressions_exit_2(capsys):
    # 300 nested parentheses and 2,000 unary minus signs: each level is a
    # recursive call, and past the recursion limit the CLI exited 4
    start = time.perf_counter()
    assert main([str(DOCS / "expression_deep_nesting.json")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "".join(
        f"jobs[0].elements[{i}]: expression nests deeper than 100 levels\n" for i in range(2))


def test_nesting_bound_counts_parentheses_and_signs():
    q5 = LocalField.qp(5)
    assert parse_element("(" * 100 + "2" + ")" * 100, q5) == q5.integer(2)
    assert parse_element("-" * 99 + "2", q5) == q5.integer(-2)
    assert parse_element("-(" * 50 + "2" + ")" * 50, q5) == q5.integer(2)
    assert parse_element("2^-1", q5) == q5.integer(2).inverse()
    for bad in ("(" * 101 + "2" + ")" * 101, "+" * 101 + "2", "-(" * 50 + "-2" + ")" * 50):
        with pytest.raises(ExpressionError, match="nests deeper than 100 levels"):
            parse_element(bad, q5)


def test_a_document_nested_past_the_json_reader_exits_2(monkeypatch, capsys):
    text = '{"version": 1, "jobs": ' + "[" * 100_000 + "]" * 100_000 + "}"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("document: invalid JSON (")


def test_two_unramified_quadratic_steps_over_a_large_prime_are_quick(capsys):
    # the residues of t1 + c lie in F_(p^2) and are all squares in F_(p^4), so
    # the greedy search skips them; trying all p - 1 ran for more than 30 s
    start = time.perf_counter()
    assert main([str(DOCS / "two_unramified_steps_1000003.json")]) == 0
    assert time.perf_counter() - start < 2.0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["generators"] == ["1000003", "1*t2"]
    assert [e["class"] for e in result["elements"]] == [[0, 1], [0, 0]]


def test_square_class_with_even_residue_degree_at_a_large_prime(tmp_path, capsys):
    # every unit of F_p is a square in F_(p^2), so the greedy search skips
    # -1, 2, ..., p - 1; generators and classes are those the full search gave
    field = {"p": 100003, "steps": [{"kind": "unramified", "poly": [-2, 0]}]}
    path = write_doc(tmp_path, doc({"type": "square-class", "field": field,
                                    "elements": ["-1", "t1", "t1 + 3", "100003", "5/7"]}))
    assert main([path]) == 0
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["generators"] == ["100003", "1 + 1*t1"]
    assert ([e["class"] for e in result["elements"]]
            == [[0, 0], [0, 0], [0, 1], [1, 0], [0, 0]])


@pytest.mark.parametrize("n", [64, 65])
def test_main_rejects_non_associative_table(n, tmp_path, capsys):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    path = write_doc(tmp_path, doc({"type": "h1", "group": {"kind": "table", "table": table},
                                    "module": {"kind": "trivial"}}))
    assert main([path]) == 2
    assert capsys.readouterr().err.startswith("jobs[0].group.table: ")

def test_main_inert_flags(tmp_path, capsys):
    path = write_doc(tmp_path, doc({"type": "snf", "matrix": [[3]]}))
    assert main([path, "--precision", "10", "--seed", "7", "--trace"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["diagonal"] == [3]


def _run_stdin(monkeypatch, document, *flags):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
    return main(["-", *flags])


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts ints of any length to str")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_main_unencodable_result_exits_4(fmt, monkeypatch, capsys):
    # past Python's int-to-str digit limit neither format can write the result
    result = {"type": "snf", "diagonal": [10 ** 5000], "rank": 1, "u": [[1]], "v": [[1]]}
    monkeypatch.setattr(cli, "run", lambda document, trace=False: ([result], None))
    assert _run_stdin(monkeypatch, doc({"type": "snf", "matrix": [[1]]}), "--format", fmt) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts ints of any length from str")
@pytest.mark.parametrize("job", ['{"type": "snf", "matrix": [[1, %s]]}',
                                 '{"type": "square-class", "field": {"p": 5}, "elements": [%s]}'])
def test_main_oversized_json_integer_exits_2(job, monkeypatch, capsys):
    # past the int-to-str digit limit json.loads raises a plain ValueError
    text = '{"version": 1, "jobs": [%s]}' % (job % ("7" * 5000))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("document: invalid JSON (")


@pytest.mark.parametrize("field, element", [
    ({"p": 5}, "5^99999999"),
    ({"p": 5, "steps": [{"kind": "eisenstein", "poly": [-5, 0]}]}, "t1^99999999"),
    ({"p": 5}, "10^5000"),
])
def test_main_refuses_oversized_powers_quickly(field, element, monkeypatch, capsys):
    start = time.perf_counter()
    code = _run_stdin(monkeypatch, doc({"type": "square-class", "field": field,
                                        "elements": [element]}))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "jobs[0].elements[0]: power exceeds 10000 bits\n"


def test_main_result_json_cannot_encode_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", lambda document, trace=False: ([{"type": object()}], None))
    assert _run_stdin(monkeypatch, doc({"type": "snf", "matrix": [[1]]})) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: ")


def test_main_repeated_calls_match_the_first(tmp_path, capsys):
    # one parser serves every call: flags from one call must not leak into the next
    analyze = {"type": "analyze",
               "surface": {"base": {"p": 5, "steps": []}, "d": "2", "roots": ["1", "2", "3", "4"]},
               "extension": {"p": 5, "steps": [{"kind": "eisenstein", "poly": [-5, 0]}]}}
    path = write_doc(tmp_path, doc({"type": "snf", "matrix": [[2, 4], [6, 8]]}, analyze))
    calls = [(), ("--format", "text"), ("--trace",), (), ("--trace",), ("--format", "text"),
             ("--format", "text", "--trace"), (), ("--format", "text"), ("--trace",)]
    first = {}
    for flags in calls:
        assert main([path, *flags]) == 0
        out = capsys.readouterr().out
        assert out == first.setdefault(flags, out)
    assert first[()] != first[("--trace",)] != first[("--format", "text")]


def test_one_argument_list_reads_each_document_anew(monkeypatch, capsys):
    # main keeps the parsed arguments of each list; the document behind "-"
    # must still be read and answered on every call
    analyze = {"type": "analyze",
               "surface": {"base": {"p": 5, "steps": []}, "d": "2", "roots": ["1", "2", "3", "4"]},
               "extension": {"p": 5, "steps": [{"kind": "eisenstein", "poly": [-5, 0]}]}}
    documents = [doc(analyze), doc({"type": "snf", "matrix": [[2, 4], [6, 8]]})]
    for flags in [(), ("--format", "text"), ("--trace",), (), ("--format", "text")]:
        outs = []
        for document in documents * 2:
            assert _run_stdin(monkeypatch, document, *flags) == 0
            outs.append(capsys.readouterr().out)
            results, _ = run(document, trace="--trace" in flags)
            assert outs[-1] == (cli._render_text(results) if "text" in flags else
                                json.dumps({"version": 1, "results": results},
                                           indent=2, sort_keys=True) + "\n")
        assert outs[0] != outs[1] and outs[:2] == outs[2:]


def test_a_refused_argument_list_exits_2_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "xml", "-"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: chatelet ")
        assert "argument --format: invalid choice: 'xml'" in err


def test_main_dense_snf_30x30_exits_0(tmp_path, capsys):
    rng = random.Random(30)
    matrix = [[rng.randint(-99, 99) for _ in range(30)] for _ in range(30)]
    path = write_doc(tmp_path, doc({"type": "snf", "matrix": matrix}))
    assert main([path]) == 0
    (r,) = json.loads(capsys.readouterr().out)["results"]
    A, U, V = IntMatrix(matrix), IntMatrix(r["u"]), IntMatrix(r["v"])
    assert r["rank"] == 30
    assert U @ A @ V == IntMatrix.diagonal(r["diagonal"])


_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=6))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(st.integers(), max_size=6)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(value=_json_values)
def test_to_json_matches_json_dumps(value):
    expected = json.dumps(value, indent=2, sort_keys=True)
    # the second time, each dict shape is written through its kept layout
    assert cli._to_json(value) == cli._to_json(value) == expected
    cli._layout.cache_clear()
    assert cli._to_json(value) == expected


def test_the_layout_cache_is_bounded():
    cli._layout.cache_clear()
    for k in range(CACHE_SIZE + 12):
        value = {f"key{k}": k, "b": [{"c": True}]}
        assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)
    info = cli._layout.cache_info()
    assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE
    # every outer shape once, and the inner {"c": ...} once
    assert info.misses == CACHE_SIZE + 13 and info.hits == CACHE_SIZE + 11
    newest = {f"key{CACHE_SIZE + 11}": 0, "b": []}
    assert cli._to_json(newest) == json.dumps(newest, indent=2, sort_keys=True)
    assert cli._layout.cache_info().hits == info.hits + 1


# keys of mixed types cannot be sorted, and NaN has no standard JSON text
_spec_values = (_json_values | st.just(float("nan"))
                | st.lists(st.just(float("nan")) | _json_scalars, max_size=3)
                | st.dictionaries(st.text(max_size=2) | st.integers(-2, 2) | st.none()
                                  | st.floats(), _json_values, max_size=4))


@settings(max_examples=300, deadline=None)
@given(value=_spec_values)
def test_spec_text_matches_json_dumps(value):
    try:
        expected = json.dumps(value, sort_keys=True)
    except Exception as exc:
        with pytest.raises(type(exc)):
            cli._spec_text(value)
    else:
        assert cli._spec_text(value) == expected


# -- the job schema under mutation -----------------------------------------------


def _benchmark_seeds():
    """The shortest benchmark document for each job type and set of job keys."""
    shortest = {}
    for path in sorted((Path(__file__).parents[1] / "perfbench" / "docs").glob("*.jsonl")):
        for line in path.read_text().splitlines():
            document = json.loads(line)["doc"]
            job = document["jobs"][0]
            key = (job["type"], tuple(sorted(job)))
            if key not in shortest or len(json.dumps(document)) < len(json.dumps(shortest[key])):
                shortest[key] = document
    return [shortest[key] for key in sorted(shortest)]


# the benchmark has no global-mode analyze document: one per kind of evidence
_GLOBAL_SEEDS = [
    doc({"type": "analyze", "extension": extension,
         "surface": {"base": "Q", "d": d, "roots": [1, 2, "3", "-5/7"]}})
    for d, extension in ((2, {"degree": 3}),
                         ("2", {"degree": 2, "completion": {"p": 5, "steps": []}}),
                         (5, {"degree": 4, "assert_degenerate": True}))]
_SCHEMA_SEEDS = _benchmark_seeds() + _GLOBAL_SEEDS


def _places(value, place=()):
    """Every place in a document: the key or index path of each value."""
    yield place
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _places(inner, place + (key,))


# a value is replaced by one of every JSON type; integers stay within 2^64 of
# zero and include each input limit of the CLI and the first value past it
_LIMITS = (cli.MAX_MODULE_RANK, cli.MAX_TABLE_ORDER,
           *(largest for _, largest in cli._SIZED_GROUPS.values()))
_BOUNDARY_INTS = [0, 1, -1, 2, *sorted(b + k for b in _LIMITS for k in (0, 1)),
                  2 ** 63, 2 ** 64 - 59, 2 ** 64 - 1, 2 ** 64, -2 ** 64]
_SCHEMA_WORDS = ["", "Q", "t1", "t2", "1/2", "0", "2^64", "cyclic", "table", "regular",
                 "explicit", "picard", "eisenstein", "unramified", "analyze", "snf"]
_REPLACEMENTS = (st.none() | st.booleans() | st.text(max_size=6) | st.sampled_from(_SCHEMA_WORDS)
                 | st.integers(-2 ** 64, 2 ** 64) | st.sampled_from(_BOUNDARY_INTS)
                 | st.lists(st.integers(-3, 3) | st.text(max_size=2), max_size=3)
                 | st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))


# the deadline is each document's time budget, in milliseconds
@settings(max_examples=1500, deadline=10_000)
@given(data=st.data())
def test_a_mutated_document_exits_0_or_2_without_a_traceback(data):
    document = json.loads(json.dumps(data.draw(st.sampled_from(_SCHEMA_SEEDS))))
    place = data.draw(st.sampled_from(list(_places(document))[1:]))
    *outer, last = place
    parent = document
    for key in outer:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = data.draw(_REPLACEMENTS)
    flags = data.draw(st.sampled_from([(), ("--format", "text"), ("--trace",)]))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(document))), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(["-", *flags])
    assert code in (0, 2), err.getvalue()
    assert code == 0 or out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
