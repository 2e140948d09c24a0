"""Tests for the command line driver: job validation, execution, output."""

import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

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


def test_cli_caches_are_bounded():
    errors = []
    for k in range(CACHE_SIZE + 12):
        spec = {"p": 3, "steps": [{"kind": "eisenstein", "poly": [3 * (3 * k + 1), 0]}]}
        assert cli._build_field(spec, "field", errors) is not None
        parse_element(str(k), LocalField.qp(3))
    assert errors == []
    assert len(cli._FIELDS) == CACHE_SIZE
    info = cli._evaluate.cache_info()
    assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE


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
    bare = cli._build_field({"p": 2}, "field", errors)
    assert bare == cli._build_field({"p": 2, "steps": []}, "field", errors) == LocalField.qp(2)
    assert errors == []


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
    assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)
