"""End-to-end checks for the command line front end.

Everything goes through ``solvpoly.cli.main`` with an argv list, so the
tests exercise exactly what a shell user gets: parsing, exit codes and
the canonical JSON output mode.
"""

import contextlib
import gc
import io
import json
import os
import random
import re
import signal
import subprocess
import sys

import pytest

import solvpoly
from solvpoly import fixtures as corpus
from solvpoly.algebra import MonomialOrder, UnknownGenerator, build_algebra
import solvpoly.cli as cli
import solvpoly.modfree as modfree
import solvpoly.syzres as syzres
from solvpoly.cli import (
    _COMMANDS,
    ParseError,
    SchemaError,
    _int_row_out,
    main,
    parse_problem,
)
from solvpoly.coeff import FieldSpec
from solvpoly.modfree import FreeModule, ModOrder, Vect, _IntVect

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
BENCH_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "corpus")


def run(capsys, *argv):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    return code, json.loads(out)


def problem_file(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(**overrides):
    doc = {
        "field": {"kind": "Rationals"},
        "generators": ["x", "y"],
        "order": {"kind": "grlex"},
        "relations": ["y*x = x*y"],
        "module": {"rank": 1},
        "submodule_generators": ["x", "y"],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# parse_problem


def test_parse_problem_takes_dict_text_and_path(tmp_path):
    doc = base_doc()
    from_dict = parse_problem(doc)
    from_text = parse_problem(json.dumps(doc))
    from_path = parse_problem(problem_file(tmp_path, doc))
    for pf in (from_dict, from_text, from_path):
        assert pf.names == ("x", "y")
        assert pf.module.rank == 1


def test_parse_error_carries_line_and_column():
    with pytest.raises(ParseError) as info:
        parse_problem('{"field": \n  }')
    message = str(info.value)
    assert "line 2" in message
    assert "column" in message


def test_source_that_is_not_json_text_is_read_as_a_path():
    with pytest.raises(ParseError, match="cannot read"):
        parse_problem("no/such/file.json")


def test_non_object_document_is_a_schema_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(SchemaError, match="JSON object"):
        parse_problem(str(path))


@pytest.mark.parametrize("doc", [
    base_doc(extra_key=1),
    {k: v for k, v in base_doc().items() if k != "generators"},
    base_doc(generators=["x", "x"]),
    base_doc(degrees=[1, 2, 3]),
    base_doc(degrees=[0, 1]),
    base_doc(order={"kind": "mystery"}),
    base_doc(order={"kind": "grlex", "priority": [0, 0]}),
    base_doc(relations="y*x = x*y"),
    base_doc(module={"rank": 0}),
    base_doc(module={"rank": 2 ** 31}, submodule_generators=[]),
    base_doc(module={"rank": 1, "shifts": [1, 2]}),
    base_doc(module={"rank": 1, "order": "sideways"}),
    base_doc(module={"rank": 2}, submodule_generators=["x"]),
    base_doc(options=[]),
    base_doc(field={"kind": "PrimeField", "characteristic": 4}),
])
def test_schema_rejections(doc):
    with pytest.raises(SchemaError):
        parse_problem(doc)


def test_readme_example_problem_parses(capsys, tmp_path):
    text = open(README).read()
    block = re.search(r"### Problem files\s+```json\n(.*?)```", text, re.S)
    doc = json.loads(block.group(1))
    pf = parse_problem(doc)
    assert pf.morder_spec == ("top", False, None)
    code, payload = run_json(capsys, "gb", problem_file(tmp_path, doc))
    assert code == 0
    assert "1" in payload["basis"]


def test_algebra_construction_is_lazy():
    # Shape validation happens eagerly, algebra construction on demand,
    # so verify-presentation can report on files gb would reject.
    pf = parse_problem(base_doc(relations=["y*x = x*w"]))
    assert pf.names == ("x", "y")
    with pytest.raises(UnknownGenerator):
        pf.algebra


# ---------------------------------------------------------------------------
# fixtures package


def test_fixture_corpus_loads():
    names = corpus.all_names()
    assert set(names) == {"comm2", "weyl1", "qplane", "ex12", "ex14", "qheis"}
    for name in names:
        pf = corpus.load(name)
        assert pf.algebra.n == len(pf.names)
    with pytest.raises(KeyError):
        corpus.path("nonexistent")


# ---------------------------------------------------------------------------
# exit codes


def test_gb_succeeds_on_corpus_fixture(capsys):
    code, out, err = run(capsys, "gb", corpus.path("ex12"))
    assert code == 0
    assert err == ""
    assert "basis" in out


def test_member_negative_exits_one(capsys, tmp_path):
    doc = json.loads(open(corpus.path("ex12")).read())
    doc["options"] = {"element": "a1"}
    code, payload = run_json(capsys, "member", problem_file(tmp_path, doc))
    assert code == 1
    assert payload["member"] is False
    assert payload["normal_form"] == "a1"


def test_member_positive_exits_zero(capsys):
    code, payload = run_json(capsys, "member", corpus.path("ex12"))
    assert code == 0
    assert payload["member"] is True
    assert payload["normal_form"] == "0"


def test_graded_check_verdicts(capsys):
    code, payload = run_json(capsys, "graded-check", corpus.path("comm2"))
    assert (code, payload["graded"]) == (0, True)
    code, payload = run_json(capsys, "graded-check", corpus.path("weyl1"))
    assert (code, payload["graded"]) == (1, False)
    assert payload["violations"]


def test_zero_lambda_is_a_negative_for_gb(capsys, tmp_path):
    doc = base_doc(relations=["y*x = 1"], submodule_generators=["x"])
    code, out, err = run(capsys, "gb", problem_file(tmp_path, doc))
    assert code == 1
    assert out == ""
    assert err.startswith("not solvable type:")


def test_zero_lambda_still_gets_a_presentation_report(capsys, tmp_path):
    # verify-presentation analyses the free relations itself, so the
    # same file that kills gb produces a structured verdict here.
    doc = base_doc(relations=["y*x = 1"], submodule_generators=["x"])
    code, payload = run_json(capsys, "verify-presentation",
                             problem_file(tmp_path, doc))
    assert code == 1
    assert payload["verdict"] == "ShapeViolation"
    assert payload["violations"]


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": {')
    code, out, err = run(capsys, "gb", str(path))
    assert code == 2
    assert "line" in err


def test_unknown_generator_exits_two(capsys, tmp_path):
    doc = base_doc(submodule_generators=["x", "z"])
    code, out, err = run(capsys, "gb", problem_file(tmp_path, doc))
    assert code == 2
    assert err.startswith("error:")


def test_schema_error_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "gb",
                         problem_file(tmp_path, base_doc(surprise=1)))
    assert code == 2
    assert "surprise" in err


def test_non_prime_characteristic_exits_two(capsys, tmp_path):
    doc = base_doc(field={"kind": "PrimeField", "characteristic": 4})
    code, out, err = run(capsys, "gb", problem_file(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_keeps_the_contract_on_ex14(capsys, command):
    # ex14 has no submodule generators and an ungraded relation table.
    code, out, err = run(capsys, "--json", command, corpus.path("ex14"))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if out:
        json.loads(out)
    else:
        assert code != 0 and err.count("\n") == 1


def test_no_generators_give_empty_answers(capsys, tmp_path):
    for argv in (["gb"], ["gb", "--reduce"]):
        code, payload = run_json(capsys, *argv, corpus.path("ex14"))
        assert code == 0
        assert (payload["basis"], payload["V"], payload["U"]) == ([], [], [])
    code, payload = run_json(capsys, "syz", corpus.path("ex14"))
    assert (code, payload["rank"], payload["syzygies"]) == (0, 0, [])
    path = problem_file(tmp_path, base_doc(submodule_generators=[]))
    code, payload = run_json(capsys, "min-gens", path)
    assert (code, payload["count"], payload["generators"]) == (0, 0, [])


def test_missing_file_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "gb", str(tmp_path / "absent.json"))
    assert code == 2


# ---------------------------------------------------------------------------
# canonical JSON output


with open(os.path.join(os.path.dirname(__file__), "golden",
                       "cli.json")) as _fh:
    USAGE = json.load(_fh)


@pytest.mark.parametrize("case", sorted(USAGE))
def test_help_and_usage_match_golden(capsys, monkeypatch, case):
    # golden/cli.json: exit code, stdout and stderr of every --help, of
    # argv that names no command or an unknown one, and of a missing
    # problem or an unknown option after each command; argparse wraps
    # its text to the width in COLUMNS
    want = USAGE[case]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        want["exit"], want["stdout"], want["stderr"])


def test_json_output_is_byte_identical_across_runs(capsys):
    code1, out1, _ = run(capsys, "--json", "gb", "--reduce",
                         corpus.path("qheis"))
    code2, out2, _ = run(capsys, "gb", "--reduce", "--json",
                         corpus.path("qheis"))
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


def test_json_output_is_canonical_form(capsys):
    _, out, _ = run(capsys, "--json", "pdim", corpus.path("comm2"))
    payload = json.loads(out)
    recoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")) + "\n"
    assert out == recoded


def test_json_flag_accepted_before_or_after_subcommand(capsys):
    _, before, _ = run(capsys, "--json", "graded-check", corpus.path("comm2"))
    _, after, _ = run(capsys, "graded-check", "--json", corpus.path("comm2"))
    assert before == after


def test_human_mode_differs_from_json_mode(capsys):
    _, human, _ = run(capsys, "pdim", corpus.path("comm2"))
    with pytest.raises(json.JSONDecodeError):
        json.loads(human)
    assert "pdim" in human


# ---------------------------------------------------------------------------
# payload shapes per command


def test_verify_presentation_reports_lambdas(capsys):
    code, payload = run_json(capsys, "verify-presentation",
                             corpus.path("ex14"))
    assert code == 0
    assert payload["verdict"] == "SolvableTypeCertified"
    assert payload["overlaps_checked"] == 1
    assert payload["lambdas"]["X3*X1"] == "5"
    assert payload["lambdas"]["X1*X2"] == "1"


def test_verify_presentation_lambdas_are_residues_mod_p(capsys, tmp_path):
    doc = base_doc(field={"kind": "PrimeField", "characteristic": 5},
                   relations=["y*x = -x*y + 3"])
    code, payload = run_json(capsys, "verify-presentation",
                             problem_file(tmp_path, doc))
    assert code == 0
    assert payload["lambdas"] == {"y*x": "4"}


def test_verify_presentation_rejects_a_non_associative_table(capsys,
                                                            tmp_path):
    # (z*y)*x - z*(y*x) = 1, so the overlap of z*y and y*x survives.
    doc = base_doc(generators=["x", "y", "z"],
                   relations=["y*x = x*y + 1", "z*x = x*z", "z*y = y*z + y"])
    code, payload = run_json(capsys, "verify-presentation",
                             problem_file(tmp_path, doc))
    assert code == 1
    assert payload["verdict"] == "NotCertified"
    assert payload["violations"] == [
        "overlap of relations z*y and y*x at shift 1 leaves -1"]


@pytest.mark.parametrize("command", ["gb", "syz", "resolve", "graded-check"])
def test_computing_commands_refuse_a_non_associative_table(capsys, tmp_path,
                                                           command):
    doc = base_doc(generators=["x", "y", "z"],
                   relations=["y*x = x*y + 1", "z*x = x*z", "z*y = y*z + y"],
                   submodule_generators=["x", "z"])
    code, out, err = run(capsys, "--json", command,
                         problem_file(tmp_path, doc))
    assert code == 1
    assert out == ""
    assert err == "not solvable type: (z*y)*x - z*(y*x) = 1\n"


def test_gb_refuses_a_skew_pair_on_a_weyl_generator(capsys, tmp_path):
    # z*x = 2*x*z shares x with the Weyl pair y*x = x*y + 1; only
    # z*y = 1/2*y*z would make the table associative
    doc = base_doc(generators=["x", "y", "z"],
                   relations=["y*x = x*y + 1", "z*x = 2*x*z", "z*y = y*z"])
    code, out, err = run(capsys, "--json", "gb", problem_file(tmp_path, doc))
    assert code == 1
    assert out == ""
    assert err == "not solvable type: (z*y)*x - z*(y*x) = z\n"


def test_verify_presentation_max_steps_block(capsys):
    code, payload = run_json(capsys, "verify-presentation", "--max-steps",
                             "10", corpus.path("ex14"))
    assert code == 0
    comp = payload["completion"]
    assert comp["complete"] is True
    assert comp["basis_size"] == 3


@pytest.mark.parametrize("steps", ["-1", "-40"])
def test_verify_presentation_refuses_a_negative_max_steps(capsys, tmp_path,
                                                          steps):
    # a table whose completion needs a new element, so a budget below
    # zero cannot pass for "no budget needed"
    doc = base_doc(generators=["x", "y", "z"],
                   relations=["y*x = x*y + 1", "z*x = x*z", "z*y = y*z + y"])
    code, out, err = run(capsys, "--json", "verify-presentation",
                         "--max-steps=" + steps, problem_file(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err == "error: --max-steps: must be a natural number\n"


# Right-hand sides of ``y*x = ...`` read without an algebra, each with
# the exit code and stderr (or the verdict and lambda) of the reading by
# an algebra's ``multiply``, factor by factor: an exponent sum of 2^32
# is refused, also when split over two factors, but not on a term whose
# coefficient is zero, which no product reached; ``y*x`` on the right
# is x*y, so ``y*x = x*y + y*x`` certifies with lambda 2.
RHS_PARITY = [
    ("x*y + x^4294967296", 2, "error: exponent exceeds 2^32\n"),
    ("x*y + x^2147483648*x^2147483648", 2,
     "error: exponent exceeds 2^32\n"),
    ("x*y + w", 2, "error: unknown generator 'w' (declared: x, y)\n"),
    ("x*y + 1/0", 2, "error: unexpected character '/'\n"),
    ("x*y + x^", 2, "error: expected a natural number after '^'\n"),
    ("x*y + y*x", 0, "2"),
    ("x*y + 0*x^4294967296", 0, "1"),
]


@pytest.mark.parametrize("rhs,code,expect", RHS_PARITY,
                         ids=[r for r, _, _ in RHS_PARITY])
def test_verify_presentation_reads_right_sides_as_an_algebra_does(
        capsys, tmp_path, rhs, code, expect):
    doc = base_doc(relations=["y*x = " + rhs])
    got, out, err = run(capsys, "--json", "verify-presentation",
                        problem_file(tmp_path, doc))
    assert got == code
    if code:
        assert (out, err) == ("", expect)
    else:
        assert err == ""
        assert json.loads(out) == {
            "lambdas": {"y*x": expect}, "overlaps_checked": 0,
            "verdict": "SolvableTypeCertified", "violations": []}


def test_free_relations_hold_residues_over_a_prime_field(tmp_path):
    """Over GF(32003) each relation ``ba - rhs`` holds the residues in
    [0, p) that the reading through an algebra gave (captured from it),
    the negated right side's included."""
    path = problem_file(tmp_path, base_doc(
        field={"kind": "PrimeField", "characteristic": 32003},
        generators=["x", "y", "z"], submodule_generators=[],
        relations=["y*x = 1/2*x*y + 2/3*z", "z*x = 3/4*x*z + 1/5*y + 2",
                   "z*y = -2/7*y*z + 5/3*x"]))
    got = [r.data for r in cli._free_relations(cli.parse_problem(path))]
    assert got == [
        {(0, 1): 16001, (1, 0): 1, (2,): 10667},
        {(): 32001, (0, 2): 8000, (1,): 12801, (2, 0): 1},
        {(0,): 10666, (1, 2): 9144, (2, 1): 1},
    ]


def test_gb_reduced_payload_for_ex12(capsys):
    code, payload = run_json(capsys, "gb", "--reduce", corpus.path("ex12"))
    assert code == 0
    assert payload["basis"] == ["a2", "a3"]
    assert payload["reduced"] is True
    assert payload["minimal"] is True
    assert payload["truncated_at"] is None
    assert len(payload["V"]) == len(payload["basis"])
    assert len(payload["U"]) == 2


def test_gb_truncate_flag_sets_marker(capsys):
    code, payload = run_json(capsys, "gb", "--truncate", "3",
                             corpus.path("comm2"))
    assert code == 0
    assert payload["truncated_at"] == 3


@pytest.mark.parametrize("name,error", [
    ("c44-q", "error: generator is not homogeneous: "),
    ("sl2-3-q", "error: algebra is not graded: "),
    ("gkz-p", "error: algebra is not graded: "),
    ("weyl-3", "error: algebra is not graded: "),
])
def test_gb_truncate_refuses_ungraded_input(capsys, name, error):
    """A truncated basis is defined for homogeneous generators over a
    graded algebra only; anything else is an input error, also with no
    generators (weyl-3)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "corpus", name + ".json")
    code, out, err = run(capsys, "--json", "gb", "--truncate", "2", path)
    assert code == 2
    assert out == ""
    assert err.startswith(error) and err.count("\n") == 1


def test_syz_payload_annihilates(capsys):
    code, payload = run_json(capsys, "syz", corpus.path("comm2"))
    assert code == 0
    assert payload["annihilates"] is True
    assert payload["rank"] == len(payload["shifts"])
    assert payload["syzygies"]


def test_resolve_and_pdim_agree(capsys):
    # Both commands resolve the quotient of the free module by the
    # submodule; for the Koszul pair that is the full length-2 ladder.
    _, resolved = run_json(capsys, "resolve", corpus.path("comm2"))
    _, pdim = run_json(capsys, "pdim", corpus.path("comm2"))
    assert resolved["length"] == 2
    assert resolved["ranks"] == [1, 2, 1]
    assert pdim["pdim"] == 2
    assert pdim["ranks"] == [1, 2, 1]


def test_min_gens_drops_nothing_for_koszul_pair(capsys):
    code, payload = run_json(capsys, "min-gens", corpus.path("comm2"))
    assert code == 0
    assert payload["count"] == 2
    assert sorted(payload["generators"]) == ["x", "y"]


def test_graded_resolve_betti_table(capsys):
    code, payload = run_json(capsys, "graded-resolve", "--betti",
                             corpus.path("comm2"))
    assert code == 0
    assert payload["flavor"] == "Graded"
    assert payload["ranks"] == [1, 2, 1]
    assert payload["betti"] == {"0": {"0": 1}, "1": {"1": 2}, "2": {"2": 1}}


def test_graded_resolve_of_the_zero_module(capsys, tmp_path):
    with open(corpus.path("qplane")) as fh:
        doc = dict(json.load(fh), submodule_generators=["1"])
    code, out, _ = run(capsys, "--json", "graded-resolve", "--betti",
                       problem_file(tmp_path, doc))
    assert code == 0
    assert out == ('{"betti":{},"flavor":"Graded","length":0,"maps":[],'
                   '"ranks":[0],"shifts":[[]],"zero_module":true}\n')


def test_graded_resolve_rejects_filtered_algebra(capsys):
    code, out, err = run(capsys, "graded-resolve", corpus.path("weyl1"))
    assert code == 2
    assert err.startswith("error:")


def test_assoc_graded_of_weyl_is_commutative(capsys):
    code, payload = run_json(capsys, "assoc-graded", corpus.path("weyl1"))
    assert code == 0
    assert payload["generators"] == ["x", "y"]
    assert payload["relations"] == ["y*x = x*y"]


def test_rees_payload_names_homogenizer(capsys):
    code, payload = run_json(capsys, "rees", corpus.path("weyl1"))
    assert code == 0
    assert payload["homogenizing_generator"] == "Z"
    assert "y*x = x*y + Z^2" in payload["relations"]
    assert "Z*x = x*Z" in payload["relations"]
    assert "Z*y = y*Z" in payload["relations"]


def test_filtered_resolve_payload(capsys):
    code, payload = run_json(capsys, "filtered-resolve", corpus.path("ex12"))
    assert code == 0
    assert payload["flavor"] == "Filtered"
    assert payload["ranks"][0] >= 1


def test_filtered_resolve_shifts_override(capsys, tmp_path):
    doc = json.loads(open(corpus.path("comm2")).read())
    doc["module"] = {"rank": 2}
    doc["submodule_generators"] = [["x", "0"], ["0", "y"]]
    path = problem_file(tmp_path, doc)
    code, payload = run_json(capsys, "filtered-resolve", "--shifts", "0,3",
                             path)
    assert code == 0
    assert payload["shifts"][0] == [0, 3]
    code, out, err = run(capsys, "filtered-resolve", "--shifts", "0,1,2",
                         path)
    assert code == 2


def test_filtered_resolve_far_shift_is_quick(capsys, tmp_path):
    # the certification window is read off the monomials, not walked
    # degree by degree up to the shift
    doc = json.loads(open(corpus.path("comm2")).read())
    doc["module"] = {"rank": 1, "shifts": [2 ** 31]}
    code, payload = run_json(capsys, "filtered-resolve",
                             problem_file(tmp_path, doc))
    assert code == 0
    assert payload["shifts"][0] == [2 ** 31]


@pytest.mark.parametrize("shifts,message", [
    ("a", "invalid literal for int() with base 10: 'a'"),
    ("0,x", "invalid literal for int() with base 10: 'x'"),
    ("-1", "shifts must be natural numbers"),
    ("0,1", "2 shifts for rank 1"),
])
def test_filtered_resolve_bad_shifts(capsys, shifts, message):
    code, out, err = run(capsys, "filtered-resolve", "--shifts", shifts,
                         corpus.path("comm2"))
    assert code == 2
    assert out == ""
    assert err == "error: --shifts: %s\n" % message


def test_transfer_check_accepts_a_basis(capsys, tmp_path):
    # {a2, a3} is the reduced basis of the ex12 submodule, so the
    # verdicts hold on all three sides.
    doc = json.loads(open(corpus.path("ex12")).read())
    doc["submodule_generators"] = ["a2", "a3"]
    code, payload = run_json(capsys, "transfer-check",
                             problem_file(tmp_path, doc))
    assert code == 0
    assert payload["agree"] is True
    assert payload["in_algebra"] is True


def test_transfer_check_rejects_a_non_basis(capsys):
    # The raw ex12 generators are not a basis (a3 only appears after
    # completion), and the failure transfers coherently.
    code, payload = run_json(capsys, "transfer-check", corpus.path("ex12"))
    assert code == 1
    assert payload["in_algebra"] is False
    assert payload["agree"] is True


def test_large_exponents_keep_the_product_stack_flat(capsys, tmp_path):
    # y^400 * x^400 in the Weyl algebra takes 400 rewriting steps in each
    # factor; the depth of the product must not grow with them
    doc = json.loads(open(corpus.path("weyl1")).read())
    doc["submodule_generators"] = ["y^400*x^400"]
    code, payload = run_json(capsys, "gb", problem_file(tmp_path, doc))
    assert code == 0
    terms = payload["basis"][0].split(" + ")
    assert terms[:2] == ["x^400*y^400", "160000*x^399*y^399"]


def _decimal(n):
    """str(n) for an int of any length, written in chunks that each stay
    under the interpreter's int -> str digit limit."""
    chunks = []
    while n >= 10 ** 1000:
        n, r = divmod(n, 10 ** 1000)
        chunks.append("%01000d" % r)
    return str(n) + "".join(reversed(chunks))


@pytest.mark.parametrize("command", ["gb", "resolve"])
def test_coefficients_past_4300_digits_are_printed(capsys, tmp_path,
                                                   command):
    # 2500 threes times 2500 sevens: a coefficient of 5000 digits, past
    # the 4300-digit default limit of int <-> str conversion
    threes, sevens = "3" * 2500, "7" * 2500
    doc = json.loads(open(corpus.path("weyl1")).read())
    doc["submodule_generators"] = ["%s*%s*x + y" % (threes, sevens)]
    code, out, err = run(capsys, "--json", command,
                         problem_file(tmp_path, doc))
    assert code == 0, err
    json.loads(out)
    assert "y + %s*x" % _decimal(int(threes) * int(sevens)) in out


def test_literals_past_4300_digits_are_read(capsys, tmp_path):
    doc = json.loads(open(corpus.path("weyl1")).read())
    doc["submodule_generators"] = ["1%s*x + y" % ("0" * 5000)]
    code, payload = run_json(capsys, "gb", problem_file(tmp_path, doc))
    assert code == 0
    assert payload["basis"] == ["y + 1%s*x" % ("0" * 5000)]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int <-> str digit limit before Python 3.10.7")
def test_main_restores_the_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, "gb", corpus.path("weyl1"))[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run(capsys, "gb", "no-such-file.json")[0] == 2
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("how", ["exit-0", "exit-1", "exit-2",
                                 "argparse-exit", "handler-raises"])
def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path,
                                                  monkeypatch, collecting,
                                                  how):
    """A command runs with the cyclic collector paused, and every exit
    path, argparse's SystemExit and an exception included, leaves it on
    or off as it was at entry."""
    inside = []
    handlers = dict(cli._COMMANDS)

    def watching(name):
        def handler(pf, args):
            inside.append(gc.isenabled())
            if how == "handler-raises":
                raise RuntimeError("handler failed")
            return handlers[name](pf, args)
        return handler

    for name in ("gb", "member"):
        monkeypatch.setitem(cli._COMMANDS, name, watching(name))
    nonmember = json.loads(open(corpus.path("ex12")).read())
    nonmember["options"] = {"element": "a1"}
    argv = {
        "exit-0": ["gb", corpus.path("ex12")],
        "exit-1": ["member", problem_file(tmp_path, nonmember, "a1.json")],
        "exit-2": ["gb", problem_file(tmp_path, base_doc(surprise=1))],
        "argparse-exit": ["gb", "--no-such-option", corpus.path("ex12")],
        "handler-raises": ["gb", corpus.path("ex12")],
    }[how]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if how == "argparse-exit":
            with pytest.raises(SystemExit):
                main(argv)
        elif how == "handler-raises":
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == int(how[-1])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert inside == ([] if how in ("exit-2", "argparse-exit") else [False])


def test_transfer_check_with_large_degrees(capsys, tmp_path):
    # the Rees homogeniser of degree-1000 generators gets exponent 2000
    doc = json.loads(open(corpus.path("ex12")).read())
    doc["degrees"] = [1000, 1000, 1000]
    code, payload = run_json(capsys, "transfer-check",
                             problem_file(tmp_path, doc))
    assert code == 1
    assert payload["agree"] is True


def test_oracle_staircase_degree_flag(capsys):
    code, payload = run_json(capsys, "oracle-staircase", "--oracle-degree",
                             "4", corpus.path("comm2"))
    assert code == 0
    assert payload["degree_bound"] == 4
    assert payload["staircase"]
    _, default = run_json(capsys, "oracle-staircase", corpus.path("comm2"))
    assert default["degree_bound"] == 6


@pytest.mark.parametrize("problem", [
    corpus.path("weyl1"),
    os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "corpus",
                 "c44-p.json"),
])
def test_closed_stdout_exits_2_with_one_line(problem):
    """A reader gone before the report is written, as with ``| head``:
    the short report fails at the final flush, the long one (32 kB,
    more than the stream buffer) while it is written.  Either way one
    line on stderr (no traceback, no "Exception ignored" at exit) and
    exit 2, not the 1 of a certified negative."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(solvpoly.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "solvpoly.cli", "--json", "gb", problem],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error:") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# seeded fuzzing of the contract

FUZZ_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                           "perfbench", "corpus")
FUZZ_SOURCES = [corpus.path(name) for name in corpus.all_names()] + [
    os.path.join(FUZZ_CORPUS, name + ".json")
    for name in ("skew-4-2", "sl2-3-p", "weyl-3", "nonassoc")]
FUZZ_VALUES = [-1, 0, 1, 2, 7, 2 ** 31, 1.5, "", "x", "1/0", "0", None,
               True, [], {}, ["x"], {"kind": "PrimeField"}]
FUZZ_CHARS = "xyzXabefh0123456789*^+-/= ()."
# an integer literal of 5000 digits, past the interpreter's default
# limit of 4300 on int <-> str conversion
FUZZ_BIG_LITERAL = "1" + "3" * 4999


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, itself last."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _nodes(value, path + (k,))
    yield path, doc


def _mutate(rnd, text):
    """One random edit of a problem file: of its JSON text, of one
    string in it, of one node replaced by a value, or one key removed."""
    kind = rnd.randrange(4)
    if kind == 0:
        k = rnd.randrange(len(text))
        return text[:k] + rnd.choice(["", "}", "\"", "0"]) + text[k + 1:]
    doc = json.loads(text)
    nodes = list(_nodes(doc))
    if kind == 1:
        path, value = rnd.choice(
            [(p, v) for p, v in nodes if isinstance(v, str)])
        k = rnd.randrange(len(value) + 1)
        value = value[:k] + rnd.choice(FUZZ_CHARS) + value[k + 1:]
    elif kind == 2:
        path, value = rnd.choice(nodes)[0], rnd.choice(FUZZ_VALUES)
    else:
        holder = rnd.choice(
            [v for _, v in nodes if isinstance(v, dict) and v])
        del holder[rnd.choice(sorted(holder))]
        return json.dumps(doc)
    return _replaced(doc, path, value)


def _replaced(doc, path, value):
    """The JSON text of ``doc`` with the node at ``path`` set to ``value``."""
    if not path:
        return json.dumps(value)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return json.dumps(doc)


def _big_literal(rnd, text):
    """One string of a problem file multiplied by a literal of 5000
    digits."""
    doc = json.loads(text)
    path, value = rnd.choice(
        [(p, v) for p, v in _nodes(doc) if isinstance(v, str)])
    return _replaced(doc, path, FUZZ_BIG_LITERAL + "*" + value)


class _Abandoned(BaseException):
    """Raised by the timer into a fuzz case that outruns its budget."""


def _abandon(signum, frame):
    raise _Abandoned()


def _fuzz(capsys, tmp_path, rnd, edit, trials):
    """Run ``trials`` seeded edits of the bundled problem files through
    random subcommands, checking the contract of each; a case still
    running after one second is abandoned.  Returns the number
    abandoned."""
    texts = [open(path).read() for path in FUZZ_SOURCES]
    commands = sorted(_COMMANDS)
    path = tmp_path / "fuzz.json"
    abandoned = 0
    previous = signal.signal(signal.SIGALRM, _abandon)
    try:
        for trial in range(trials):
            text = edit(rnd, rnd.choice(texts))
            path.write_text(text)
            command = rnd.choice(commands)
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                code, out, err = run(capsys, "--json", command, str(path))
            except _Abandoned:
                capsys.readouterr()
                abandoned += 1
                continue
            except Exception as exc:  # a traceback for the user
                pytest.fail("%s on %r raised %r" % (command, text, exc))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert code in (0, 1, 2), (command, text)
            if code == 2:
                assert err.startswith("error:") and err.count("\n") == 1, (
                    command, text, err)
            if out:
                json.loads(out)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return abandoned


def test_mutated_problem_files_keep_the_contract(capsys, tmp_path):
    """Exit code 0, 1 or 2, no traceback, and one line of stderr on a
    rejected input, for seeded random edits of the bundled problem
    files run through random subcommands.

    An edit can turn e^3 into e^36, and the library has no computation
    budget yet, so a case still running after one second is abandoned;
    at most one case in twenty may be."""
    trials = 400
    abandoned = _fuzz(capsys, tmp_path, random.Random(5), _mutate, trials)
    assert abandoned <= trials // 20


def test_big_literals_keep_the_contract(capsys, tmp_path):
    """The same contract when one string of a problem file is multiplied
    by an integer literal of 5000 digits, with its own budget of one
    abandoned case in twenty."""
    trials = 80
    abandoned = _fuzz(capsys, tmp_path, random.Random(6), _big_literal,
                      trials)
    assert abandoned <= trials // 20


def _random_int_row(L, rnd, order=None):
    """An integer row of L on ``order`` (its TOP order when None): some
    entries zero, the others a few terms (the constant term among them
    now and then) with numerators of either sign, 1 and -1 among them;
    over Q over a denominator that need not be coprime to them, over
    GF(p) residues, p - 1 among them."""
    A = L.algebra
    order = order or L.top
    p = A.field.characteristic
    codes = {}
    for comp in range(L.rank):
        for _ in range(rnd.choice([0, 1, 3])):
            exp = tuple(rnd.randint(0, 2) for _ in range(A.n))
            if rnd.random() < 0.3:
                exp = (0,) * A.n
            if p:
                n = rnd.choice([1, p - 1, rnd.randrange(1, p)])
            else:
                n = rnd.choice([1, -1, rnd.randint(-12, 12) or 5])
            codes[order.key((exp, comp))] = n
    den = 1 if p else rnd.choice([1, 2, 3, 6, 12])
    return _IntVect(L, order, codes, den)


@pytest.mark.parametrize("name,p,kind", [
    ("weyl1", 0, None), ("ex12", 0, None), ("qheis", 0, None),
    ("weyl1", 0, "lex"), ("ex14", 32003, None), ("qplane", 32003, "lex"),
])
@pytest.mark.parametrize("rank", [1, 3])
def test_integer_rows_print_as_their_payloads(name, p, kind, rank):
    """``gb`` prints V and U and ``syz`` its syzygies from their integer
    rows; each entry reads as ``poly_str`` of its payload polynomial,
    under the fixture's ``grlex`` order and under ``lex``.  qheis has
    the relation constant lambda = 1/2."""
    pf = corpus.load(name)
    A = build_algebra(
        FieldSpec("PrimeField", p) if p else FieldSpec(), pf.names,
        MonomialOrder(kind, len(pf.names)) if kind else pf.order,
        pf.relations, degree_function=pf.degree_function)
    L = FreeModule(A, rank)
    rnd = random.Random(rank * 101 + len(name) + p)
    rows = [_random_int_row(L, rnd) for _ in range(40)]
    printed = [_int_row_out(row) for row in rows]
    assert A._mono_text
    # a second pass through the same algebra reads every monomial's text
    # from its memo
    for row, first in zip(rows, printed):
        assert _int_row_out(row) == first == [
            A.poly_str(f) for f in row.to_polys()]


def test_rows_print_shared_monomials_and_every_coefficient_form():
    """A rank-3 row over Q with denominator 6: its entries share
    monomials, one entry is zero, and its coefficients reduce to
    fractions, negative numbers, 1, -1 and integers.  It prints the same
    before and after the algebra's monomial texts are memoised, in one
    entry and across entries."""
    A = corpus.load("ex12").algebra
    L = FreeModule(A, 3)
    key = L.top.key
    terms = {0: [((2, 1, 0), -3), ((0, 1, 0), 6), ((0, 0, 0), -6)],
             2: [((2, 1, 0), 4), ((1, 0, 0), 9), ((0, 1, 0), -6),
                 ((0, 0, 1), 12), ((0, 0, 0), 3)]}
    row = _IntVect(L, L.top, {key((exp, comp)): n
                              for comp, ts in terms.items()
                              for exp, n in ts}, 6)
    want = ["-1/2*a1^2*a2 + a2 - 1", "0",
            "2/3*a1^2*a2 + 2*a3 - a2 + 3/2*a1 + 1/2"]
    assert not A._mono_text
    assert _int_row_out(row) == want
    assert set(A._mono_text) == {e for ts in terms.values() for e, _ in ts}
    assert _int_row_out(row) == want
    assert [A.poly_str(f) for f in row.to_polys()] == want
    assert A.poly_str(A.parse(want[2])) == want[2]


def _printed_order(L, how, rnd):
    """An order on L that a resolution map's rows can lie on: the graded
    TOP order of L (``"graded"``), or a Schreyer order whose images are
    random monomials of a rank-2 target under a TOP, POT or graded TOP
    order (``"schreyer-top"``, ``"schreyer-pot"``, ``"schreyer-graded"``),
    as on the frames of ``resolve``, ``graded-resolve`` and
    ``filtered-resolve``."""
    A = L.algebra
    if how == "graded":
        return ModOrder("top", A.order, L.rank, graded=True, shifts=L.shifts)
    kind = how.split("-")[1]
    target = ModOrder("top" if kind == "graded" else kind, A.order, 2,
                      component_priority=[1, 0], graded=kind == "graded",
                      shifts=[1, 0])
    images = [(tuple(rnd.randint(0, 2) for _ in range(A.n)),
               rnd.randrange(2)) for _ in range(L.rank)]
    return ModOrder("schreyer", A.order, L.rank, schreyer_images=images,
                    schreyer_target=target)


@pytest.mark.parametrize("name,p,kind,how", [
    (name, p, None, how)
    for name, p in [("ex14", 0), ("qheis", 0), ("ex14", 32003)]
    for how in ["graded", "schreyer-top", "schreyer-pot", "schreyer-graded"]
] + [
    (name, p, "lex", how)
    for name, p in [("weyl1", 0), ("qplane", 32003)]
    for how in ["schreyer-top", "schreyer-pot"]
])
def test_rows_on_map_orders_print_as_their_payloads(name, p, kind, how):
    """A resolution map prints its rows from their codes in descending
    order, on graded TOP and Schreyer orders too; each entry, mixing
    degrees, reads as ``poly_str`` of its payload polynomial.  ex14 has
    the weights 2, 1, 4 on a ``grlex`` base with a priority; a graded
    order needs a base that carries the degree, so ``lex`` gets only the
    Schreyer orders over TOP and POT targets."""
    pf = corpus.load(name)
    A = build_algebra(
        FieldSpec("PrimeField", p) if p else FieldSpec(), pf.names,
        MonomialOrder(kind, len(pf.names)) if kind else pf.order,
        pf.relations, degree_function=pf.degree_function)
    rnd = random.Random(len(name) * 7 + len(how) + p)
    for rank in (1, 3):
        L = FreeModule(A, rank, [rnd.randint(0, 2) for _ in range(rank)])
        order = _printed_order(L, how, rnd)
        for _ in range(25):
            row = _random_int_row(L, rnd, order)
            assert _int_row_out(row) == [
                A.poly_str(f) for f in row.to_polys()]


@pytest.mark.parametrize("argv", [
    ["graded-resolve", "--betti", "skew-5-2.json"],
    ["resolve", "sl2-4-q.json"],
    ["filtered-resolve", "sl2-3-q.json"],
    ["filtered-resolve", "gkz-q.json"],
])
def test_resolution_maps_print_without_payloads(monkeypatch, argv):
    """Every printed row of a resolution map goes from the Schreyer frame
    to stdout as an integer row: it is printed from its codes and never
    gets its payload ``data``.  gkz-q cancels 95 scalar entries on the
    way."""
    rows = []
    printer = cli._int_row_out

    def recording(row):
        rows.append(row)
        return printer(row)

    monkeypatch.setattr(cli, "_int_row_out", recording)
    path = os.path.join(BENCH_CORPUS, argv[-1])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["--json"] + argv[:-1] + [path]) == 0
    payload = json.loads(out.getvalue())
    assert len(rows) == sum(len(m) for m in payload["maps"]) > 0
    for row in rows:
        with pytest.raises(AttributeError):
            Vect.data.__get__(row)


@pytest.mark.parametrize("argv,code", [
    (["gb", "--reduce", "sl2-3-q.json"], 0),
    (["member", "sl2-4-p-nonmember.json"], 1),
    (["syz", "skew-4-2.json"], 0),
    (["resolve", "skew-4-2.json"], 0),
    (["graded-resolve", "--betti", "skew-4-3.json"], 0),
    (["filtered-resolve", "sl2-3-q.json"], 0),
    (["pdim", "gkz-p.json"], 0),
])
def test_benchmark_commands_decode_no_integer_row(monkeypatch, argv, code):
    """One small file per command of the benchmark: no integer row gets
    its payload ``data``, from the completion to the printed JSON.  pdim
    on gkz-p splices twice (its 3 x 19 and 19 x 54 maps are right
    invertible, the 54 x 90 one is not), all on integer rows."""
    decoded, tested = [], []
    getattr_ = modfree._IntVect.__getattr__
    is_projective = syzres.is_projective

    def recording(row, name):
        if name == "data":
            decoded.append(row)
        return getattr_(row, name)

    def shapes(Q):
        tested.append((Q.rows, Q.cols))
        return is_projective(Q)

    monkeypatch.setattr(modfree._IntVect, "__getattr__", recording)
    monkeypatch.setattr(syzres, "is_projective", shapes)
    path = os.path.join(BENCH_CORPUS, argv[-1])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--json"] + argv[:-1] + [path]) == code
    assert decoded == []
    if argv[0] == "pdim":
        assert tested == [(3, 19), (19, 54), (54, 90)]
