"""End-to-end checks for the command line front end.

Everything goes through ``solvpoly.cli.main`` with an argv list, so the
tests exercise exactly what a shell user gets: parsing, exit codes and
the canonical JSON output mode.
"""

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
from solvpoly.algebra import UnknownGenerator
from solvpoly.cli import (
    _COMMANDS,
    ParseError,
    SchemaError,
    main,
    parse_problem,
)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


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


def test_verify_presentation_max_steps_block(capsys):
    code, payload = run_json(capsys, "verify-presentation", "--max-steps",
                             "10", corpus.path("ex14"))
    assert code == 0
    comp = payload["completion"]
    assert comp["complete"] is True
    assert comp["basis_size"] == 3


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
    if not path:
        return json.dumps(value)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return json.dumps(doc)


class _Abandoned(BaseException):
    """Raised by the timer into a fuzz case that outruns its budget."""


def _abandon(signum, frame):
    raise _Abandoned()


def test_mutated_problem_files_keep_the_contract(capsys, tmp_path):
    """Exit code 0, 1 or 2, no traceback, and one line of stderr on a
    rejected input, for seeded random edits of the bundled problem
    files run through random subcommands.

    An edit can turn e^3 into e^36, and the library has no computation
    budget yet, so a case still running after one second is abandoned;
    at most one case in twenty may be."""
    rnd = random.Random(5)
    texts = [open(path).read() for path in FUZZ_SOURCES]
    commands = sorted(_COMMANDS)
    path = tmp_path / "fuzz.json"
    trials, abandoned = 400, 0
    previous = signal.signal(signal.SIGALRM, _abandon)
    try:
        for trial in range(trials):
            text = _mutate(rnd, rnd.choice(texts))
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
    assert abandoned <= trials // 20
