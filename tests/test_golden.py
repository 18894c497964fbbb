"""Byte-for-byte regression of the canonical ``--json`` output.

``golden/fixtures.json`` maps "<fixture> <subcommand> [flags]" to the
stdout that invocation printed, captured for every bundled fixture and
subcommand pair that exits 0.  ``golden/corpus.json`` maps
"<problem> <subcommand> [flags]" to the exit code and stdout of every
``gb-modp`` and ``resolve`` operation of the benchmark corpus
(``perfbench/corpus``) and of its cheap ``gb-q`` operations (all but
case #44).  Both also hold ``verify-presentation --max-steps 4`` on
every table, which runs the bounded completion as well (the
``-member`` and ``-nonmember`` problems share their base problem's
table).  ``golden/edge.json`` holds small problems whose generator
lists are all zero or mix zeros in, with the exit code and stdout of
each subcommand on them.  ``golden/member.json``, in the same form,
holds ``member`` over Q on case #44 and on the GKZ system with the
elements of the GF(32003) member and non-member problems.
``golden/nonconfluent.json``, in the same form, holds
``verify-presentation`` with and without ``--max-steps 4`` on two
non-confluent tables, on 3 and on 4 generators (the second weighted),
with fractional lambdas and fractional tails, over Q and over
GF(32003): every failure leaves a residual of several terms with
fractional coefficients, so a wrong final rescale of the division
shows.  They were captured from the package as it stood before the
presentation check divided integer rows.  A refactor that keeps
behaviour keeps every byte.
"""

import json
import os

import pytest

from solvpoly import fixtures as corpus
from solvpoly.cli import main

HERE = os.path.dirname(__file__)
BENCH_CORPUS = os.path.join(HERE, os.pardir, "perfbench", "corpus")


def _load(name):
    with open(os.path.join(HERE, "golden", name)) as fh:
        return json.load(fh)


EXPECTED = _load("fixtures.json")
EXPECTED_CORPUS = _load("corpus.json")
EDGE = _load("edge.json")
MEMBER = _load("member.json")
NONCONFLUENT = _load("nonconfluent.json")


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_json_output_matches_golden(capsys, case):
    name, *argv = case.split(" ")
    code = main(["--json"] + argv + [corpus.path(name)])
    assert code == 0
    assert capsys.readouterr().out == EXPECTED[case]


@pytest.mark.parametrize("case", sorted(EXPECTED_CORPUS))
def test_benchmark_corpus_output_matches_golden(capsys, case):
    name, *argv = case.split(" ")
    path = os.path.join(BENCH_CORPUS, name + ".json")
    code = main(["--json"] + argv + [path])
    assert code == EXPECTED_CORPUS[case]["exit"]
    assert capsys.readouterr().out == EXPECTED_CORPUS[case]["stdout"]


def _check_problem_case(capsys, tmp_path, golden, case):
    """Run ``case`` on its problem document from ``golden``, written out
    as a file, and compare its exit code and stdout."""
    name, *argv = case.split(" ")
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(golden["problems"][name]))
    code = main(["--json"] + argv + [str(path)])
    assert code == golden["cases"][case]["exit"]
    assert capsys.readouterr().out == golden["cases"][case]["stdout"]


@pytest.mark.parametrize("case", sorted(EDGE["cases"]))
def test_edge_output_matches_golden(capsys, tmp_path, case):
    _check_problem_case(capsys, tmp_path, EDGE, case)


@pytest.mark.parametrize("case", sorted(MEMBER["cases"]))
def test_member_over_q_matches_golden(capsys, tmp_path, case):
    _check_problem_case(capsys, tmp_path, MEMBER, case)


@pytest.mark.parametrize("case", sorted(NONCONFLUENT["cases"]))
def test_nonconfluent_tables_match_golden(capsys, tmp_path, case):
    _check_problem_case(capsys, tmp_path, NONCONFLUENT, case)
