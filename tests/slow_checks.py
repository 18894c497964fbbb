"""Slow checks of the swell cases, kept out of the tier-1 run.

The file name does not match ``test_*.py``, so ``python -m pytest``
does not collect it; name it to run it (about 15, 20 and 1 s per check
on a 2-core machine)::

    python -m pytest -q tests/slow_checks.py

Two cases are coefficient swell over Q that the benchmark leaves out:
``pdim`` on case #44 of the benchmark corpus and ``filtered-resolve``
on a rank-2 ex14 module.  Their expected outputs were recorded before
the completion ran on integer rows, and are unchanged since.  The third
is ``gb --reduce`` on a rank-2 ex12 module over GF(32003), whose
completion keeps 59 elements (the largest of the benchmark keeps 27)
before it reduces to seven; its staircase was recorded before the lead
scans tested divisibility masks.
"""

import json
import os

from solvpoly import fixtures
from solvpoly.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "corpus")


def test_pdim_of_case_44_over_q(capsys):
    path = os.path.join(CORPUS, "c44-q.json")
    assert main(["--json", "pdim", path]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "pdim": 1, "ranks": [3, 7, 4], "resolution_length": 2}


def test_filtered_resolution_of_a_rank_2_ex14_module(tmp_path, capsys):
    with open(fixtures.path("ex14")) as fh:
        problem = json.load(fh)
    problem["module"] = {"rank": 2, "shifts": [0, 1]}
    problem["submodule_generators"] = [
        ["1/2*X3 - 2*X1", "-X1*X2 - 1/2*X2 + 4"],
        ["4*X2*X3 - 1/3", "2*X2*X3 + 2"],
        ["-3/2*X1 - 1", "-1/3*X1*X3 - 2*X1*X2"],
    ]
    path = tmp_path / "ex14-rank2.json"
    path.write_text(json.dumps(problem))
    assert main(["--json", "filtered-resolve", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ranks"] == [2, 11, 15, 6]
    assert out["length"] == 3


def test_reduced_basis_of_a_rank_2_ex12_module_mod_p(tmp_path, capsys):
    with open(fixtures.path("ex12")) as fh:
        problem = json.load(fh)
    problem["field"] = {"kind": "PrimeField", "characteristic": 32003}
    problem["module"] = {"rank": 2, "order": {"kind": "top"}}
    problem["submodule_generators"] = [
        ["-a2*a3 - 4", "-3/2*a2^2 + a1^2"],
        ["-2*a3^2 - 3*a2^2 - a2", "-4/3"],
        ["2", "a1*a3 - a3"],
    ]
    del problem["options"]
    path = tmp_path / "ex12-rank2-p.json"
    path.write_text(json.dumps(problem))
    assert main(["--json", "gb", "--reduce", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["basis"]) == 7 and out["reduced"]
    assert out["staircase"] == [["a3^2", "a2", "a1*a3", "a1^3"],
                                ["a3", "a2", "a1^2"]]
