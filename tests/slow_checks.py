"""Slow checks of the swell cases, kept out of the tier-1 run.

The file name does not match ``test_*.py``, so ``python -m pytest``
does not collect it; name it to run it (about 15, 20, 1, 3 and 3 s per
check on a 2-core machine)::

    python -m pytest -q tests/slow_checks.py

Two cases are coefficient swell over Q that the benchmark leaves out:
``pdim`` on case #44 of the benchmark corpus and ``filtered-resolve``
on a rank-2 ex14 module.  Their expected outputs were recorded before
the completion ran on integer rows, and are unchanged since.  The third
is ``gb --reduce`` on a rank-2 ex12 module over GF(32003), whose
completion keeps 59 elements (the largest of the benchmark keeps 27)
before it reduces to seven; its staircase was recorded before the lead
scans tested divisibility masks.

Two more are over GF(32003).  A rank-2 ex14 module under POT keeps 230
elements before it reduces to 17; it runs ``buchberger`` and
``reduce_basis`` from the library, as the CLI would also build V, and
its staircase was recorded before the division ran on order codes.
``gb --reduce`` on weyl1 with ``y^30*x^30 + x^5`` and ``y^7*x^3 - 2*y``
reduces to the unit element (over Q it does not finish in a minute).
"""

import json
import os

from solvpoly import fixtures
from solvpoly.cli import main, parse_problem
from solvpoly.groebner import buchberger, reduce_basis
from solvpoly.modfree import FreeModule, ModOrder

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


def _problem_mod_p(tmp_path, name, generators, module):
    """Fixture ``name`` over GF(32003) with the given generators and
    module, written to a problem file."""
    with open(fixtures.path(name)) as fh:
        problem = json.load(fh)
    problem["field"] = {"kind": "PrimeField", "characteristic": 32003}
    problem["module"] = module
    problem["submodule_generators"] = generators
    problem.pop("options", None)
    path = tmp_path / (name + "-p.json")
    path.write_text(json.dumps(problem))
    return str(path)


def test_reduced_basis_of_a_rank_2_ex14_module_under_pot(tmp_path):
    path = _problem_mod_p(tmp_path, "ex14", [
        ["4*X2^2*X3 + 21336*X2^2 + 21335", "4*X2*X3 + 16001"],
        ["0", "21335*X1^2*X3 + 32002*X1^2*X2 + 32002*X1"],
        ["21334*X2*X3^2 + 1", "2*X1^2*X2 + 16003*X1*X2 + 21335*X1"],
    ], {"rank": 2})
    A = parse_problem(path).algebra
    L = FreeModule(A, 2)
    order = ModOrder("pot", A.order, 2)
    with open(path) as fh:
        gens = [L.parse(g) for g in json.load(fh)["submodule_generators"]]
    G = buchberger(gens, order)
    assert len(G.elements) == 230
    R = reduce_basis(G)
    assert len(R.elements) == 17
    assert R.staircase().by_component == [
        [(0, 0, 3), (0, 4, 2), (0, 8, 1), (0, 13, 0), (1, 0, 2), (1, 4, 1),
         (1, 10, 0), (2, 8, 0), (3, 2, 1), (3, 7, 0), (4, 0, 1), (4, 5, 0),
         (5, 4, 0)],
        [(0, 0, 2), (0, 1, 1), (0, 5, 0), (1, 0, 0)],
    ]


def test_reduced_basis_of_a_weyl1_ideal_mod_p(tmp_path, capsys):
    path = _problem_mod_p(tmp_path, "weyl1",
                          ["y^30*x^30 + x^5", "y^7*x^3 - 2*y"],
                          {"rank": 1})
    assert main(["--json", "gb", "--reduce", path]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == ["1"]
