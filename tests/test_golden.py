"""Byte-for-byte regression of the canonical ``--json`` output.

``golden/fixtures.json`` maps "<fixture> <subcommand> [flags]" to the
stdout that invocation printed, captured for every bundled fixture and
subcommand pair that exits 0.  A refactor that keeps behaviour keeps
every byte.
"""

import json
import os

import pytest

from solvpoly import fixtures as corpus
from solvpoly.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "fixtures.json")

with open(GOLDEN) as fh:
    EXPECTED = json.load(fh)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_json_output_matches_golden(capsys, case):
    name, *argv = case.split(" ")
    code = main(["--json"] + argv + [corpus.path(name)])
    assert code == 0
    assert capsys.readouterr().out == EXPECTED[case]
