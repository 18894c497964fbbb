"""Run every ``--json`` command variant on every problem file of a tree.

    python3 tests/output_sweep.py TREE OUT.json
    python3 tests/output_sweep.py --diff A.json B.json

TREE is the root of a solvpoly checkout.  The problem files are the six
bundled fixtures (``src/solvpoly/fixtures``) and the benchmark corpus
(``perfbench/corpus``, without its manifest); each gets the 14 commands
plus ``gb --reduce``, ``gb --truncate 3``, ``verify-presentation
--max-steps 3``, ``graded-resolve --betti`` and ``oracle-staircase
--oracle-degree 3``.  Each invocation runs in its own interpreter with
``PYTHONPATH=TREE/src`` and a 10 s timeout.  OUT.json maps ``"<file>
<command>"`` (the file relative to TREE) to ``[exit code, sha256 of
stdout, stderr]``, or to ``["timeout", null, null]``.  Two trees give
byte-identical output where their maps are equal.

``--diff A.json B.json`` compares two such maps: it prints each
invocation whose ``[exit, sha256, stderr]`` differs, or that only one
map has, and exits 1 if there is any, else 0.  The slowest
invocation, ``pdim`` on ``perfbench/corpus/c44-q.json``, takes about
1.3 s on 2 cores under Python 3.11 since the completion selects pairs
by sugar (10 to 11 s before, at the timeout), and
``tests/test_syzres.py`` checks its output.  The invocations that
eliminate unit pivots, on integer rows since the maps of a resolution
stay integer rows, are ``filtered-resolve`` on the four GKZ files of
the corpus (``gkz-q``, ``gkz-p``, ``gkz-p-member``,
``gkz-p-nonmember``): 3, 16, 33, 31 and 12 pivots on the frame's maps
from the top down.  No other invocation has a pivot, weyl1's
``filtered-resolve`` included.  The only invocations that splice in
``pdim``, on integer rows, are those on the three c44 files of the
corpus (once: the 4 x 7 map is right invertible) and on the four GKZ
files (twice: the 3 x 19 and 19 x 54 maps).  Pytest does not collect
this file.
"""

import glob
import hashlib
import json
import os
import subprocess
import sys

COMMANDS = [
    ["verify-presentation"],
    ["verify-presentation", "--max-steps", "3"],
    ["gb"],
    ["gb", "--reduce"],
    ["gb", "--truncate", "3"],
    ["member"],
    ["syz"],
    ["resolve"],
    ["pdim"],
    ["graded-check"],
    ["min-gens"],
    ["graded-resolve"],
    ["graded-resolve", "--betti"],
    ["assoc-graded"],
    ["rees"],
    ["filtered-resolve"],
    ["transfer-check"],
    ["oracle-staircase"],
    ["oracle-staircase", "--oracle-degree", "3"],
]
TIMEOUT_S = 10


def problem_files(tree):
    fixtures = sorted(glob.glob(os.path.join(
        tree, "src", "solvpoly", "fixtures", "*.json")))
    corpus = sorted(f for f in glob.glob(os.path.join(
        tree, "perfbench", "corpus", "*.json"))
        if os.path.basename(f) != "manifest.json")
    return fixtures + corpus


def sweep(tree):
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = {}
    for path in problem_files(tree):
        rel = os.path.relpath(path, tree)
        for command in COMMANDS:
            argv = [sys.executable, "-m", "solvpoly.cli", "--json",
                    command[0]] + command[1:] + [path]
            try:
                done = subprocess.run(argv, env=env, capture_output=True,
                                      timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                result = ["timeout", None, None]
            else:
                result = [done.returncode,
                          hashlib.sha256(done.stdout).hexdigest(),
                          done.stderr.decode(errors="replace")]
            out["%s %s" % (rel, " ".join(command))] = result
    return out


def diff(path_a, path_b):
    """``(invocation, result in A, result in B)`` for each invocation
    whose results differ between two sweep maps (None where absent)."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    return [(key, a.get(key), b.get(key)) for key in sorted(set(a) | set(b))
            if a.get(key) != b.get(key)]


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        changed = diff(argv[1], argv[2])
        for key, got_a, got_b in changed:
            print("%s\n  A: %s\n  B: %s" % (key, json.dumps(got_a),
                                           json.dumps(got_b)))
        sys.exit(1 if changed else 0)
    if len(argv) != 2:
        sys.exit("usage: output_sweep.py TREE OUT.json | "
                 "--diff A.json B.json")
    tree, out_path = argv
    results = sweep(tree)
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
