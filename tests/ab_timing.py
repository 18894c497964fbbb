"""Paired in-process A/B timing of two solvpoly trees on one workload.

    python3 tests/ab_timing.py TREE_A TREE_B WORKLOAD ROUNDS

TREE_A and TREE_B are roots of solvpoly checkouts.  Each tree's
``src/solvpoly`` is copied into a temporary directory under its own
package name (``solvpoly_a``, ``solvpoly_b``), so both trees load in one
interpreter.  The operations are those of WORKLOAD in TREE_A's
``perfbench/corpus/manifest.json``, on TREE_A's corpus files, each a
``cli.main(["--json", ...])`` call with stdout captured, as
``perfbench/run.py`` makes it.  Every round runs each operation on both
trees, and the tree that goes first alternates from round to round.
Round 0 must give equal exit codes and stdout on both trees.

Prints, per operation, the median seconds on A and on B and the median
of the per-round B/A ratios (the paired median), then the same for the
round totals (the weighted total).  A ratio below 1 means B is faster.
This is a development aid: the times are raw seconds on one machine,
and a claimed gain is measured with ``perfbench/run.py``.  Pytest does
not collect this file.
"""

import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time


def load_cli(tree, name, where):
    """``cli`` of TREE's package, copied to WHERE/NAME and imported."""
    shutil.copytree(os.path.join(tree, "src", "solvpoly"),
                    os.path.join(where, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name + ".cli")


def run_op(cli, argv):
    """One CLI call: (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return time.perf_counter() - t0, code, out.getvalue()


def main(argv):
    if len(argv) != 4:
        sys.exit("usage: ab_timing.py TREE_A TREE_B WORKLOAD ROUNDS")
    tree_a, tree_b, workload, rounds = argv
    rounds = int(rounds)
    cdir = os.path.join(os.path.abspath(tree_a), "perfbench", "corpus")
    with open(os.path.join(cdir, "manifest.json")) as fh:
        ops = json.load(fh)["workloads"][workload]
    argvs = [["--json"] + op["args"] + [os.path.join(cdir, op["problem"]
                                                     + ".json")]
             for op in ops]
    with tempfile.TemporaryDirectory() as where:
        sys.path.insert(0, where)
        clis = [load_cli(os.path.abspath(tree), name, where)
                for tree, name in ((tree_a, "solvpoly_a"),
                                   (tree_b, "solvpoly_b"))]
        times = [[[], []] for _ in ops]
        for r in range(rounds):
            sides = (0, 1) if r % 2 == 0 else (1, 0)
            for k, args in enumerate(argvs):
                got = {}
                for side in sides:
                    secs, code, out = run_op(clis[side], args)
                    times[k][side].append(secs)
                    got[side] = (code, out)
                if r == 0 and got[0] != got[1]:
                    sys.exit("%s: the trees differ in exit code or stdout"
                             % " ".join(args[1:]))
    rows = [(" ".join(op["args"] + [op["problem"]]), t[0], t[1])
            for op, t in zip(ops, times)]
    rows.append(("total", [sum(t[0][r] for t in times) for r in range(rounds)],
                 [sum(t[1][r] for t in times) for r in range(rounds)]))
    print("%-36s %10s %10s %8s" % (workload, "A median", "B median", "B/A"))
    for label, a, b in rows:
        ratio = statistics.median(y / x for x, y in zip(a, b))
        print("%-36s %10.5f %10.5f %8.4f" % (
            label, statistics.median(a), statistics.median(b), ratio))


if __name__ == "__main__":
    main(sys.argv[1:])
