"""Completions, S-pairs and divisions per operation of a benchmark workload.

    python3 tests/pair_counts.py WORKLOAD [TREE]

TREE is the root of a solvpoly checkout (by default the one this file
is in); its ``src`` is imported.  The operations are those of WORKLOAD
in TREE's ``perfbench/corpus/manifest.json``, each a
``cli.main(["--json", ...])`` call with stdout captured, as
``perfbench/run.py`` makes it.  The package's functions are wrapped in
every module that holds them, and the engine's methods on their class:

- ``compl``: completions, calls of ``groebner.buchberger``; ``proj``:
  those of them inside ``syzres.is_projective``;
- ``popped``: pairs popped, calls of ``_Engine.step_pair``;
- ``pruned``: popped pairs that the chain criterion skipped;
- ``zero``: popped pairs that added nothing, not pruned (an S-vector
  that is zero or reduces to zero);
- ``added``: popped pairs that added an element;
- ``spair``: calls of ``groebner._spair_data`` (the completion's pairs
  and the Schreyer rows of ``syzres``);
- ``divs``: calls of ``modfree.left_divide_module``;
- ``zero s``: the seconds of the ``zero`` pairs, the median over ROUNDS
  runs (5), wrappers included.

The counts are those of one run and repeat exactly; the round is their
sum over the operations.  Times are raw seconds on one machine.  Pytest
does not collect this file.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import time

ROUNDS = 5
COLUMNS = ("compl", "proj", "popped", "pruned", "zero", "added", "spair",
           "divs")


def wrap(tally):
    """Wrap the counted functions and methods to add to ``tally``, a
    dict over COLUMNS and ``"zero_s"``."""
    from solvpoly import groebner, modfree, syzres

    depth = {"proj": 0}

    def replace(module, name, make):
        inner = getattr(module, name)
        outer = make(inner)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("solvpoly")
                    and getattr(mod, name, None) is inner):
                setattr(mod, name, outer)

    def counted(column):
        def make(inner):
            def call(*args, **kwargs):
                tally[column] += 1
                return inner(*args, **kwargs)
            return call
        return make

    def buchberger(inner):
        def call(*args, **kwargs):
            tally["compl"] += 1
            tally["proj"] += bool(depth["proj"])
            return inner(*args, **kwargs)
        return call

    def is_projective(inner):
        def call(*args, **kwargs):
            depth["proj"] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth["proj"] -= 1
        return call

    replace(groebner, "buchberger", buchberger)
    replace(syzres, "is_projective", is_projective)
    replace(groebner, "_spair_data", counted("spair"))
    replace(modfree, "left_divide_module", counted("divs"))

    engine = groebner._Engine
    chain, step = engine.chain_prunes, engine.step_pair
    pruned = [False]

    def chain_prunes(eng, i, j):
        pruned[0] = chain(eng, i, j)
        return pruned[0]

    def step_pair(eng, i, j):
        pruned[0] = False
        t0 = time.perf_counter()
        t = step(eng, i, j)
        tally["popped"] += 1
        if t is not None:
            tally["added"] += 1
        elif pruned[0]:
            tally["pruned"] += 1
        else:
            tally["zero"] += 1
            tally["zero_s"] += time.perf_counter() - t0
        return t

    engine.chain_prunes, engine.step_pair = chain_prunes, step_pair


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit("usage: pair_counts.py WORKLOAD [TREE]")
    workload = argv[0]
    tree = os.path.abspath(argv[1] if len(argv) == 2 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir))
    sys.path.insert(0, os.path.join(tree, "src"))
    from solvpoly import cli

    cdir = os.path.join(tree, "perfbench", "corpus")
    with open(os.path.join(cdir, "manifest.json")) as fh:
        ops = json.load(fh)["workloads"][workload]
    tally = dict.fromkeys(COLUMNS + ("zero_s",), 0)
    wrap(tally)
    rows = []
    for op in ops:
        argv = ["--json"] + op["args"] + [
            os.path.join(cdir, op["problem"] + ".json")]
        runs = []
        for _ in range(ROUNDS):
            for key in tally:
                tally[key] = 0
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            runs.append(dict(tally))
        counts = [runs[0][c] for c in COLUMNS]
        rows.append((" ".join(op["args"] + [op["problem"]]), counts,
                     statistics.median(r["zero_s"] for r in runs)))
    rows.append(("round", [sum(r[1][k] for r in rows)
                           for k in range(len(COLUMNS))],
                 sum(r[2] for r in rows)))
    print("%-36s" % workload + "".join("%7s" % c for c in COLUMNS)
          + "%9s" % "zero s")
    for label, counts, zero_s in rows:
        print("%-36s" % label + "".join("%7d" % n for n in counts)
              + "%9.5f" % zero_s)


if __name__ == "__main__":
    main(sys.argv[1:])
