"""Top-level product-cache misses per operation of a benchmark workload.

    python3 tests/product_misses.py TREE WORKLOAD

TREE is the root of a solvpoly checkout; its ``src`` is imported.  The
operations are those of WORKLOAD in TREE's
``perfbench/corpus/manifest.json``, each a ``cli.main(["--json", ...])``
call with stdout captured, as ``perfbench/run.py`` makes it, so each
starts with a cold product cache.  ``SolvableAlgebra.mono_mul`` is
wrapped: a call that is not nested in another ``mono_mul`` call and
whose key is not in ``product_cache`` is a top-level miss, and the
wrapper times it, the products it asks for on the way included.

The engine's products on module codes come from the order's table
(``codes._Products``).  ``_Products.fill`` is wrapped too: it counts
the table's fills and the ``mono_mul`` calls they make themselves.  On
a table with Weyl pairs a fill forms its product on codes and makes no
such call, so there the misses leave out the product work of the
division; the fills count it.

Prints, per operation, the number of top-level misses, the median
seconds of the operation and of its misses over ROUNDS runs (5), the
misses' share of the operation's time, the table fills and the
``mono_mul`` calls made by fills; then the same for the whole round.
The wrappers cost a little on every call, so the operation times are a
little above those of an unwrapped run.  Times are raw seconds on one
machine.  Pytest does not collect this file.
"""

import contextlib
import gc
import io
import json
import os
import statistics
import sys
import time

ROUNDS = 5


def wrap_products(algebra_cls, products_cls, tally):
    """Wrap ``algebra_cls.mono_mul`` and ``products_cls.fill`` to add to
    ``tally``, ``[misses, seconds, fills, mono_mul calls of fills]``,
    each top-level miss, its time, each fill and each ``mono_mul`` call
    a fill makes itself."""
    inner, inner_fill = algebra_cls.mono_mul, products_cls.fill
    depth = [0]
    filling = [0]

    def fill(table, *args):
        tally[2] += 1
        filling[0] += 1
        try:
            return inner_fill(table, *args)
        finally:
            filling[0] -= 1

    def mono_mul(alg, a, b):
        if filling[0] and not depth[0]:
            tally[3] += 1
        if depth[0] or (a, b) in alg.product_cache:
            return inner(alg, a, b)
        depth[0] += 1
        t0 = time.perf_counter()
        try:
            return inner(alg, a, b)
        finally:
            tally[1] += time.perf_counter() - t0
            tally[0] += 1
            depth[0] -= 1

    algebra_cls.mono_mul = mono_mul
    products_cls.fill = fill


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: product_misses.py TREE WORKLOAD")
    tree, workload = os.path.abspath(argv[0]), argv[1]
    sys.path.insert(0, os.path.join(tree, "src"))
    from solvpoly import cli
    from solvpoly.algebra import SolvableAlgebra
    from solvpoly.codes import _Products

    cdir = os.path.join(tree, "perfbench", "corpus")
    with open(os.path.join(cdir, "manifest.json")) as fh:
        ops = json.load(fh)["workloads"][workload]
    tally = [0, 0.0, 0, 0]
    wrap_products(SolvableAlgebra, _Products, tally)
    rows = []
    for op in ops:
        argv = ["--json"] + op["args"] + [
            os.path.join(cdir, op["problem"] + ".json")]
        runs = []
        for _ in range(ROUNDS):
            tally[:] = [0, 0.0, 0, 0]
            gc.collect()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            runs.append((time.perf_counter() - t0, *tally))
        rows.append((" ".join(op["args"] + [op["problem"]]),
                     runs[0][1],
                     statistics.median(r[0] for r in runs),
                     statistics.median(r[2] for r in runs),
                     runs[0][3], runs[0][4]))
    rows.append(("total",) + tuple(sum(r[k] for r in rows)
                                   for k in range(1, 6)))
    print("%-36s %8s %10s %10s %7s %7s %8s" % (
        workload, "misses", "op s", "misses s", "share", "fills",
        "fill mm"))
    for label, misses, op_s, miss_s, fills, fill_mm in rows:
        print("%-36s %8d %10.5f %10.5f %6.1f%% %7d %8d" % (
            label, misses, op_s, miss_s, 100 * miss_s / op_s, fills,
            fill_mm))


if __name__ == "__main__":
    main(sys.argv[1:])
