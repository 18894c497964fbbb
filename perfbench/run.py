"""Run one benchmark workload of solvpoly and print its metrics.

    python3 perfbench/run.py --workload gb-q --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each operation is one ``solvpoly``
subcommand on one problem file of the corpus, called in-process as
``solvpoly.cli.main(["--json", <subcommand>, ..., <file>])`` with stdout
captured.  A round runs every operation of the workload once, in a fixed
order; the run repeats whole rounds until ``--seconds`` have passed and at
least two rounds are done.  Every operation's output is then checked
by ``checks.py``, which does not call the package.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``wall_s``, ``slowest_job_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` the per-layer metrics recorded by the
wrappers in ``tracer.py``.  See README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, ".work")
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

import checks
import corpus
import speed


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def load_cli():
    """Import ``solvpoly.cli`` from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "solvpoly", "cli.py")):
        raise BenchError("no solvpoly sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import solvpoly.cli
    where = os.path.realpath(solvpoly.cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError("solvpoly was imported from %s" % where)
    return solvpoly.cli


def corpus_for(seed):
    """The corpus directory for a seed, built from its parameters.

    The default seed uses the committed files after checking that the
    generator still reproduces them byte for byte.
    """
    files = corpus.build(seed)
    if seed == corpus.DEFAULT_SEED:
        for name, text in files.items():
            path = os.path.join(corpus.CORPUS_DIR, name)
            try:
                with open(path) as fh:
                    same = fh.read() == text
            except OSError:
                same = False
            if not same:
                raise BenchError("%s differs from the generator's output; "
                                 "rerun perfbench/corpus.py" % path)
        return corpus.CORPUS_DIR
    out = os.path.join(WORK_DIR, "seed-%d" % seed)
    corpus.write(files, out)
    return out


def measure_setup(paths):
    """Median over fresh interpreters of import plus parsing every file:
    (raw seconds, seconds at the reference speed)."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC]
            + paths, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("set-up probe failed: %s" % proc.stderr.strip())
        r, s = proc.stdout.split()
        raw.append(float(r))
        scaled.append(float(s))
    return statistics.median(raw), statistics.median(scaled)


def run_op(cli, argv, tracer=None):
    """One CLI call: (start, end, exit code or exception text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:       # argparse exits on a bad command line
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not the run's
        code = "%s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_op(out.getvalue())
    return t0, t1, code, out.getvalue()


def run_rounds(cli, ops, cdir, seconds, tracer=None):
    """Whole rounds until time is up.

    Returns per-op (start, end) intervals, round-0 results, the number of
    rounds, whether every round gave the same results, and the speed
    samples taken meanwhile.
    """
    argvs = [["--json"] + op["args"] + [os.path.join(cdir, op["problem"]
                                                     + ".json")]
             for op in ops]
    times = [[] for _ in ops]
    first = [None] * len(ops)
    stable = True
    rounds = 0
    sampler = speed.SpeedSampler()
    sampler.start()
    start = time.perf_counter()
    try:
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.begin_round()
            for i, argv in enumerate(argvs):
                t0, t1, code, out = run_op(cli, argv, tracer)
                times[i].append((t0, t1))
                if first[i] is None:
                    first[i] = (code, out)
                elif first[i] != (code, out):
                    stable = False
            rounds += 1
    finally:
        sampler.stop()
    return times, first, rounds, stable, sampler


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        cli = load_cli()
        cdir = corpus_for(args.seed)
    except (BenchError, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    with open(os.path.join(cdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    ops = manifest["workloads"][args.workload]
    paths = sorted({os.path.join(cdir, op["problem"] + ".json")
                    for op in ops})

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        try:
            setup_raw_s, setup_s = measure_setup(paths)
        except (BenchError, subprocess.SubprocessError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2

    times, first, rounds, stable, sampler = run_rounds(
        cli, ops, cdir, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    cross = None
    if args.workload in manifest["cross"]:
        if tracer is not None:
            tracer.detach()
        op = manifest["cross"][args.workload]
        _, _, code, out = run_op(cli, ["--json"] + op["args"] + [
            os.path.join(cdir, op["problem"] + ".json")])
        cross = (code, out)
    verdicts = checks.check_workload(manifest, args.workload, cdir, first,
                                     cross)
    failed_ops = 0
    correct = stable and checks.corruption_rejected(manifest, args.workload,
                                                    cdir, first)
    medians = [statistics.median(sampler.seconds(t0, t1) for t0, t1 in t)
               for t in times]
    raw = [statistics.median(t1 - t0 for t0, t1 in t) for t in times]
    for op, (code, _), med, raw_med, verdict in zip(ops, first, medians, raw,
                                                    verdicts):
        ok = code == op["expect"] and verdict is None
        if not ok:
            failed_ops += 1
            # A wrong answer is incorrect; a crash or a wrong exit code is
            # a failed operation only.
            if code == op["expect"]:
                correct = False
        print("%-8s %8.4f s  (raw %8.4f s)  %-4s %s %s%s" % (
            args.workload, med, raw_med, "ok" if ok else "FAIL",
            " ".join(op["args"]), op["problem"],
            "" if ok else "  (%s)" % (verdict or "exit %s, want %s"
                                      % (code, op["expect"]))))

    if tracer is None:
        metrics = {
            "wall_s": {"value": sum(medians), "unit": "s"},
            "slowest_job_s": {"value": max(medians), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(sum(medians))
        correct = correct and tracer.counts_repeat()
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, "trace-%s-seed%d.json"
                                  % (args.workload, args.seed)))
    print("%d rounds of %d operations; raw wall %.4f s, raw slowest %.4f s"
          % (rounds, len(ops), sum(raw), max(raw)))
    if tracer is None:
        print("raw setup %.4f s" % setup_raw_s)
    print(json.dumps({"correct": correct, "attempted": rounds * len(ops),
                      "failed": rounds * failed_ops, "metrics": metrics},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
