"""List the package functions that no CLI invocation of the sweep calls.

    python3 tests/reach.py TREE

TREE is the root of a solvpoly checkout.  Every invocation of
``tests/output_sweep.py`` (each problem file of TREE with each command
variant) runs in this one process, through ``solvpoly.cli.main`` with
its output discarded, under ``sys.setprofile``.  The script then prints,
per module of ``TREE/src/solvpoly``, each function or method whose code
never ran, with its first line and its length in lines (decorators
included), and the totals.  A function that ``TREE/perfbench/tracer.py``
wraps (``HOT_METHODS``, ``HOT_FUNCTIONS``) is marked ``[traced]``: the
benchmark reads it from its class or module, so it cannot go with the
rest.  A hot method is marked where it is defined, which may be a base
class of the class the tracer names.  Pytest does not collect this file.
"""

import ast
import contextlib
import glob
import importlib
import io
import os
import sys

import output_sweep


def functions(path):
    """``{first line: (qualified name, lines)}`` of every def in a file;
    the first line is that of the first decorator, as the code object
    has it."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[first] = (prefix + child.name,
                                child.end_lineno - first + 1)
                walk(child, prefix + child.name + ".")

    walk(tree, "")
    return found


def traced_names(tree):
    """``{module: qualified names}`` of the functions that the
    benchmark's tracer wraps: a hot method by the function its class
    dictionary holds, named where it is defined.  Run after the sweep,
    which imports the package of TREE."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    names = {}
    for (module, cls), methods in tracer.HOT_METHODS.items():
        held = vars(importlib.import_module("solvpoly." + module))[cls]
        for m in methods:
            fn = held.__dict__[m]
            names.setdefault(fn.__module__.rsplit(".", 1)[-1], set()).add(
                fn.__qualname__)
    for module, funcs in tracer.HOT_FUNCTIONS.items():
        names.setdefault(module, set()).update(funcs)
    return names


def run_sweep(tree):
    """The ``(file, first line)`` of every code object that ran."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, os.path.join(tree, "src"))
    sys.setprofile(profile)
    try:
        from solvpoly import cli
        for path in output_sweep.problem_files(tree):
            for command in output_sweep.COMMANDS:
                argv = ["--json", command[0]] + command[1:] + [path]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        cli.main(argv)
                    except SystemExit:
                        pass
    finally:
        sys.setprofile(None)
    return seen


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: reach.py TREE")
    tree = os.path.abspath(argv[0])
    seen = run_sweep(tree)
    traced = traced_names(tree)
    total_funcs = total_lines = 0
    for path in sorted(glob.glob(os.path.join(tree, "src", "solvpoly",
                                              "*.py"))):
        module = os.path.basename(path)[:-3]
        path = os.path.realpath(path)
        missed = [(first, name, lines)
                  for first, (name, lines) in sorted(functions(path).items())
                  if (path, first) not in seen]
        if not missed:
            continue
        lines_here = sum(lines for _, _, lines in missed)
        print("%s: %d functions, %d lines"
              % (module, len(missed), lines_here))
        for first, name, lines in missed:
            mark = "  [traced]" if name in traced.get(module, ()) else ""
            print("  %5d  %-40s %4d%s" % (first, name, lines, mark))
        total_funcs += len(missed)
        total_lines += lines_here
    print("total: %d functions, %d lines" % (total_funcs, total_lines))


if __name__ == "__main__":
    main(sys.argv[1:])
