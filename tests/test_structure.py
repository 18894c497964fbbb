"""Structure of the package source, read from its syntax trees.

Every sum of ring products over rows goes through one accumulator,
``modfree._IntSum``: the product of matrices over the algebra
(``PresentationMatrix.compose_with``), the transition-matrix rows
(``_Trace.rows``), the S-vectors (``groebner._spair_data``) and left
multiples (``Vect.lmul``) are the only places that construct one.
"""

import ast
import glob
import os

import solvpoly

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(solvpoly.__file__),
                                        "*.py")))


def _constructions(name):
    """(module, enclosing class.function) of every call of ``name``."""
    found = []
    for path in SOURCES:
        module = os.path.basename(path)[:-3]

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    inner = scope + [child.name]
                if isinstance(child, ast.Call):
                    f = child.func
                    called = f.id if isinstance(f, ast.Name) else getattr(
                        f, "attr", None)
                    if called == name:
                        found.append((module, ".".join(scope)))
                walk(child, inner)

        with open(path) as fh:
            walk(ast.parse(fh.read(), path), [])
    return found


def test_one_accumulator_for_sums_of_products_over_rows():
    assert sorted(_constructions("_IntSum")) == [
        ("groebner", "_Trace.rows"),
        ("groebner", "_spair_data"),
        ("modfree", "Vect.lmul"),
        ("syzres", "PresentationMatrix.compose_with"),
    ]
