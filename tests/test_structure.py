"""Structure of the package source, read from its syntax trees.

Every sum of ring products over rows goes through one accumulator,
``modfree._IntSum``: the product of matrices over the algebra
(``PresentationMatrix.compose_with``), the transition-matrix rows
(``_Trace.rows``), the S-vectors (``groebner._spair_data``) and left
multiples (``Vect.lmul``) are the only places that construct one.
The two-sided divisor list, ``presentation._FreeDivisors``, is prepared
only through its ``of`` path: by ``free_divide``, and once up front by
the presentation check and the bounded completion, which hand it on.
"""

import ast
import glob
import os

import solvpoly

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(solvpoly.__file__),
                                        "*.py")))


def _constructions(name):
    """(module, enclosing class.function) of every call of ``name``, a
    plain name or a dotted ``Class.method``."""
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
                    if isinstance(f, ast.Attribute) and isinstance(
                            f.value, ast.Name):
                        dotted = "%s.%s" % (f.value.id, f.attr)
                    else:
                        dotted = None
                    if name in (called, dotted):
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


def test_the_free_divisor_list_is_prepared_only_through_of():
    assert _constructions("_FreeDivisors") == []
    assert sorted(_constructions("_FreeDivisors.of")) == [
        ("presentation", "bounded_completion"),
        ("presentation", "free_divide"),
        ("presentation", "verify_presentation"),
    ]
