"""Structure of the package source, read from its syntax trees.

Every sum of ring products over rows goes through one accumulator,
``modfree._IntSum``, with one summation loop on one order's codes: the
product of matrices over the algebra
(``PresentationMatrix.compose_with``), the transition-matrix rows
(``_Trace.rows``), the S-vectors (``groebner._spair_data``), left
multiples (``Vect.lmul``) and the unit-pivot elimination
(``graded.prune_unit_pivots``) are the only places that construct one.
The two-sided divisor list, ``presentation._FreeDivisors``, is prepared
from free polynomials only through its ``of`` path: by ``free_divide``,
and once up front by the presentation check and the bounded completion,
which hand it on; the inter-reduction of the completion makes its
lists from the monic rows it holds, through ``of_entries``.  The
presentation check and the bounded completion divide
integer rows: payloads are made only at their edges.
Every name the benchmark's tracer wraps exists where it looks for it.
Polynomials, module vectors and free-algebra elements share one term
container, ``coeff._Terms``, and none writes its members again.
Inside the completion no payload is built (the pair step, the join of
a new element, the S-vector, the division and U's rows), and a payload
row is converted to integer form only where it enters from a caller.
The maps of a resolution stay integer rows from the Schreyer frame
through the cancellation of scalar entries, the right inverse and the
splice of ``pdim`` to the printed JSON, and so does every printed
vector.
The division loop, the S-vector sum and the accumulator's summation
loop run on the order's int codes: they key no monomial and build no
tuple per row term or product term.  No source module is larger than
45 300 bytes.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
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
        ("graded", "prune_unit_pivots"),
        ("groebner", "_Trace.rows"),
        ("groebner", "_spair_data"),
        ("modfree", "Vect.lmul"),
        ("syzres", "PresentationMatrix.compose_with"),
    ]


def test_the_free_divisor_list_is_prepared_only_through_of():
    """Free polynomials become divisor rows only through ``of``; the
    inter-reduction of the bounded completion makes its lists from the
    monic rows it already holds, through ``of_entries``."""
    assert _constructions("_FreeDivisors") == []
    assert sorted(_constructions("_FreeDivisors.of")) == [
        ("presentation", "bounded_completion"),
        ("presentation", "free_divide"),
        ("presentation", "verify_presentation"),
    ]
    assert sorted(set(_constructions("_FreeDivisors.of_entries"))) == [
        ("presentation", "bounded_completion")]


def test_the_tracer_finds_every_name_it_wraps():
    """``perfbench/tracer.py`` wraps hot methods through the class
    dictionary (``cls.__dict__[name]``), hot helpers by their module
    names and the CLI's command table: a name deleted from the package
    would fail a traced benchmark run."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def module(layer):
        return importlib.import_module("solvpoly." + layer)

    for (layer, cls_name), methods in tracer.HOT_METHODS.items():
        cls = getattr(module(layer), cls_name)
        for meth in methods:
            assert meth in cls.__dict__, (cls_name, meth)
    for layer, names in tracer.HOT_FUNCTIONS.items():
        for name in names:
            assert inspect.isfunction(getattr(module(layer), name, None)), (
                layer, name)
    assert isinstance(module("cli")._COMMANDS, dict)


def test_the_term_containers_share_one_base():
    """``Poly``, ``Vect`` and ``FreePoly`` take immutability, the zero
    test, sums, equality and hashing from ``coeff._Terms`` and write
    none of them again; only ``_IntVect`` tests for zero itself, on its
    codes."""
    shared = {"_combined", "__eq__", "__hash__", "__setattr__", "is_zero",
              "__bool__"}
    terms = importlib.import_module("solvpoly.coeff")._Terms
    assert shared <= set(terms.__dict__)
    for layer, cls_name in (("algebra", "Poly"), ("modfree", "Vect"),
                            ("presentation", "FreePoly")):
        cls = getattr(importlib.import_module("solvpoly." + layer), cls_name)
        assert issubclass(cls, terms), cls_name
        assert not shared & set(cls.__dict__), cls_name
    int_vect = importlib.import_module("solvpoly.modfree")._IntVect
    assert shared & set(int_vect.__dict__) == {"is_zero", "__bool__"}


def test_no_payloads_inside_the_completion():
    """The pair step, the join of a new element, the S-vector, the
    division and the rows of U work on integer rows only: none of them
    builds a Fraction, converts payloads to or from ints, or scales a
    Vect."""
    inside = {
        ("groebner", "_Engine.step_pair"),
        ("groebner", "_Engine.append"),
        ("groebner", "_spair_data"),
        ("groebner", "GroebnerBasis.U_ints"),
        ("modfree", "_divide"),
        ("modfree", "left_divide_module"),
    }
    assert inside <= set(_functions())
    for name in ("Fraction", "_from_ints", "_to_ints", "scale"):
        assert not inside & set(_constructions(name)), name


def test_no_payloads_inside_the_presentation_check():
    """The division kernel, the overlap rows, the divisor list, the
    presentation check and the bounded completion work on integer rows:
    none of them builds a Fraction, a Word or a free polynomial, reads
    leading data off a free polynomial or calls the payload edges
    ``free_divide`` and ``overlap_elements``.  Payloads are made from
    rows only by ``_free_poly`` (the results of ``free_divide`` and
    ``overlap_elements``, a failure's residual and the completed
    basis), besides the lambdas the check reads off its rows and the
    trace of ``free_divide``.  The relations of a problem file are
    parsed without an algebra."""
    inside = {"_reduce", "_overlaps", "_monic", "_FreeDivisors",
              "verify_presentation", "bounded_completion"}
    assert {("presentation", f) for f in inside} <= set(_functions())

    def callers(name):
        return {f for m, f in _constructions(name) if m == "presentation"}

    for name in ("Fraction", "Word", "FreePoly", "FreePoly._of",
                 "_add_scaled", "inverse", "lm", "lc", "monic", "scale",
                 "sandwich", "free_divide", "overlap_elements"):
        assert not [f for f in callers(name)
                    if f.split(".")[0] in inside], name
    assert callers("Fraction") == {"free_divide"}
    assert callers("FreePoly._of") == {"FreePoly._like", "_free_poly"}
    assert callers("_from_ints") == {"_free_poly", "verify_presentation"}
    assert callers("_free_poly") == {"free_divide", "overlap_elements",
                                     "verify_presentation",
                                     "bounded_completion"}
    for name in ("SolvableAlgebra", "multiply", "parse", "Word"):
        assert ("cli", "_free_relations") not in _constructions(name), name


def test_payload_rows_become_integer_rows_only_where_they_enter():
    """A row of ring elements is converted to integer form only where a
    caller hands one in: the given rows of a trace and the rows a matrix
    is constructed from.  Everything the package makes stays in integer
    form until it is read."""
    assert sorted(_constructions("_row_to_ints")) == [
        ("groebner", "_Trace.given"),
        ("syzres", "PresentationMatrix.__init__"),
    ]


def test_resolution_maps_stay_integer_rows():
    """The unit-pivot elimination, the cancellation of scalar entries,
    their search, the right inverse, the splice of ``pdim`` and the
    printers of a resolution map and of a vector work on integer rows
    from the Schreyer frame to stdout: none of them converts rows to or
    from payload polynomials, reverses a payload polynomial, reads a
    matrix's ``entries`` or a vector's ``data``, or builds a
    Fraction."""
    inside = [("graded", "prune_unit_pivots"),
              ("graded", "_cancel_scalar_entries"),
              ("graded", "_scalar_columns"),
              ("graded", "_renumbered"),
              ("graded", "scalar_entry_positions"),
              ("syzres", "is_projective"),
              ("syzres", "_reversed_transpose"),
              ("syzres", "_by_column"),
              ("syzres", "projective_dimension"),
              ("modfree", "_top_row"),
              ("cli", "_matrix_out"),
              ("cli", "_vect_out")]
    assert set(inside) <= set(_functions())
    for name in ("to_polys", "from_polys", "reversed_poly", "Fraction",
                 "_to_ints", "_from_ints", "_row_to_ints"):
        assert not [(m, f) for m, f in _constructions(name)
                    if (m, f.split(".")[0]) in inside], name
    for module, qualname in inside:
        for node in ast.walk(_function_node(module, qualname)):
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("entries", "data")), qualname


def _functions():
    """(module, Class.method or function) of every function defined."""
    found = []
    for path in SOURCES:
        module = os.path.basename(path)[:-3]

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    found.append((module, ".".join(scope + [child.name])))
                    walk(child, scope + [child.name])

        with open(path) as fh:
            walk(ast.parse(fh.read(), path), [])
    return found


def _function_node(module, qualname):
    """The syntax tree of ``module``'s function ``qualname``."""
    path = os.path.join(os.path.dirname(solvpoly.__file__), module + ".py")
    with open(path) as fh:
        node = ast.parse(fh.read(), path)
    for name in qualname.split("."):
        node = next(child for child in ast.iter_child_nodes(node)
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                    and child.name == name)
    return node


def _row_term_loops(fn):
    """The ``for`` loops of ``fn`` over a row's terms (``X.items()``) or
    over a product's terms, whatever they are called: every loop over a
    name or over the result of a call (such as ``mono_mul(a, e)``), so
    all but the loops over a literal tuple or list."""
    for node in ast.walk(fn):
        if isinstance(node, ast.For) and not isinstance(
                node.iter, (ast.Tuple, ast.List)):
            yield node


def test_the_division_kernel_runs_on_order_codes():
    """Inside the division loop, the S-vector sum and the accumulator's
    summation loop themselves no monomial is keyed by the order or
    shifted as an exponent tuple, and no tuple is built for a term of a
    row or of a product: each product a^alpha * m is the code of m plus
    the step of a^alpha, read from the order's table of products
    (``codes._Products``)."""
    kernel = [("modfree", "_divide"), ("groebner", "_spair_data"),
              ("modfree", "_IntSum.add")]
    banned = {"key", "_key", "exp_add", "exp_sub"}
    for module, qualname in kernel:
        fn = _function_node(module, qualname)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                assert called not in banned, (qualname, called)
        for loop in _row_term_loops(fn):
            for stmt in loop.body:
                for node in ast.walk(stmt):
                    assert not (isinstance(node, ast.Tuple)
                                and isinstance(node.ctx, ast.Load)), qualname
                    assert not (isinstance(node, ast.Call)
                                and isinstance(node.func, ast.Name)
                                and node.func.id == "tuple"), qualname
    for module, qualname in (("modfree", "_divide"),
                             ("modfree", "_IntSum.add")):
        assert list(_row_term_loops(_function_node(module, qualname)))


def test_one_summation_loop_in_the_accumulator():
    """``_IntSum`` sums products over rows in one method: no other of
    its methods holds a loop inside a loop."""
    cls = _function_node("modfree", "_IntSum")
    nested = [fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and any(isinstance(inner, ast.For) and inner is not loop
                      for loop in ast.walk(fn) if isinstance(loop, ast.For)
                      for inner in ast.walk(loop))]
    assert nested == ["add"]


# The benchmark compiles the package from source, and compiling the
# largest module sets its peak memory (ROADMAP item 2).
MAX_MODULE_BYTES = 45300


def test_no_module_is_larger_than_the_bound():
    sizes = {os.path.basename(path): os.path.getsize(path)
             for path in SOURCES}
    assert max(sizes.values()) <= MAX_MODULE_BYTES, sizes
