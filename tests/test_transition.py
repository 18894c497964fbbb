"""The transition matrix V: derived from the completion's trace on first
read, and only where something reads it.

``elements = V * inputs`` is checked with the word-rewriting product of
``tests/oracles.py``, which shares nothing with the library's monomial
product, over Q and over prime fields.  The rows are summed on plain
ints, so reading V runs no payload arithmetic.
"""

import contextlib
import io
import json
import os
import random

import pytest

import solvpoly.cli as cli
import solvpoly.coeff as coeff
import solvpoly.groebner as groebner
import solvpoly.modfree as modfree
import solvpoly.syzres as syzres
from solvpoly import fixtures
from solvpoly.cli import main, parse_problem
from solvpoly.coeff import FieldSpec
from solvpoly.groebner import (
    GroebnerBasis,
    buchberger,
    minimalize,
    reduce_basis,
)
from solvpoly.graded import truncated_gb
from solvpoly.modfree import FreeModule, ModOrder
from solvpoly.syzres import PresentationMatrix, is_projective

import oracles
from conftest import opposite_basis, over, random_poly, random_vect

BENCH_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "corpus")
FIXTURES = ["comm2", "weyl1", "qplane", "ex12", "ex14", "qheis"]


def combination(G):
    """sum_j V[k][j] * inputs[j] for every k, by the reference product."""
    out = []
    for row in G.V:
        polys = [G.module.algebra.zero() for _ in range(G.module.rank)]
        for f, xi in zip(row, G.inputs):
            for c, g in enumerate(xi.to_polys()):
                polys[c] = polys[c] + oracles.reference_product(f, g)
        out.append(G.module.from_polys(polys))
    return out


def assert_V(G):
    assert len(G.V) == len(G.elements)
    assert all(len(row) == len(G.inputs) for row in G.V)
    assert combination(G) == G.elements


@pytest.mark.parametrize("name", FIXTURES)
def test_products_agree_with_word_rewriting(name):
    A = fixtures.load(name).algebra
    rnd = random.Random(8)
    for _ in range(20):
        f = random_poly(A, rnd, max_degree=4)
        g = random_poly(A, rnd, max_degree=4)
        assert A.multiply(f, g) == oracles.reference_product(f, g)


@pytest.mark.parametrize("kind", ["top", "pot"])
@pytest.mark.parametrize("name", FIXTURES)
def test_V_writes_every_basis_in_the_inputs(name, kind):
    """Seeded random rank-2 submodules: V of buchberger, minimalize and
    reduce_basis, with the basis's own V read before or after the
    derived ones, and the right basis as ``is_projective`` computes it,
    a left basis of the reversed inputs over ``A.opposite()``."""
    A = fixtures.load(name).algebra
    L = FreeModule(A, 2)
    order = ModOrder(kind, A.order, 2)
    rnd = random.Random(len(name) * 31 + len(kind))
    for trial in range(3):
        gens = [random_vect(L, rnd, max_degree=2, max_terms=2, nonzero=True)
                for _ in range(rnd.randint(2, 3))]
        G = buchberger(gens, order)
        derived = [minimalize(G), reduce_basis(G)]
        if trial % 2:
            assert_V(G)
            derived.append(reduce_basis(G))
        for D in derived:
            assert_V(D)
        assert_V(G)
        if trial == 0:
            R = opposite_basis(gens, order)
            assert_V(R)
            assert_V(minimalize(R))


@pytest.mark.parametrize("name", FIXTURES)
def test_V_given_as_rows(name):
    """V rows passed to the constructor become given steps of a fresh
    trace: they read back unchanged, and the bases derived from them
    write their elements in the inputs."""
    A = fixtures.load(name).algebra
    L = FreeModule(A, 2)
    order = ModOrder("top", A.order, 2)
    rnd = random.Random(len(name) * 13)
    gens = [random_vect(L, rnd, max_degree=2, max_terms=2, nonzero=True)
            for _ in range(3)]
    G = buchberger(gens, order)
    H = GroebnerBasis(L, order, G.elements, gens, G.V)
    assert H.V == G.V
    assert reduce_basis(H).V == reduce_basis(G).V
    assert_V(reduce_basis(H))


@pytest.mark.parametrize("p", [7, 32003])
@pytest.mark.parametrize("name", FIXTURES)
def test_V_over_prime_fields(name, p):
    """A row's sums are reduced mod p once, at its end; over GF(7) they
    wrap many times before that."""
    A = over(FieldSpec("PrimeField", p), name)
    L = FreeModule(A, 2)
    order = ModOrder("top", A.order, 2)
    rnd = random.Random(p + len(name))
    for trial in range(3):
        gens = [random_vect(L, rnd, max_degree=2, max_terms=2, nonzero=True)
                for _ in range(rnd.randint(2, 3))]
        G = buchberger(gens, order)
        assert_V(reduce_basis(G))
        assert_V(G)
        if trial == 0:
            assert_V(opposite_basis(gens, order))


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("name", FIXTURES)
def test_U_writes_every_input_in_the_basis(name, p):
    """inputs = U * elements by the reference product, for the seeded
    TOP submodules of the V test (over GF(7) from the same seeds), for
    buchberger and reduce_basis; U holds the division's quotients."""
    A = over(FieldSpec("PrimeField", p), name) if p else fixtures.load(
        name).algebra
    L = FreeModule(A, 2)
    order = ModOrder("top", A.order, 2)
    rnd = random.Random(len(name) * 31 + len("top"))
    for _ in range(2):
        gens = [random_vect(L, rnd, max_degree=2, max_terms=2, nonzero=True)
                for _ in range(rnd.randint(2, 3))]
        G = buchberger(gens, order)
        for B in (G, reduce_basis(G)):
            rows = [g.to_polys() for g in B.elements]
            assert oracles.reference_matrix_product(A, B.U, rows, 2) == [
                v.to_polys() for v in gens]


def test_V_rows_run_no_payload_arithmetic(monkeypatch):
    """Reading V over Q never calls the payload kernel ``_add_scaled``;
    on qheis (lambda = 1/2) monomial products carry denominators."""
    sl2 = parse_problem(os.path.join(BENCH_CORPUS, "sl2-4-q.json"))
    A = fixtures.load("qheis").algebra
    L = FreeModule(A, 2)
    order = ModOrder("top", A.order, 2)
    rnd = random.Random(9)
    gens = [random_vect(L, rnd, max_degree=2, max_terms=2, nonzero=True)
            for _ in range(3)]
    bases = [reduce_basis(buchberger(sl2.generators, sl2.mod_order)),
             reduce_basis(buchberger(gens, order))]
    calls = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapped

    for module in (coeff, modfree, groebner):
        monkeypatch.setattr(module, "_add_scaled",
                            counted(module._add_scaled))
    for G in bases:
        assert G.V
    monkeypatch.undo()
    assert calls == []
    assert_V(bases[1])


def test_is_projective_builds_only_the_rows_it_reads(monkeypatch):
    """(x^2, y^2, x, y) is right invertible in the Weyl algebra; the
    right division of 1 uses three of the five basis elements."""
    A = fixtures.load("weyl1").algebra
    Q = PresentationMatrix(A, [[A.parse(s) for s in ("x^2", "y^2", "x",
                                                      "y")]])
    bases = []
    complete = syzres.buchberger
    evaluated = []

    class Counting(groebner._IntSum):
        def finish(self, s=1):
            evaluated.append(1)
            return super().finish(s)

    def recording(*args, **kwargs):
        bases.append(complete(*args, **kwargs))
        evaluated.clear()
        return bases[-1]

    monkeypatch.setattr(groebner, "_IntSum", Counting)
    monkeypatch.setattr(syzres, "buchberger", recording)
    flag, V = is_projective(Q)
    assert flag
    assert oracles.reference_matrix_product(A, Q.entries, V.entries,
                                            1) == [[A.one()]]
    # the trace evaluates fewer steps than the basis has elements, and
    # keeps only the rows read
    assert 0 < len(evaluated) < len(bases[0].elements)
    assert 0 < len(bases[0]._trace.done) <= len(evaluated)


def _V_strings(G):
    A = G.module.algebra
    return [[A.poly_str(f) for f in row] for row in G.V]


@pytest.mark.parametrize("name", ["c44-p", "sl2-4-q"])
def test_V_keeps_only_the_rows_asked_for_and_given(name):
    """After ``G.V`` the trace holds only the rows it was asked for and
    the given ones; an evaluated row that only others read is dropped,
    and its recipe stays, so the reduced basis read afterwards on the
    same trace gets the same V as one read on a fresh completion."""
    path = os.path.join(BENCH_CORPUS, name + ".json")
    pf = parse_problem(path)
    G = buchberger(pf.generators, pf.mod_order)
    R = reduce_basis(G)
    want = _V_strings(R)
    assert set(R._trace.done) == set(R._steps)
    assert all(step is not None for step in R._trace.steps)

    pf = parse_problem(path)
    G = buchberger(pf.generators, pf.mod_order)
    _V_strings(G)
    assert set(G._trace.done) == set(G._steps)
    R = reduce_basis(G)
    assert _V_strings(R) == want
    assert set(G._trace.done) == set(G._steps) | set(R._steps)

    # a basis whose V rows are given keeps them through a later read
    G2 = GroebnerBasis(G.module, G.order, list(G.elements), G.inputs, G.V)
    given = set(G2._steps)
    R2 = reduce_basis(G2)
    assert _V_strings(R2) == want
    assert set(G2._trace.done) == given | set(R2._steps)


def _random_homogeneous(L, rnd, degree):
    A = L.algebra
    weights = oracles.algebra_weights(A)
    polys = []
    for shift in L.shifts:
        exps = oracles.exponents_of_degree(weights, degree - shift)
        polys.append(A.from_terms(
            (e, A.field.scalar(rnd.choice([-2, -1, 1, 3])).value)
            for e in rnd.sample(exps, min(2, len(exps)))))
    return L.from_polys(polys)


@pytest.mark.parametrize("kind", ["top", "pot"])
@pytest.mark.parametrize("name", ["comm2", "qplane", "ex12"])
def test_V_of_truncated_bases(name, kind):
    A = fixtures.load(name).algebra
    L = FreeModule(A, 2, shifts=(0, 1))
    order = ModOrder(kind, A.order, 2, graded=True, shifts=(0, 1))
    rnd = random.Random(len(name) + 7 * len(kind))
    for _ in range(3):
        gens = [_random_homogeneous(L, rnd, rnd.randint(1, 3))
                for _ in range(rnd.randint(2, 3))]
        G = truncated_gb(gens, order, 4)
        R = reduce_basis(G)
        assert_V(R)
        assert_V(G)


def test_V_is_built_once():
    pf = fixtures.load("ex12")
    G = buchberger(pf.generators, pf.mod_order)
    first = G.V
    assert G.V is first
    R = reduce_basis(G)
    assert R.V is R.V


def _calls_building_V(monkeypatch, argv_list, readers):
    """Run each argv through ``main`` and record, per run, the V row
    builds made outside the functions named in ``readers``."""
    inside = []
    stray = []
    rows = groebner._Trace.rows

    def counting(self, ids):
        if not inside:
            stray.append(len(ids))
        return rows(self, ids)

    monkeypatch.setattr(groebner._Trace, "rows", counting)
    for module, name in readers:
        fn = getattr(module, name)

        def wrapped(*args, _fn=fn, **kwargs):
            inside.append(1)
            try:
                return _fn(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(module, name, wrapped)
    out = {}
    for argv in argv_list:
        del stray[:]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1)
        out[" ".join(argv[1:])] = len(stray)
    return out


# problem files with an ``options.element`` for member, and problem
# files quick to resolve
MEMBER_FILES = [fixtures.path("ex12")] + [
    os.path.join(BENCH_CORPUS, n + ".json")
    for n in ("c44-p-member", "gkz-p-member", "gkz-p-nonmember",
              "sl2-4-p-member", "sl2-4-p-nonmember")
]
RESOLVE_FILES = [fixtures.path(n) for n in FIXTURES] + [
    os.path.join(BENCH_CORPUS, n + ".json")
    for n in ("c44-p-member", "sl2-3-p", "sl2-4-p-member", "skew-4-2")
]


@pytest.mark.parametrize("command,files,readers", [
    ("member", MEMBER_FILES, []),
    ("resolve", RESOLVE_FILES, []),
    # pdim reads the right-inverse rows of a projective tail only
    ("pdim", RESOLVE_FILES, [(syzres, "is_projective")]),
    # the filtered resolution is a Schreyer frame: it reads no V row
    ("filtered-resolve", RESOLVE_FILES, []),
])
def test_commands_build_V_only_where_it_is_read(monkeypatch, command, files,
                                                readers):
    argv = [["--json", command, path] for path in files]
    built = _calls_building_V(monkeypatch, argv, readers)
    assert built == {key: 0 for key in built}


def test_reading_commands_do_build_V(monkeypatch):
    """The counter sees the builds of the commands that read V, and of
    the readers exempted above."""
    ex12 = fixtures.path("ex12")
    c44 = os.path.join(BENCH_CORPUS, "c44-p-member.json")
    built = _calls_building_V(monkeypatch, [
        ["--json", "gb", ex12], ["--json", "syz", ex12],
        ["--json", "pdim", c44],
    ], [])
    assert all(n > 0 for n in built.values())


def test_gb_prints_V_and_U_without_payloads(monkeypatch):
    """``gb --reduce`` on case #44 over Q prints every basis element and
    every row of V and U from its integer form: no such row ever gets
    its payload ``data``."""
    rows = []
    printer = cli._int_row_out

    def recording(row):
        rows.append(row)
        return printer(row)

    monkeypatch.setattr(cli, "_int_row_out", recording)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["--json", "gb", "--reduce",
                     os.path.join(BENCH_CORPUS, "c44-q.json")]) == 0
    payload = json.loads(out.getvalue())
    assert len(rows) == len(payload["basis"]) + len(payload["V"]) + len(
        payload["U"]) > len(payload["basis"]) > 0
    for row in rows:
        with pytest.raises(AttributeError):
            modfree.Vect.data.__get__(row)


def test_V_steps_are_summed_over_one_denominator(monkeypatch):
    """On an integral table each step of V starts over the lcm of its
    terms' denominators, so reading V never rescales a sum; the
    completion's own S-vector sums still do."""
    pf = parse_problem(os.path.join(BENCH_CORPUS, "c44-q.json"))
    calls = []
    rescale = modfree._IntSum._rescale

    def counted(self, den):
        calls.append(den)
        return rescale(self, den)

    monkeypatch.setattr(modfree._IntSum, "_rescale", counted)
    G = reduce_basis(buchberger(pf.generators, pf.mod_order))
    assert calls
    del calls[:]
    assert G.V_ints(range(len(G.elements)))
    assert calls == []


@pytest.mark.parametrize("name,p", [("ex12", 0), ("qheis", 0),
                                     ("ex14", 32003)])
def test_unit_multipliers_add_rows_without_products(name, p):
    """``_IntSum.add`` with a multiplier whose terms include a^0 sums as
    payload arithmetic does, over Q on an integral table (ex12) and a
    fractional one (qheis, lambda = 1/2), and over GF(p); a^0 * m is m,
    so the order's table of products gets no row for step 0."""
    A = over(FieldSpec("PrimeField", p) if p else FieldSpec(), name)
    L = FreeModule(A, 2)
    order = L.top
    rnd = random.Random(len(name) + p)
    unit = (0,) * A.n
    for _ in range(12):
        acc = modfree._IntSum(A, order)
        want = [A.zero(), A.zero()]
        for sign in (1, -1, 1):
            f = random_poly(A, rnd, max_degree=2, max_terms=2) + \
                A.from_terms([(unit, A.field.scalar(
                    rnd.choice([1, -1, 3]), rnd.choice([1, 2])).value)])
            v = random_vect(L, rnd, max_degree=2, max_terms=3)
            row = modfree._row_to_ints(L, v.to_polys())
            acc.add(sign, *coeff._to_ints(f.terms), row.codes, row.den)
            for j, g in enumerate(v.to_polys()):
                term = oracles.reference_product(f, g)
                want[j] = want[j] + term if sign > 0 else want[j] - term
        got = modfree._IntVect(L, order, *acc.finish())
        assert got.to_polys() == want
    assert 0 not in order._products(A).table
