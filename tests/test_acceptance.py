"""Acceptance gate.

Thirteen independent criteria, one test per criterion.  Each test
emits a single ``C## PASS``/``C## FAIL`` line straight to the terminal
(bypassing pytest capture) so a plain ``pytest tests/test_acceptance.py``
shows the scoreboard.  The whole module must finish under sixty
seconds; a teardown fixture enforces the budget.
"""

import random
import time
from fractions import Fraction

import pytest

from solvpoly import fixtures as corpus
from solvpoly.algebra import DegreeFunction
from solvpoly.coeff import FieldSpec
from solvpoly.filtered import (
    FiltrationContext,
    associated_graded,
    dehomogenize,
    minimal_filtered_resolution,
    sigma_resolution,
    transfer_check,
)
from solvpoly.graded import (
    betti_table,
    minimal_graded_resolution,
    scalar_entry_positions,
)
from solvpoly.groebner import (
    buchberger,
    is_member,
    reduce_basis,
    s_polynomial,
    staircase_oracle,
)
from solvpoly.modfree import FreeModule, ModOrder, left_divide_module
from solvpoly.presentation import (
    FreePoly,
    ShapeViolation,
    Word,
    WordOrder,
    verify_presentation,
)
from solvpoly.syzres import (
    PresentationMatrix,
    free_resolution,
    is_projective,
    projective_dimension,
    syzygy_of_generators,
)

import oracles
from conftest import random_vect

RATIONALS = FieldSpec("Rationals")

_CAPTURE = None


def _say(line):
    """Print to the real terminal even under pytest's fd capture."""
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


class gate:
    """Report one scoreboard line per criterion, pass or fail."""

    def __init__(self, number, text):
        self.number = number
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        _say("C%02d %s %s" % (self.number, status, self.text))
        return False


@pytest.fixture(scope="module", autouse=True)
def budget(request):
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    _say("acceptance total %.2fs (budget 60s)" % elapsed)
    assert elapsed < 60.0


def top(A, rank=1, graded=False, shifts=None):
    return ModOrder("top", A.order, rank, graded=graded, shifts=shifts)


def shape_of(R):
    return (list(R.ranks()), [sorted(s) for s in R.shift_lists()])


# ---------------------------------------------------------------------------


def test_c01_chain_ideal_exact_reduced_basis():
    with gate(1, "reduced basis and membership for the chain ideal"):
        started = time.perf_counter()
        pf = corpus.load("ex12")
        A = pf.algebra
        G = reduce_basis(buchberger(pf.generators, pf.mod_order))
        assert sorted(A.poly_str(g.component(0)) for g in G.elements) == [
            "a2", "a3"]
        member, nf = is_member(pf.module.parse(["a3"]), G)
        assert member and nf.is_zero()
        for g in G.elements:
            for c in g.data.values():
                assert isinstance(c, Fraction)
        assert time.perf_counter() - started < 1.0


def _weighted_rules(lam, mu=2):
    """Three rewriting rules, weights (2, 1, 4), exactly one overlap."""
    one = RATIONALS.one.value

    def fp(data):
        return FreePoly(RATIONALS, 3, data)

    g1 = fp({Word((0, 1)): one, Word((1, 0)): -one})
    g2 = fp({Word((2, 0)): one, Word((0, 2)): -RATIONALS.scalar(lam).value,
             Word((2, 1, 1)): -RATIONALS.scalar(mu).value,
             Word((1,) * 6): -RATIONALS.scalar(3).value,
             Word((1, 1)): -one, Word(()): -RATIONALS.scalar(7).value})
    g3 = fp({Word((2, 1)): one, Word((1, 2)): -one})
    return [g1, g2, g3]


def test_c02_weighted_presentation_certifies_and_rejects():
    with gate(2, "weighted presentation certifies; zero lambda rejected"):
        order = WordOrder(DegreeFunction((2, 1, 4)),
                          letter_priority=(1, 0, 2))
        rep = verify_presentation(_weighted_rules(lam=5), order)
        assert rep.certified
        assert rep.verdict == "SolvableTypeCertified"
        assert rep.overlaps_checked == 1
        assert str(rep.lambdas[(2, 0)]) == "5"
        with pytest.raises(ShapeViolation):
            verify_presentation(_weighted_rules(lam=0), order)


def test_c03_weyl_unit_ideal_and_operator_oracle():
    with gate(3, "Weyl S-vector, unit ideal, differential operator check"):
        A = corpus.load("weyl1").algebra
        L = FreeModule(A, 1)
        order = top(A)
        x, y = L.parse(["x"]), L.parse(["y"])
        s = s_polynomial(x, y, order)
        assert A.poly_str(s.component(0)) == "1"
        G = reduce_basis(buchberger([x, y], order))
        assert [A.poly_str(g.component(0)) for g in G.elements] == ["1"]

        engine = A.parse("y^2*x^2")
        assert engine == A.parse("x^2*y^2 + 4*x*y + 2")
        samples = [oracles.t_power(k) for k in range(6)]
        samples.append([Fraction(3), Fraction(-2), Fraction(5)])
        for p in samples:
            direct = oracles.differentiate(oracles.differentiate(
                oracles.mult_t(oracles.mult_t(p))))
            assert oracles.weyl_act(engine, p) == direct


def test_c04_randomized_bases_self_certify():
    with gate(4, "fifty random bases self-certify; reduced form canonical"):
        rnd = random.Random(404)
        names = corpus.all_names()
        loaded = {n: corpus.load(n) for n in names}
        for i in range(50):
            A = loaded[names[i % len(names)]].algebra
            rank = rnd.randint(1, 3)
            L = FreeModule(A, rank)
            order = ModOrder(rnd.choice(["top", "pot"]), A.order, rank)
            gens = [random_vect(L, rnd, max_degree=rnd.randint(1, 4),
                                max_terms=2, nonzero=True)
                    for _ in range(rnd.randint(1, 3))]
            G = buchberger(gens, order)
            for a in range(len(G.elements)):
                for b in range(a, len(G.elements)):
                    s = s_polynomial(G.elements[a], G.elements[b], order)
                    if s.is_zero():
                        continue
                    _, rem = left_divide_module(s, G.elements, order)
                    assert rem.is_zero()
            if i % 5 == 0:
                R1 = reduce_basis(G)
                unit = A.field.scalar(rnd.choice([2, -1, 5]), 1).value
                scrambled = [g.scale(unit) for g in reversed(gens)]
                R2 = reduce_basis(buchberger(scrambled, order))
                assert [g.data for g in R1.elements] == [
                    g.data for g in R2.elements]


def test_c05_staircases_match_the_linear_algebra_oracle():
    with gate(5, "twenty staircases match the degree-slice oracle"):
        rnd = random.Random(405)
        names = ("comm2", "qplane", "ex12")
        loaded = {n: corpus.load(n) for n in names}
        for i in range(20):
            A = loaded[names[i % 3]].algebra
            L = FreeModule(A, 1)
            order = top(A, graded=True, shifts=(0,))
            gens = [random_vect(L, rnd, max_degree=3, max_terms=2,
                                nonzero=True)
                    for _ in range(rnd.randint(1, 2))]
            D = 8
            G = buchberger(gens, order)
            by_gb = {e for e in G.staircase().by_component[0]
                     if A.degree_function(e) <= D}
            oracle = staircase_oracle(gens, order, D)
            assert by_gb == set(oracle.by_component[0])


def test_c06_syzygies_annihilate_and_fill_the_kernel():
    with gate(6, "syzygies annihilate; slice dimensions match the kernel"):
        rnd = random.Random(406)
        for name in corpus.all_names():
            A = corpus.load(name).algebra
            for _ in range(2):
                rank = rnd.randint(1, 2)
                L = FreeModule(A, rank)
                gens = [random_vect(L, rnd, max_degree=2, max_terms=2,
                                    nonzero=True)
                        for _ in range(2)]
                syz = syzygy_of_generators(gens, top(A, rank))
                assert syz.annihilates()
                for s in syz.elements:
                    acc = L.zero()
                    for k, f in enumerate(s.to_polys()):
                        acc = acc + gens[k].lmul(f)
                    assert acc.is_zero()
        for name in ("comm2", "qplane"):
            A = corpus.load(name).algebra
            L = FreeModule(A, 1)
            cases = [
                ["x", "y"],
                ["x^2", "x*y", "y^2"],
                ["x^2 - x*y", "y^2"],
            ]
            for strings in cases:
                gens = [L.parse([s]) for s in strings]
                syz = syzygy_of_generators(gens, top(A))
                for q in range(7):
                    want = oracles.kernel_slice_dim(gens, q)
                    got = oracles.span_slice_rank(syz.elements, q)
                    assert got == want, (name, strings, q)


def test_c07_resolution_length_never_exceeds_generator_count():
    with gate(7, "resolution length bounded by the generator count"):
        rnd = random.Random(407)
        for name in corpus.all_names():
            pf = corpus.load(name)
            A = pf.algebra
            if pf.generator_rows:
                R = free_resolution(pf.module, pf.generators,
                                    order=pf.mod_order)
                assert len(R.maps) <= A.n
                assert R.composition_is_zero()
            L = FreeModule(A, 2)
            gens = [random_vect(L, rnd, max_degree=2, max_terms=2,
                                nonzero=True)
                    for _ in range(2)]
            R = free_resolution(L, gens, order=top(A, 2))
            assert len(R.maps) <= A.n
            assert R.composition_is_zero()


def _poly_dict(f):
    return {e: c for e, c in f.terms}


def _qplane_product(u, v, q=2):
    """Independent product for the q-plane: y^b x^c = q^(b c) x^c y^b."""
    out = {}
    for (a, b), cu in u.items():
        for (c, d), cv in v.items():
            key = (a + c, b + d)
            out[key] = out.get(key, Fraction(0)) + cu * cv * q ** (b * c)
    return {k: c for k, c in out.items() if c != 0}


def test_c08_koszul_resolutions_of_the_plane_quotients():
    with gate(8, "Koszul resolutions match the independent computation"):
        pf = corpus.load("comm2")
        R = minimal_graded_resolution(pf.module, pf.generators)
        assert shape_of(R) == ([1, 2, 1], [[0], [1, 1], [2]])
        assert projective_dimension(R) == 2
        assert betti_table(R) == {0: {0: 1}, 1: {1: 2}, 2: {2: 1}}
        assert oracles.euler_characteristic_ok(
            R.ranks(), R.shift_lists(), pf.module, pf.generators, 6)

        qf = corpus.load("qplane")
        B = qf.algebra
        RQ = minimal_graded_resolution(qf.module, qf.generators)
        assert shape_of(RQ) == ([1, 2, 1], [[0], [1, 1], [2]])
        assert projective_dimension(RQ) == 2
        assert betti_table(RQ) == betti_table(R)
        assert oracles.euler_characteristic_ok(
            RQ.ranks(), RQ.shift_lists(), qf.module, qf.generators, 6)
        # first map carries the two linear generators
        rows = [_poly_dict(RQ.maps[0].entries[i][0]) for i in range(2)]
        assert all(len(r) == 1 for r in rows)
        assert sorted(next(iter(r)) for r in rows) == [(0, 1), (1, 0)]
        # the single syzygy annihilates the row under the independent
        # q-weighted product, so the second map is the Koszul relation
        syz_row = [_poly_dict(f) for f in RQ.maps[1].entries[0]]
        total = {}
        for coeff_poly, gen_poly in zip(syz_row, rows):
            part = _qplane_product(coeff_poly, gen_poly)
            for k, c in part.items():
                total[k] = total.get(k, Fraction(0)) + c
        assert all(c == 0 for c in total.values())
        assert all(len(entry) == 1 and sum(next(iter(entry))) == 1
                   for entry in syz_row)


def test_c09_projectivity_certificates():
    with gate(9, "projectivity verdicts carry exact certificates"):
        A = corpus.load("comm2").algebra
        Q = PresentationMatrix(A, [[A.parse("x")]])
        flag, V = is_projective(Q)
        assert flag is False and V is None

        E = PresentationMatrix(A, [
            [A.one(), A.zero()],
            [A.zero(), A.one()],
        ])
        flag, V = is_projective(E)
        assert flag
        prod = E.compose_with(V)
        for i in range(2):
            for j in range(2):
                if i == j:
                    assert prod.entries[i][j] == A.one()
                else:
                    assert prod.entries[i][j].is_zero()

        W = corpus.load("weyl1").algebra
        row = PresentationMatrix(W, [[W.parse("x"), W.parse("y")]])
        flag, V = is_projective(row)
        assert flag
        prod = row.compose_with(V)
        assert prod.rows == prod.cols == 1
        assert prod.entries[0][0] == W.one()


def _random_homogeneous(L, rnd, degree):
    A = L.algebra
    exps = oracles.exponents_of_degree(oracles.algebra_weights(A), degree)
    picks = rnd.sample(exps, min(len(exps), rnd.randint(1, 2)))
    poly = A.zero()
    for e in picks:
        c = A.field.scalar(rnd.choice([1, 2, -1, 3]), 1).value
        poly = poly + A.from_terms([(tuple(e), c)])
    return L.from_polys([poly])


def test_c10_minimal_resolutions_have_no_unit_entries():
    with gate(10, "minimal resolutions are scalar-free and order-blind"):
        rnd = random.Random(410)
        names = ("comm2", "qplane", "ex12")
        loaded = {n: corpus.load(n) for n in names}
        for i in range(10):
            A = loaded[names[i % 3]].algebra
            L = FreeModule(A, 1)
            gens = [_random_homogeneous(L, rnd, rnd.randint(1, 3))
                    for _ in range(rnd.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
            R = minimal_graded_resolution(L, gens)
            assert scalar_entry_positions(R) == []
            shuffled = gens[:]
            rnd.shuffle(shuffled)
            R2 = minimal_graded_resolution(L, shuffled)
            assert shape_of(R2) == shape_of(R)


def test_c11_transfer_verdicts_coincide():
    with gate(11, "basis property transfers agree on all three sides"):
        rnd = random.Random(411)
        for name in corpus.all_names():
            A = corpus.load(name).algebra
            ctx = FiltrationContext(A)
            L = FreeModule(A, 1)
            for _ in range(10):
                gens = [random_vect(L, rnd, max_degree=2, max_terms=2,
                                    nonzero=True)
                        for _ in range(rnd.randint(1, 2))]
                rep = transfer_check(ctx, gens)
                assert rep.agree(), (name, [str(g) for g in gens])


def test_c12_rees_algebra_recovers_the_original():
    with gate(12, "Rees algebra has a central homogenizer and dehomogenizes"):
        A = corpus.load("weyl1").algebra
        ctx = FiltrationContext(A)
        R = ctx.rees()
        B = R.algebra
        z_name = B.names[R.z_index]
        assert z_name == "Z"
        xt, yt, z = B.parse("x"), B.parse("y"), B.parse(z_name)
        assert B.multiply(yt, xt) == B.parse("x*y + Z^2")
        for nm in B.names:
            g = B.parse(nm)
            assert B.multiply(z, g) == B.multiply(g, z)
        assert dehomogenize(ctx, z) == A.one()
        for j in range(A.n):
            for i in range(A.n):
                big = B.multiply(B.parse(A.names[j]), B.parse(A.names[i]))
                small = A.multiply(A.parse(A.names[j]), A.parse(A.names[i]))
                assert dehomogenize(ctx, big) == small


def test_c13_symbol_map_transports_the_filtered_resolution():
    with gate(13, "filtered resolution transports to the graded one"):
        A = corpus.load("comm2").algebra
        ctx = FiltrationContext(A)
        L = FreeModule(A, 1)
        gens = [L.parse(["x"]), L.parse(["y"])]
        FR = minimal_filtered_resolution(ctx, L, gens)
        assert FR.flavor == "Filtered"
        SR = sigma_resolution(ctx, FR)
        assert SR.flavor == "Graded"

        B = associated_graded(ctx).algebra
        GL = FreeModule(B, 1)
        direct = minimal_graded_resolution(
            GL, [GL.parse(["x"]), GL.parse(["y"])])
        assert shape_of(SR) == shape_of(direct) == (
            [1, 2, 1], [[0], [1, 1], [2]])
        assert betti_table(SR) == betti_table(direct)
        assert scalar_entry_positions(SR) == []
        assert SR.composition_is_zero()

        FR2 = minimal_filtered_resolution(ctx, L, [gens[1], gens[0]])
        SR2 = sigma_resolution(ctx, FR2)
        assert shape_of(SR2) == shape_of(SR)
