import json
import os
import random

import pytest

import solvpoly.syzres as syzres
from solvpoly.algebra import exp_max, exp_sub
from solvpoly.cli import main, parse_problem
from solvpoly.coeff import FieldSpec
from solvpoly.modfree import (
    FreeModule, ModOrder, Vect, _coded, left_divide_module,
)
from solvpoly.groebner import GroebnerBasis, _minimal_indices, buchberger
from solvpoly.syzres import (
    PresentationMatrix,
    SyzygyGenerators,
    free_resolution,
    is_projective,
    projective_dimension,
    stably_free_rank,
    syzygy_of_gb,
    syzygy_of_generators,
)

import oracles
from conftest import over, random_poly, random_vect

FIXTURES = ["comm2", "weyl1", "qplane", "ex12", "ex14", "qheis"]


def top(A, rank=1, graded=False, shifts=None):
    return ModOrder("top", A.order, rank, graded=graded, shifts=shifts)


def evaluate(syz, gens):
    """Apply a syzygy row to the generator tuple."""
    ambient = gens[0].module
    acc = ambient.zero()
    for i, f in enumerate(syz.to_polys()):
        acc = acc + gens[i].lmul(f)
    return acc


# ---------------------------------------------------------------------------
# syzygies annihilate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["comm2", "weyl1", "qplane", "ex12",
                                  "qheis"])
def test_syzygies_annihilate(name, request, rng):
    A = request.getfixturevalue(name)
    for trial in range(3):
        rank = rng.randint(1, 2)
        L = FreeModule(A, rank)
        gens = [random_vect(L, rng, max_degree=2, max_terms=2, nonzero=True)
                for _ in range(rng.randint(2, 3))]
        syz = syzygy_of_generators(gens, top(A, rank))
        assert syz.annihilates()
        for s in syz.elements:
            assert evaluate(s, gens).is_zero()


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("name", ["weyl1", "qheis"])
def test_a_changed_syzygy_does_not_annihilate(name, p, rng):
    """Adding 1 to one coefficient of a syzygy adds a nonzero multiple of
    one target (the algebra has no zero divisors)."""
    A = over(FieldSpec("PrimeField", p) if p else FieldSpec(), name)
    L = FreeModule(A, 2)
    gens = [random_vect(L, rng, max_degree=2, max_terms=2, nonzero=True)
            for _ in range(3)]
    syz = syzygy_of_generators(gens, top(A, 2))
    assert syz.elements and syz.annihilates()
    for k, s in enumerate(syz.elements):
        for m in s.data:
            changed = s + Vect(s.module, {m: A.field.one.value})
            elements = syz.elements[:k] + [changed] + syz.elements[k + 1:]
            bad = SyzygyGenerators(elements, syz.origin, syz.targets,
                                   syz.module, syz.order)
            assert not bad.annihilates()


def test_schreyer_syzygies_annihilate_the_basis(weyl1, rng):
    L = FreeModule(weyl1, 1)
    order = top(weyl1)
    gens = [random_vect(L, rng, max_degree=2, nonzero=True)
            for _ in range(2)]
    G = buchberger(gens, order)
    syz = syzygy_of_gb(G)
    for s in syz.elements:
        assert evaluate(s, G.elements).is_zero()


def test_weyl_pair_syzygy_example(weyl1):
    L = FreeModule(weyl1, 1)
    syz = syzygy_of_generators([L.parse(["x"]), L.parse(["y"])],
                               top(weyl1))
    assert syz.annihilates()
    assert len(syz.elements) >= 1
    # the commutation syzygy (xy - 1) x - x^2 y = 0 must be captured
    target = syz.module.parse(["x*y - 1", "-x^2"])
    from solvpoly.groebner import is_member
    G = buchberger(syz.elements, top(weyl1, syz.module.rank))
    member, _ = is_member(target, G)
    assert member


# ---------------------------------------------------------------------------
# the kernel-dimension oracle (graded inputs)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["comm2", "qplane"])
def test_syzygy_slices_fill_the_kernel(name, request, rng):
    A = request.getfixturevalue(name)
    L = FreeModule(A, 1)
    cases = [
        ["x", "y"],
        ["x^2", "x*y", "y^2"],
        ["x^2 - x*y", "y^2"],
    ]
    for strings in cases:
        gens = [L.parse([s]) for s in strings]
        syz = syzygy_of_generators(gens, top(A))
        assert syz.annihilates()
        for q in range(7):
            want = oracles.kernel_slice_dim(gens, q)
            got = oracles.span_slice_rank(syz.elements, q)
            assert got == want, (name, strings, q)


# ---------------------------------------------------------------------------
# free resolutions
# ---------------------------------------------------------------------------

def test_koszul_resolution_shape(comm2):
    L = FreeModule(comm2, 1)
    gens = [L.parse(["x"]), L.parse(["y"])]
    R = free_resolution(L, gens)
    assert R.ranks() == [1, 2, 1]
    assert R.composition_is_zero()
    assert len(R.maps) <= comm2.n
    assert projective_dimension(R) == 2


@pytest.mark.parametrize("name", ["comm2", "weyl1", "qplane", "ex12",
                                  "qheis"])
def test_resolution_length_within_the_variable_count(name, request, rng):
    A = request.getfixturevalue(name)
    for trial in range(2):
        rank = rng.randint(1, 2)
        L = FreeModule(A, rank)
        gens = [random_vect(L, rng, max_degree=2, max_terms=2, nonzero=True)
                for _ in range(2)]
        R = free_resolution(L, gens)
        assert len(R.maps) <= A.n
        assert R.composition_is_zero()


def test_resolution_of_the_full_module_is_zero(weyl1, monkeypatch):
    """The minimal basis of L0 leads with each e_i once, and the splice
    leaves rank 0: no basis vector of L0 is divided by it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return left_divide_module(*args, **kwargs)

    monkeypatch.setattr(syzres, "left_divide_module", counted)
    L = FreeModule(weyl1, 2)
    R = free_resolution(L, [L.basis(0), L.basis(1)])
    assert R.zero_module
    assert R.ranks() == [0]
    assert calls == []


@pytest.mark.parametrize("name", ["comm2", "weyl1", "qplane", "ex12",
                                  "qheis"])
def test_schreyer_leads_are_known_before_division(name, request, rng):
    """The lead of each Schreyer row, computed without dividing, is the
    lead of the divided row, and the greater of the pair's two
    candidate terms in the Schreyer order."""
    A = request.getfixturevalue(name)
    rows = 0
    for trial in range(4):
        L = FreeModule(A, 2)
        order = ModOrder(rng.choice(["top", "pot"]), A.order, 2)
        gens = [random_vect(L, rng, max_degree=1, max_terms=2, nonzero=True)
                for _ in range(3)]
        G = buchberger(gens, order)
        syz = syzygy_of_gb(G)
        lms = G.leading_monomials()
        pairs = [(i, j) for j in range(len(lms)) for i in range(j)
                 if lms[i][1] == lms[j][1]]
        leads = [syzres._schreyer_lead(lms, i, j) for i, j in pairs]
        for (i, j), lead in zip(pairs, leads):
            gamma = exp_max(lms[i][0], lms[j][0])
            assert lead == max(
                ((exp_sub(gamma, lms[k][0]), k) for k in (i, j)),
                key=syz.order.key)
        assert [s.lm(syz.order) for s in syz.elements] == [
            leads[k] for k in _minimal_indices(leads, syz.order)]
        rows += len(syz.elements)
    assert rows


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("name", FIXTURES)
def test_kept_schreyer_rows_generate_every_pair_row(name, p):
    """The row of every same-component pair
    (oracles.reference_schreyer_rows) reduces to zero against the
    lead-minimal rows syzygy_of_gb keeps, under their Schreyer order, on
    unminimalized bases; some pairs are left out on every fixture."""
    A = over(FieldSpec("PrimeField", p) if p else FieldSpec(), name)
    rnd = random.Random(len(name) * 13 + p)
    every = kept = 0
    for _ in range(4):
        L = FreeModule(A, 2)
        order = ModOrder(rnd.choice(["top", "pot"]), A.order, 2)
        gens = [random_vect(L, rnd, max_degree=1, max_terms=2, nonzero=True)
                for _ in range(3)]
        G = buchberger(gens, order)
        syz = syzygy_of_gb(G)
        reference = oracles.reference_schreyer_rows(G)
        for row in reference:
            assert left_divide_module(row, syz.elements, syz.order)[1] \
                .is_zero()
        every += len(reference)
        kept += len(syz.elements)
    assert kept < every


def test_resolution_divides_only_the_kept_schreyer_rows(monkeypatch):
    calls = []
    spair = syzres._spair_data

    def counting(xi, zeta, order):
        calls.append((xi, zeta))
        return spair(xi, zeta, order)

    monkeypatch.setattr(syzres, "_spair_data", counting)
    pf = parse_problem(os.path.join(os.path.dirname(__file__), os.pardir,
                                    "perfbench", "corpus", "skew-4-2.json"))
    R = free_resolution(pf.module, pf.generators, order=pf.mod_order)
    # 64 same-component pairs across the stages; 39 rows survive
    assert len(calls) <= 39
    assert R.composition_is_zero()


def test_syz_divides_only_the_kept_schreyer_rows(monkeypatch, capsys):
    calls = []
    spair = syzres._spair_data

    def counting(xi, zeta, order):
        calls.append((xi, zeta))
        return spair(xi, zeta, order)

    monkeypatch.setattr(syzres, "_spair_data", counting)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "corpus", "skew-4-2.json")
    assert main(["--json", "syz", path]) == 0
    # 45 same-component pairs of the basis; 20 rows have minimal leads
    assert len(calls) <= 20
    assert json.loads(capsys.readouterr().out)["annihilates"] is True


def test_resolution_first_map_presents_the_generators(qplane):
    L = FreeModule(qplane, 1)
    gens = [L.parse(["x^2"]), L.parse(["x*y"])]
    R = free_resolution(L, gens)
    rows = [R.maps[0].row_vect(i, L) for i in range(R.maps[0].rows)]
    # the first stage presents exactly the chosen generators' submodule
    G1 = buchberger(rows, top(qplane))
    G2 = buchberger(gens, top(qplane))
    from solvpoly.groebner import is_member
    for g in gens:
        assert is_member(g, G1)[0]
    for r in rows:
        assert is_member(r, G2)[0]


# ---------------------------------------------------------------------------
# projectivity
# ---------------------------------------------------------------------------

def test_multiplication_by_x_is_not_projective(comm2):
    Q = PresentationMatrix(comm2, [[comm2.parse("x")]])
    flag, V = is_projective(Q)
    assert not flag and V is None


def test_identity_is_projective(comm2):
    E = PresentationMatrix(comm2, [
        [comm2.one(), comm2.zero()],
        [comm2.zero(), comm2.one()],
    ])
    flag, V = is_projective(E)
    assert flag
    prod = E.compose_with(PresentationMatrix(comm2, V))
    assert prod.entries[0][0] == comm2.one()
    assert prod.entries[0][1].is_zero()
    assert prod.entries[1][0].is_zero()
    assert prod.entries[1][1] == comm2.one()


def test_unimodular_row_is_projective(weyl1):
    # (x, y) is right invertible in the Weyl algebra: y.x - x.y = 1
    Q = PresentationMatrix(weyl1, [[weyl1.parse("x"), weyl1.parse("y")]])
    flag, V = is_projective(Q)
    assert flag
    prod = Q.compose_with(PresentationMatrix(weyl1, V))
    assert prod.rows == 1 and prod.cols == 1
    assert prod.entries[0][0] == weyl1.one()


def test_stably_free_rank(comm2):
    L = FreeModule(comm2, 1)
    R = free_resolution(L, [])
    assert stably_free_rank(R) == 1


def test_pdim_of_case_44_over_q(capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "corpus", "c44-q.json")
    assert main(["--json", "pdim", path]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "pdim": 1, "ranks": [3, 7, 4], "resolution_length": 2}


# ---------------------------------------------------------------------------
# presentation matrices
# ---------------------------------------------------------------------------

def test_matrix_round_trip_and_composition(weyl1, rng):
    L2 = FreeModule(weyl1, 2)
    vects = [random_vect(L2, rng) for _ in range(3)]
    M = PresentationMatrix.from_vects(vects, L2)
    assert (M.rows, M.cols) == (3, 2)
    for i, v in enumerate(vects):
        assert M.row_vect(i, L2) == v
    N = PresentationMatrix(weyl1, [[weyl1.parse("x")], [weyl1.parse("y")]])
    C = M.compose_with(N)
    assert (C.rows, C.cols) == (3, 1)
    for i in range(3):
        want = oracles.reference_matrix_product(
            weyl1, [vects[i].to_polys()], N.entries, 1)
        assert [C.entries[i]] == want


def _random_matrix(A, rnd, rows, cols):
    """Entries of at most two terms, about one in three of them zero."""
    return [[random_poly(A, rnd, max_degree=2, max_terms=2)
             if rnd.random() < 0.67 else A.zero() for _ in range(cols)]
            for _ in range(rows)]


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("name", FIXTURES)
def test_matrix_products_agree_with_word_rewriting(name, p):
    """compose_with, on whole matrices and row by row, against entrywise
    sums of the word-rewriting product; qheis (lambda = 1/2) gives
    products with denominators.  A matrix keeps its column count when it
    has no rows, so every zero-size shape has its product shape: an
    r x 0 times a 0 x c matrix is a zero r x c matrix."""
    A = over(FieldSpec("PrimeField", p) if p else FieldSpec(), name)
    rnd = random.Random(len(name) * 31 + p)
    shapes = [(rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(1, 3))
              for _ in range(4)]
    zero_sizes = [(2, 3, 0), (2, 0, 0), (0, 0, 0), (2, 0, 3), (0, 3, 2),
                  (0, 0, 2)]
    for r, k, c in shapes + zero_sizes:
        left = _random_matrix(A, rnd, r, k)
        right = _random_matrix(A, rnd, k, c)
        if r > 1 and k:
            left[1] = [A.zero()] * k
        M = PresentationMatrix(A, left, k)
        N = PresentationMatrix(A, right, c)
        want = oracles.reference_matrix_product(A, left, right, c)
        C = M.compose_with(N)
        assert (C.rows, C.cols) == (r, c)
        assert C.entries == want
        for row, out in zip(left, want):
            one_row = PresentationMatrix(A, [row], k).compose_with(N)
            assert one_row.entries == [out]


def test_no_syzygies_annihilate(weyl1):
    """The syzygies of one nonzero element of a domain are zero: no rows,
    and the empty product is zero.  So are those of an empty basis."""
    L = FreeModule(weyl1, 2)
    order = top(weyl1, 2)
    syz = syzygy_of_generators([L.parse(["x*y + 1", "y^2"])], order)
    assert syz.elements == [] and syz.annihilates()
    empty = syzygy_of_gb(GroebnerBasis(L, order, [], [], []))
    assert empty.elements == [] and empty.annihilates()


def _payload_product(A, left, right, cols):
    """left * right entry by entry, each entry a sum of ``A.multiply``
    products of payload polynomials."""
    out = []
    for row in left:
        entries = [A.zero() for _ in range(cols)]
        for f, other in zip(row, right):
            for j, g in enumerate(other):
                entries[j] = entries[j] + A.multiply(f, g)
        out.append(entries)
    return out


@pytest.mark.parametrize("p", [0, 32003])
def test_products_of_rows_on_different_orders(p):
    """``compose_with`` equals the payload product when its factors'
    rows lie on different orders: the Schreyer-ordered syzygies of a
    basis times V (on its trace's TOP order), a left factor whose rows
    lie on several orders, and a right factor whose rows do, which are
    summed on the order of its first row.  qheis over Q has
    lambda = 1/2, so products have denominators."""
    A = over(FieldSpec("PrimeField", p) if p else FieldSpec(), "qheis")
    rnd = random.Random(p + 9)
    L = FreeModule(A, 2)
    order = top(A, 2)
    gens = [random_vect(L, rnd, max_degree=2, max_terms=3, nonzero=True)
            for _ in range(3)]
    G = buchberger(gens, order)
    t, m = len(G.elements), len(gens)
    S = syzygy_of_gb(G).elements
    V = G.V_ints(range(t))
    assert S and all(s.order is S[0].order for s in S)
    assert S[0].order.kind == "schreyer" and V[0].order.kind == "top"
    # V's rows spread over a POT, a Schreyer and a fresh TOP order
    others = [ModOrder("pot", A.order, m, component_priority=[2, 0, 1]),
              ModOrder("schreyer", A.order, m, schreyer_images=gens,
                       schreyer_target=order),
              top(A, m)]
    V_mixed = [_coded(v, others[k % 3]) for k, v in enumerate(V)]
    # the syzygies next to the U rows, on the basis' own TOP order
    SU = S + G.U_ints
    cases = [(S, V), (SU, V), (S, V_mixed), (SU, V_mixed)]
    for left, right in cases:
        M = PresentationMatrix.of_ints(A, left, t)
        N = PresentationMatrix.of_ints(A, right, m)
        got = M.compose_with(N)
        assert all(row.order is right[0].order for row in got.int_rows())
        want = _payload_product(A, M.entries, N.entries, m)
        assert got.entries == want
    # S V on the original generators is zero: S annihilates the basis
    SV = PresentationMatrix.of_ints(A, S, t).compose_with(
        PresentationMatrix.of_ints(A, V, m))
    GV = PresentationMatrix.from_vects(gens, L)
    assert SV.compose_with(GV).is_zero()
