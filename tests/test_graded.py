import random

import pytest

import solvpoly.graded as graded
import solvpoly.groebner as groebner
import solvpoly.syzres as syzres
from solvpoly import fixtures as corpus
from solvpoly.filtered import FiltrationContext, minimal_filtered_resolution
from solvpoly.modfree import FreeModule, ModOrder
from solvpoly.groebner import buchberger, is_member
from solvpoly.syzres import free_resolution
from solvpoly.graded import (
    InhomogeneousInput,
    betti_table,
    check_graded,
    graded_view,
    min_gens_quotient,
    min_homogeneous_gens,
    minimal_graded_resolution,
    poly_degree_if_homogeneous,
    prune_unit_pivots,
    scalar_entry_positions,
    truncated_gb,
    vect_degree_if_homogeneous,
)

import oracles
from conftest import random_scalar, random_vect


def gtop(A, rank=1, shifts=None):
    return ModOrder("top", A.order, rank, graded=True,
                    shifts=shifts or (0,) * rank)


# ---------------------------------------------------------------------------
# the grading predicate
# ---------------------------------------------------------------------------

def test_check_graded_verdicts(comm2, qplane, ex12, ex14, weyl1, qheis):
    for A in (comm2, qplane, ex12):
        ok, violations = check_graded(A)
        assert ok and violations == []
    # the weighted example has honest lower-order relation tails, and so
    # do the Weyl and Heisenberg fixtures: filtered but not graded
    for A in (ex14, weyl1, qheis):
        ok, violations = check_graded(A)
        assert not ok and violations


def test_homogeneity_helpers(qplane):
    d = qplane.degree_function
    assert poly_degree_if_homogeneous(qplane.parse("x^2 + x*y"), d) == 2
    assert poly_degree_if_homogeneous(qplane.parse("x^2 + y"), d) is None
    L = FreeModule(qplane, 2, (0, 1))
    v = L.parse(["x*y", "x"])
    assert vect_degree_if_homogeneous(v) == 2
    view = graded_view(v)
    assert view.gr_degree == 2
    with pytest.raises(InhomogeneousInput):
        graded_view(L.parse(["x + 1", "0"]))


# ---------------------------------------------------------------------------
# truncated bases
# ---------------------------------------------------------------------------

def test_truncated_gb_covers_low_degrees(qplane, rng):
    L = FreeModule(qplane, 1)
    order = gtop(qplane)
    gens = [L.parse(["x^2 - x*y"]), L.parse(["y^3"])]
    full = buchberger(gens, order)
    for n0 in (2, 3, 4):
        part = truncated_gb(gens, order, n0)
        assert part.flags["truncation_degree"] == n0
        # every submodule element of degree <= n0 still reduces to zero
        for _ in range(10):
            f = qplane.zero()
            coeffs = [random_vect(L, rng, max_degree=2).component(0)
                      for _ in gens]
            combo = L.zero()
            for g, c in zip(gens, coeffs):
                combo = combo + g.lmul(c)
            keep = [
                (m, c) for m, c in combo.data.items()
                if L.mono_degree(m) <= n0
            ]
            slice_ = combo.module.zero()
            for (exp, comp), c in keep:
                from solvpoly.modfree import Vect
                slice_ = slice_ + Vect(L, {(exp, comp): c})
            # only exercise honestly homogeneous, low-degree elements
            if slice_.is_zero() or slice_ != combo:
                continue
            member, _ = is_member(slice_, part)
            assert member


def test_truncation_below_minimum_degree_is_empty(qplane):
    L = FreeModule(qplane, 1)
    part = truncated_gb([L.parse(["x^2"])], gtop(qplane), 1)
    assert part.elements == []


# ---------------------------------------------------------------------------
# minimal generators
# ---------------------------------------------------------------------------

def test_min_homogeneous_gens_drops_redundant(qplane):
    L = FreeModule(qplane, 1)
    order = gtop(qplane)
    gens = [L.parse(["x"]), L.parse(["y"]), L.parse(["x^2 + x*y"])]
    kept, G = min_homogeneous_gens(gens, order)
    assert [qplane.poly_str(v.component(0)) for v in kept] == ["x", "y"]


def test_min_homogeneous_gens_is_minimal_and_spanning(ex12, rng):
    L = FreeModule(ex12, 1)
    order = gtop(ex12)
    monos = ["a1^2", "a1*a2", "a2^2", "a1^3", "a2*a3", "a1*a2*a3"]
    for trial in range(4):
        rng.shuffle(monos)
        gens = [L.parse([m]) for m in monos[:4]]
        kept, _ = min_homogeneous_gens(gens, order)
        full = buchberger(gens, order)
        # spanning: every input reduces to zero against the kept set
        kept_G = buchberger(kept, order)
        for g in gens:
            assert is_member(g, kept_G)[0]
        # minimal: no kept generator lies in the span of the others
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            if not others:
                continue
            sub = buchberger(others, order)
            assert not is_member(kept[i], sub)[0]


def test_min_homogeneous_gens_basis_is_truncated_without_U(qplane):
    L = FreeModule(qplane, 1)
    order = gtop(qplane)
    gens = [L.parse(["x"]), L.parse(["y^2"]), L.parse(["x*y"])]
    kept, G = min_homogeneous_gens(gens, order)
    assert G.flags["truncation_degree"] == 2
    assert G.U is None


def test_min_homogeneous_gens_of_zero_vectors_is_empty(qplane):
    L = FreeModule(qplane, 1)
    kept, G = min_homogeneous_gens([L.zero(), L.zero()], gtop(qplane))
    assert kept == []
    assert G.elements == []


def test_min_gens_quotient_eliminates_units(comm2):
    L = FreeModule(comm2, 2, (1, 0))
    # e0 = x e1 modulo the relation, so one slot survives
    rel = L.parse(["1", "-x"])
    res = min_gens_quotient(L, [rel])
    assert res.kept == [1]
    assert res.new_module.rank == 1
    assert res.new_module.shifts == (0,)
    assert res.gens == [] or all(g.is_zero() for g in res.gens)


def test_min_gens_quotient_keeps_nonunit_relations(comm2):
    L = FreeModule(comm2, 2)
    rel = L.parse(["x", "y"])
    res = min_gens_quotient(L, [rel])
    assert res.kept == [0, 1]
    assert len(res.gens) == 1 and res.gens[0] == rel


def _homogeneous_with_units(L, rnd, degree):
    """A homogeneous vector of the given shifted degree, at most two terms
    per component: a component whose shift is the degree gets a nonzero
    scalar or nothing."""
    A = L.algebra
    weights = oracles.algebra_weights(A)
    polys = []
    for shift in L.shifts:
        exps = (oracles.exponents_of_degree(weights, degree - shift)
                if degree >= shift else [])
        picked = rnd.sample(exps, rnd.randint(0, min(2, len(exps))))
        polys.append(A.from_terms(
            (e, random_scalar(A.field, rnd, nonzero=True)) for e in picked))
    return L.from_polys(polys)


@pytest.mark.parametrize("name", ["comm2", "qplane", "ex12", "ex14"])
def test_unit_pivot_pruning_matches_the_reference(name, request):
    """prune_unit_pivots against the pruning that kept its rows as
    component dicts, on seeded homogeneous presentations with shifts."""
    A = request.getfixturevalue(name)
    rnd = random.Random(len(name) * 17)
    eliminated = 0
    for _ in range(20):
        shifts = [rnd.randint(0, 2) for _ in range(rnd.randint(2, 4))]
        L = FreeModule(A, len(shifts), shifts)
        gens = [_homogeneous_with_units(
                    L, rnd, rnd.choice(shifts) + rnd.randint(0, 1))
                for _ in range(rnd.randint(1, 4))]
        kept, module, pruned, eliminations, pivots = prune_unit_pivots(
            L, gens)
        want = oracles.reference_prune_unit_pivots(L, gens)
        assert kept == want[0]
        # the reference gives None for the zero quotient, of rank 0 here
        assert module == (want[1] or FreeModule(A, 0))
        assert pruned == want[2]
        assert eliminations == want[3]
        assert pivots == want[4]
        eliminated += len(eliminations)
    assert eliminated >= 5


# ---------------------------------------------------------------------------
# minimal graded resolutions
# ---------------------------------------------------------------------------

def test_minimal_koszul_resolution(comm2):
    L = FreeModule(comm2, 1)
    gens = [L.parse(["x"]), L.parse(["y"])]
    R = minimal_graded_resolution(L, gens)
    assert R.flavor == "Graded"
    assert R.ranks() == [1, 2, 1]
    assert R.shift_lists() == [[0], [1, 1], [2]]
    assert R.composition_is_zero()
    assert scalar_entry_positions(R) == []
    assert betti_table(R) == {0: {0: 1}, 1: {1: 2}, 2: {2: 1}}
    assert oracles.euler_characteristic_ok(
        R.ranks(), R.shift_lists(), L, gens, 6)


def test_graded_resolution_handles_redundant_generators(qplane):
    L = FreeModule(qplane, 1)
    gens = [L.parse(["x"]), L.parse(["y"]), L.parse(["x^2 - x*y"])]
    R = minimal_graded_resolution(L, gens)
    assert R.ranks() == [1, 2, 1]
    assert R.shift_lists() == [[0], [1, 1], [2]]
    assert scalar_entry_positions(R) == []


def test_graded_resolution_invariance_under_permutation(ex12, rng):
    L = FreeModule(ex12, 1)
    base = ["a1^2", "a1*a2", "a2*a3"]
    reference = None
    for trial in range(5):
        rng.shuffle(base)
        R = minimal_graded_resolution(L, [L.parse([m]) for m in base])
        data = (R.ranks(), [sorted(s) for s in R.shift_lists()])
        if reference is None:
            reference = data
        assert data == reference
        assert scalar_entry_positions(R) == []
        assert R.composition_is_zero()


def test_graded_resolution_euler_characteristic(ex12):
    L = FreeModule(ex12, 1)
    gens = [L.parse([m]) for m in ("a1^2", "a1*a2", "a2*a3")]
    R = minimal_graded_resolution(L, gens)
    assert oracles.euler_characteristic_ok(
        R.ranks(), R.shift_lists(), L, gens, 6)


def test_graded_machinery_rejects_filtered_algebras(weyl1):
    L = FreeModule(weyl1, 1)
    from solvpoly.graded import NotGraded
    with pytest.raises(NotGraded):
        minimal_graded_resolution(L, [L.parse(["x"])])


def test_graded_machinery_rejects_inhomogeneous_input(comm2):
    L = FreeModule(comm2, 1)
    with pytest.raises(InhomogeneousInput):
        min_homogeneous_gens([L.parse(["x + 1"])], gtop(comm2))


# ---------------------------------------------------------------------------
# the Schreyer frame and its cancellation against independent routes
# ---------------------------------------------------------------------------

def _seeded_graded_inputs(A, rnd, count):
    """Homogeneous generators of submodules of rank 1 and 2, with shifts;
    some presentations carry unit entries."""
    for k in range(count):
        shifts = [0] if k % 2 == 0 else [0, rnd.randint(0, 1)]
        L = FreeModule(A, len(shifts), shifts)
        gens = [_homogeneous_with_units(L, rnd, rnd.randint(1, 3))
                for _ in range(rnd.randint(2, 4))]
        gens = [g for g in gens if g]
        if gens:
            yield L, gens


@pytest.mark.parametrize("name", ["comm2", "qplane"])
def test_fixture_resolutions_compose_to_zero_by_reference(name):
    pf = corpus.load(name)
    for R in (free_resolution(pf.module, pf.generators, pf.mod_order),
              minimal_graded_resolution(pf.module, pf.generators)):
        assert R.maps and oracles.chain_composes_to_zero(R)


@pytest.mark.parametrize("name,seed,floor", [("comm2", 5, 8),
                                             ("qplane", 5, 8),
                                             ("ex12", 7, 30)])
def test_cancelled_frame_matches_the_per_stage_resolution(name, seed, floor):
    """minimal_graded_resolution (the Schreyer frame with its scalar
    entries cancelled) against the per-stage route of
    oracles.reference_graded_betti; the frames of these inputs are not
    all minimal, so cancellations run, top modules included."""
    A = corpus.load(name).algebra
    rnd = random.Random(seed)
    cancelled = 0
    for L, gens in _seeded_graded_inputs(A, rnd, 30):
        R = minimal_graded_resolution(L, gens)
        assert betti_table(R) == oracles.reference_graded_betti(L, gens)
        assert scalar_entry_positions(R) == []
        assert oracles.euler_characteristic_ok(
            R.ranks(), R.shift_lists(), L, gens, 5)
        assert oracles.chain_composes_to_zero(R)
        qm = min_gens_quotient(L, gens)
        if not qm.kept:
            continue
        L1 = qm.new_module
        frame = free_resolution(L1, qm.gens, gtop(A, L1.rank, L1.shifts))
        assert oracles.chain_composes_to_zero(frame)
        # each cancellation drops one basis vector from two modules
        cancelled += (sum(frame.ranks()) - sum(R.ranks())) // 2
    assert cancelled >= floor


@pytest.mark.parametrize("name", ["comm2", "qplane", "ex12"])
def test_filtered_and_graded_betti_tables_agree_on_graded_input(name):
    A = corpus.load(name).algebra
    ctx = FiltrationContext(A)
    rnd = random.Random(7)
    for L, gens in _seeded_graded_inputs(A, rnd, 12):
        assert betti_table(minimal_filtered_resolution(ctx, L, gens)) == \
            betti_table(minimal_graded_resolution(L, gens))


def test_graded_resolution_runs_one_completion(monkeypatch):
    """The presentation is completed once, by buchberger inside
    free_resolution; no stage runs the degree-driven completion."""
    calls = {"buchberger": 0, "degree_driven_completion": 0}
    for name in calls:
        original = getattr(groebner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (groebner, syzres, graded):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    pf = corpus.load("ex12")
    L = FreeModule(pf.algebra, 1)
    gens = [L.parse([m]) for m in ("a1^2", "a1*a2", "a2*a3")]
    minimal_graded_resolution(L, gens)
    assert calls == {"buchberger": 1, "degree_driven_completion": 0}
