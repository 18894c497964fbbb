import random

import pytest

import solvpoly.filtered as filtered
import solvpoly.graded as graded
import solvpoly.groebner as groebner
import solvpoly.syzres as syzres
from solvpoly import fixtures as corpus
from solvpoly.algebra import MonomialOrder, build_algebra
from solvpoly.coeff import FieldSpec
from solvpoly.modfree import FreeModule, IncompatibleModules, ModOrder
from solvpoly.groebner import buchberger, is_member
from solvpoly.graded import (
    betti_table,
    min_gens_quotient,
    minimal_graded_resolution,
    prune_unit_pivots,
    scalar_entry_positions,
)
from solvpoly.syzres import free_resolution
from solvpoly.filtered import (
    DegreeTooSmall,
    FiltrationContext,
    NotGradedOrder,
    ZeroElement,
    associated_graded,
    dehomogenize,
    fil_degree,
    homogenize_to,
    minimal_F_basis,
    minimal_filtered_resolution,
    rees,
    sigma,
    sigma_resolution,
    tilde,
    transfer_check,
    z_zero_image,
)

import oracles
from conftest import random_poly, random_vect

Q = FieldSpec("Rationals")


@pytest.fixture
def wctx(weyl1):
    return FiltrationContext(weyl1)


# ---------------------------------------------------------------------------
# contexts and filtration degrees
# ---------------------------------------------------------------------------

def test_context_requires_a_graded_base_order():
    A = build_algebra(Q, ("x", "y"), MonomialOrder("lex", 2),
                      ["y*x = x*y"])
    with pytest.raises(NotGradedOrder):
        FiltrationContext(A)


def test_fil_degree(wctx, weyl1):
    assert fil_degree(wctx, weyl1.parse("x*y + 1")) == 2
    assert fil_degree(wctx, weyl1.parse("3")) == 0
    L = FreeModule(weyl1, 2, (0, 3))
    assert fil_degree(wctx, L.parse(["x", "1"])) == 3
    with pytest.raises(ZeroElement):
        fil_degree(wctx, weyl1.zero())


# ---------------------------------------------------------------------------
# the graded companions
# ---------------------------------------------------------------------------

def test_associated_graded_of_weyl_is_commutative(wctx):
    B = associated_graded(wctx).algebra
    rel = B.relation(1, 0)
    assert str(rel.lam) == "1"
    assert rel.tail.terms == ()
    bx, by = B.gen(0), B.gen(1)
    assert B.multiply(by, bx) == B.multiply(bx, by)


def test_associated_graded_keeps_top_degree_tails(ex14):
    ctx = FiltrationContext(ex14)
    B = associated_graded(ctx).algebra
    rel = B.relation(2, 0)
    # only the weighted-degree-6 tail terms survive
    assert sorted(exp for exp, _ in rel.tail.terms) == [
        (0, 2, 1), (0, 6, 0)]


def test_rees_of_weyl(wctx, weyl1):
    R = rees(wctx)
    B = R.algebra
    assert B.names == ("x", "y", "Z")
    rel = B.relation(1, 0)
    assert [exp for exp, _ in rel.tail.terms] == [(0, 0, 2)]
    z = R.z()
    for i in range(2):
        assert B.multiply(z, B.gen(i)) == B.multiply(B.gen(i), z)


def test_rees_z_name_avoids_collisions():
    A = build_algebra(
        Q, ("x", "Z"),
        MonomialOrder("grlex", 2,
                      degree=__import__("solvpoly.algebra",
                                        fromlist=["DegreeFunction"])
                      .DegreeFunction((1, 1))),
        ["Z*x = x*Z"])
    R = rees(FiltrationContext(A))
    assert R.algebra.names[-1] not in ("x", "Z")
    assert R.algebra.names[-1].startswith("Z")


def test_rees_tails_carry_the_degree_gap(ex14):
    ctx = FiltrationContext(ex14)
    B = rees(ctx).algebra
    rel = B.relation(2, 0)
    by_exp = {exp: c for exp, c in rel.tail.terms}
    # gap exponents: deg 6 terms get Z^0, deg 2 gets Z^4, deg 0 gets Z^6
    assert (0, 2, 1, 0) in by_exp
    assert (0, 6, 0, 0) in by_exp
    assert (0, 2, 0, 4) in by_exp
    assert (0, 0, 0, 6) in by_exp


def test_graded_companions_are_cached(wctx):
    assert associated_graded(wctx) is associated_graded(wctx)
    assert rees(wctx) is rees(wctx)


# ---------------------------------------------------------------------------
# symbol maps
# ---------------------------------------------------------------------------

def test_sigma_takes_the_top_part(wctx, weyl1):
    B = associated_graded(wctx).algebra
    s = sigma(wctx, weyl1.parse("x*y + x + 3"))
    assert s == B.parse("x*y")
    with pytest.raises(ZeroElement):
        sigma(wctx, weyl1.zero())


def test_tilde_homogenizes(wctx, weyl1):
    B = rees(wctx).algebra
    assert tilde(wctx, weyl1.parse("x*y + 1")) == B.parse("x*y + Z^2")
    assert tilde(wctx, weyl1.parse("x^2")) == B.parse("x^2")
    h = homogenize_to(wctx, weyl1.parse("x"), 3)
    assert h == B.parse("x*Z^2")
    with pytest.raises(DegreeTooSmall):
        homogenize_to(wctx, weyl1.parse("x^2"), 1)


def test_dehomogenize_inverts_tilde(wctx, weyl1, rng):
    for _ in range(30):
        f = random_poly(weyl1, rng, nonzero=True)
        assert dehomogenize(wctx, tilde(wctx, f)) == f


def test_z_zero_image_is_the_symbol(wctx, weyl1, rng):
    B = associated_graded(wctx).algebra
    for _ in range(30):
        f = random_poly(weyl1, rng, nonzero=True)
        assert z_zero_image(wctx, tilde(wctx, f)) == sigma(wctx, f)


def test_symbol_maps_are_multiplicative(wctx, weyl1, rng):
    G = associated_graded(wctx).algebra
    R = rees(wctx).algebra
    for _ in range(40):
        f = random_poly(weyl1, rng, nonzero=True)
        g = random_poly(weyl1, rng, nonzero=True)
        fg = weyl1.multiply(f, g)
        assert tilde(wctx, fg) == R.multiply(tilde(wctx, f),
                                             tilde(wctx, g))
        # fil degrees add in a filtered domain, so symbols multiply too
        assert fil_degree(wctx, fg) == (
            fil_degree(wctx, f) + fil_degree(wctx, g))
        assert sigma(wctx, fg) == G.multiply(sigma(wctx, f),
                                             sigma(wctx, g))


def test_module_symbols(wctx, weyl1):
    L = FreeModule(weyl1, 2, (0, 3))
    v = L.parse(["x", "1"])  # fil degree 3, led by the shifted slot
    s = sigma(wctx, v)
    assert s.module.shifts == (0, 3)
    assert [str(p) for p in s.to_polys()] == ["0", "1"]
    t = tilde(wctx, v)
    assert [str(p) for p in t.to_polys()] == ["x*Z^2", "1"]
    assert dehomogenize(wctx, t) == v
    for entries in (["x", "1"], ["x*y + x + 3", "y^2 + 1"], ["y", "0"]):
        v = L.parse(entries)
        assert z_zero_image(wctx, tilde(wctx, v)) == sigma(wctx, v)


# ---------------------------------------------------------------------------
# the transfer theorem check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry", [
    lambda ctx, L, v: transfer_check(ctx, [v]),
    lambda ctx, L, v: minimal_F_basis(ctx, L, [v]),
    lambda ctx, L, v: oracles.minimal_standard_basis(ctx, [v]),
    lambda ctx, L, v: minimal_filtered_resolution(ctx, L, []),
], ids=["transfer_check", "minimal_F_basis", "minimal_standard_basis",
        "minimal_filtered_resolution"])
def test_entry_points_refuse_a_module_over_another_algebra(entry, wctx,
                                                           comm2):
    L = FreeModule(comm2, 1)
    with pytest.raises(IncompatibleModules):
        entry(wctx, L, L.parse(["x"]))


def test_transfer_verdicts_on_the_quantum_example(ex12):
    ctx = FiltrationContext(ex12)
    L = FreeModule(ex12, 1)
    good = [L.parse(["a2"]), L.parse(["a3"])]
    rep = transfer_check(ctx, good)
    assert rep.as_tuple() == (True, True, True)
    bad = [L.parse(["a1^2*a2 - a3"]), L.parse(["a2"])]
    rep = transfer_check(ctx, bad)
    assert rep.as_tuple() == (False, False, False)
    assert rep.agree()


@pytest.mark.parametrize("name", ["weyl1", "qplane"])
def test_transfer_verdicts_always_coincide(name, request, rng):
    A = request.getfixturevalue(name)
    ctx = FiltrationContext(A)
    L = FreeModule(A, 1)
    for trial in range(6):
        gens = [random_vect(L, rng, max_degree=2, max_terms=2, nonzero=True)
                for _ in range(rng.randint(1, 2))]
        rep = transfer_check(ctx, gens)
        assert rep.agree(), [str(g) for g in gens]


# ---------------------------------------------------------------------------
# standard bases and minimal F-bases
# ---------------------------------------------------------------------------

def test_minimal_F_basis_eliminates_unit_pivot(wctx, weyl1):
    L = FreeModule(weyl1, 2, (1, 0))
    U = [L.parse(["1", "x"])]
    G = buchberger(U, _gtop(L))
    res = minimal_F_basis(wctx, L, G.elements)
    assert res.kept == [1]
    assert res.new_module.rank == 1
    assert res.gens == [] or all(g.is_zero() for g in res.gens)


def test_minimal_F_basis_respects_fil_degrees(wctx, weyl1):
    # a unit sitting below the filtration degree must not be used
    L = FreeModule(weyl1, 2, (0, 0))
    U = [L.parse(["1", "x"])]  # fil degree 1, unit coordinate at degree 0
    G = buchberger(U, _gtop(L))
    res = minimal_F_basis(wctx, L, G.elements)
    assert res.kept == [0, 1]


def test_unit_pivot_rules_agree_on_homogeneous_input(comm2):
    # Every unit of a homogeneous generator sits at its own degree, so
    # the graded and the filtered pruning make the same eliminations.
    L = FreeModule(comm2, 3, (1, 0, 2))
    U = [L.parse(["1", "x", "0"]), L.parse(["x", "x^2", "1"]),
         L.parse(["y", "x*y", "0"])]
    graded = min_gens_quotient(L, U)
    filtered = minimal_F_basis(FiltrationContext(comm2), L, U)
    assert graded.kept == filtered.kept == [1]
    assert graded.gens == filtered.gens
    assert graded.eliminations == filtered.eliminations


def test_minimal_standard_basis_drops_redundant(comm2):
    ctx = FiltrationContext(comm2)
    L = FreeModule(comm2, 1)
    gens = [L.parse(["x"]), L.parse(["y"]), L.parse(["x^2 + y"])]
    W = oracles.minimal_standard_basis(ctx, gens)
    assert len(W) == 2
    # still generates the same submodule
    order = ModOrder("top", comm2.order, 1, graded=True, shifts=(0,))
    G = buchberger(W, order)
    for g in gens:
        assert is_member(g, G)[0]


def test_minimal_standard_basis_of_a_unit_ideal(wctx, weyl1):
    # x and y already generate everything in the Weyl algebra
    L = FreeModule(weyl1, 1)
    W = oracles.minimal_standard_basis(wctx, [L.parse(["x"]), L.parse(["y"])])
    assert len(W) == 1


# ---------------------------------------------------------------------------
# minimal filtered resolutions
# ---------------------------------------------------------------------------

def test_filtered_koszul_resolution(comm2):
    ctx = FiltrationContext(comm2)
    L = FreeModule(comm2, 1)
    R = minimal_filtered_resolution(ctx, L, [L.parse(["x"]),
                                             L.parse(["y"])])
    assert R.flavor == "Filtered"
    assert R.ranks() == [1, 2, 1]
    assert R.shift_lists() == [[0], [1, 1], [2]]
    assert R.composition_is_zero()


def test_filtered_resolution_of_the_weyl_line(weyl1):
    ctx = FiltrationContext(weyl1)
    L = FreeModule(weyl1, 1)
    R = minimal_filtered_resolution(ctx, L, [L.parse(["y"])])
    assert R.ranks() == [1, 1]
    assert R.shift_lists() == [[0], [1]]
    assert len(R.maps) == 1


def test_filtered_resolution_trivial_cases(weyl1):
    ctx = FiltrationContext(weyl1)
    L = FreeModule(weyl1, 1)
    free = minimal_filtered_resolution(ctx, L, [])
    assert free.ranks() == [1] and free.maps == []
    unit = minimal_filtered_resolution(ctx, L, [L.parse(["1"])])
    assert unit.zero_module


@pytest.mark.parametrize("name,shifts,gens", [
    ("qplane", (0,), [["1"]]),
    ("comm2", (0, 1), [["1", "0"], ["x", "1"]]),
    ("weyl1", (0,), [["1"]]),
], ids=["qplane", "comm2-rank2", "weyl1"])
def test_zero_module_is_the_free_module_of_rank_zero(name, shifts, gens,
                                                      request):
    """N = L0 is resolved by the rank-0 module alone on every route; the
    graded route needs a graded algebra, which weyl1 is not."""
    A = request.getfixturevalue(name)
    ctx = FiltrationContext(A)
    L = FreeModule(A, len(shifts), shifts)
    N = [L.parse(g) for g in gens]
    filtered_R = minimal_filtered_resolution(ctx, L, N)
    routes = [(free_resolution(L, N), A), (filtered_R, A),
              (sigma_resolution(ctx, filtered_R), ctx.graded().algebra)]
    if graded.GradedContext(A).graded_ok:
        routes.append((minimal_graded_resolution(L, N), A))
    for R, B in routes:
        assert R.modules == [FreeModule(B, 0)] and R.maps == []
        assert (R.ranks(), R.shift_lists(), R.zero_module) == ([0], [[]],
                                                               True)
        assert betti_table(R) == {}
        assert syzres.projective_dimension(R) == 0
        assert syzres.stably_free_rank(R) == 0


def test_filtered_resolution_invariance(qheis, rng):
    ctx = FiltrationContext(qheis)
    L = FreeModule(qheis, 1)
    strings = ["x", "y", "z"]
    reference = None
    for _ in range(4):
        rng.shuffle(strings)
        R = minimal_filtered_resolution(
            ctx, L, [L.parse([s]) for s in strings])
        data = (R.ranks(), [sorted(s) for s in R.shift_lists()])
        if reference is None:
            reference = data
        assert data == reference


def test_sigma_resolution_matches_direct_graded_computation(comm2):
    ctx = FiltrationContext(comm2)
    L = FreeModule(comm2, 1)
    gens = [L.parse(["x"]), L.parse(["y"])]
    filtered = minimal_filtered_resolution(ctx, L, gens)
    transported = sigma_resolution(ctx, filtered)
    assert transported.flavor == "Graded"
    B = associated_graded(ctx).algebra
    GL = FreeModule(B, 1)
    direct = minimal_graded_resolution(
        GL, [GL.parse(["x"]), GL.parse(["y"])])
    assert transported.ranks() == direct.ranks()
    assert [sorted(s) for s in transported.shift_lists()] == [
        sorted(s) for s in direct.shift_lists()]
    assert scalar_entry_positions(transported) == []
    assert transported.composition_is_zero()


# ---------------------------------------------------------------------------
# the Schreyer frame against the per-stage route
# ---------------------------------------------------------------------------

def _seeded_filtered_inputs(A, rnd, count):
    """Inhomogeneous generators of submodules of rank 1 and 2."""
    for k in range(count):
        shifts = [0] if k % 2 == 0 else [0, rnd.randint(0, 1)]
        L = FreeModule(A, len(shifts), shifts)
        gens = [random_vect(L, rnd, max_degree=2)
                for _ in range(rnd.randint(2, 3))]
        gens = [g for g in gens if g]
        if gens:
            yield L, gens


def _gtop(module):
    return ModOrder("top", module.algebra.order, module.rank, graded=True,
                    shifts=module.shifts)


@pytest.mark.parametrize("name,seed,floor", [("weyl1", 1, 3),
                                             ("ex14", 2, 3),
                                             ("qheis", 1, 4)])
def test_filtered_frame_matches_the_per_stage_resolution(name, seed, floor):
    """minimal_filtered_resolution (the Schreyer frame of the pruned
    presentation with its top-degree units cancelled) against the
    per-stage route of oracles.reference_filtered_betti; some frames are
    not minimal, so cancellations run on inhomogeneous rows."""
    A = corpus.load(name).algebra
    ctx = FiltrationContext(A)
    rnd = random.Random(seed)
    cancelled = 0
    for L, gens in _seeded_filtered_inputs(A, rnd, 12):
        R = minimal_filtered_resolution(ctx, L, gens)
        assert betti_table(R) == oracles.reference_filtered_betti(
            ctx, L, gens)
        assert oracles.chain_composes_to_zero(R)
        assert sigma_resolution(ctx, R).composition_is_zero()
        for module, mat in zip(R.modules, R.maps):
            rows = [module.from_polys(row) for row in mat.entries]
            assert prune_unit_pivots(module, rows)[4] == []
        pruned = minimal_F_basis(ctx, L, buchberger(gens, _gtop(L)).elements)
        if pruned.kept:
            L1 = pruned.new_module
            frame = free_resolution(L1, pruned.gens, _gtop(L1))
            # each cancellation drops one basis vector from two modules
            cancelled += (sum(frame.ranks()) - sum(R.ranks())) // 2
    assert cancelled >= floor


def test_filtered_resolution_runs_no_stage_completion(monkeypatch):
    """On graded input the filtered resolution has the Betti table of
    the graded one, from the Schreyer frame alone: no minimal standard
    basis, degree-driven completion or syzygy lift per stage.  On this
    input the per-stage lift through V swells."""
    calls = {"syzygy_of_generators": 0, "degree_driven_completion": 0}
    for name in calls:
        for module in (groebner, syzres, graded, filtered):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    A = corpus.load("ex12").algebra
    L = FreeModule(A, 2, (0, 1))
    gens = [L.parse(["0", "1/3*a3"]),
            L.parse(["-3/2*a2^2*a3 - 1/2*a1^2*a2", "-a1*a3 + 2*a1^2"]),
            L.parse(["2/3*a3^3", "-4/3*a2*a3"]),
            L.parse(["3/2*a2^2*a3 + 3*a1^3", "3/2*a2^2"])]
    R = minimal_filtered_resolution(FiltrationContext(A), L, gens)
    assert betti_table(R) == betti_table(minimal_graded_resolution(L, gens))
    assert calls == {name: 0 for name in calls}


def test_filtered_resolution_completes_each_presentation_once(monkeypatch):
    """The certificate of the pruning reads the leads of the frame's
    first map, so the generators are completed once and the pruned
    presentation once (for the frame), not a third time."""
    calls = []
    original = groebner.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (groebner, syzres, filtered):
        monkeypatch.setattr(module, "buchberger", counting)
    pf = corpus.load("qheis")
    R = minimal_filtered_resolution(
        FiltrationContext(pf.algebra), pf.module, pf.generators)
    assert R.ranks() == [1, 3, 3, 1]
    assert len(calls) == 2
