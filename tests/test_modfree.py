import random

import pytest

from solvpoly.algebra import exp_add
from solvpoly.filtered import FiltrationContext, ReesModOrder
from solvpoly.modfree import (
    FreeModule,
    IncompatibleModules,
    ModOrder,
    Vect,
    left_divide_module,
    mono_divides,
    normal_monomials,
)

from conftest import random_poly, random_vect
from oracles import reference_left_divide


def random_mono(rnd, n, rank, max_entry=3):
    exp = tuple(rnd.randint(0, max_entry) for _ in range(n))
    return (exp, rnd.randrange(rank))


@pytest.fixture(params=["top", "pot"])
def morder(request, weyl1):
    return ModOrder(request.param, weyl1.order, 3)


def test_module_construction_and_equality(weyl1, comm2):
    L = FreeModule(weyl1, 2, (0, 3))
    assert L.shifts == (0, 3)
    assert L == FreeModule(weyl1, 2, (0, 3))
    assert L != FreeModule(weyl1, 2, (0, 0))
    assert L != FreeModule(comm2, 2, (0, 3))
    with pytest.raises(ValueError):
        FreeModule(weyl1, 0)


def test_vect_componentwise_algebra(weyl1, rng):
    L = FreeModule(weyl1, 3)
    for _ in range(20):
        u = random_vect(L, rng)
        v = random_vect(L, rng)
        f = random_poly(weyl1, rng)
        assert (u + v) - v == u
        for c in range(3):
            got = u.lmul(f).component(c)
            assert got == weyl1.multiply(f, u.component(c))


def test_vect_rejects_bad_components(weyl1):
    L = FreeModule(weyl1, 2)
    with pytest.raises(IncompatibleModules):
        Vect(L, {((0, 0), 5): weyl1.field.one.value})
    with pytest.raises(IncompatibleModules):
        L.from_polys([weyl1.one()])


def test_module_order_total_and_multiplicative(morder, rng, weyl1):
    n = weyl1.n
    for _ in range(300):
        a = random_mono(rng, n, 3)
        b = random_mono(rng, n, 3)
        ca, cb = morder.compare(a, b), morder.compare(b, a)
        assert ca == -cb
        assert (ca == 0) == (a == b)
        exp = tuple(rng.randint(0, 2) for _ in range(n))
        shifted_a = (exp_add(exp, a[0]), a[1])
        shifted_b = (exp_add(exp, b[0]), b[1])
        if a[1] == b[1]:
            # same-component comparisons survive monomial multiplication
            assert morder.compare(shifted_a, shifted_b) == ca


def test_top_versus_pot(weyl1):
    top = ModOrder("top", weyl1.order, 2)
    pot = ModOrder("pot", weyl1.order, 2)
    small_high = ((0, 1), 1)
    big_low = ((2, 0), 0)
    # term-over-position ranks by the ring monomial first
    assert top.compare(big_low, small_high) == 1
    # position-over-term ranks by the component first
    assert pot.compare(big_low, small_high) == -1


def test_graded_order_uses_shifts(weyl1):
    L = FreeModule(weyl1, 2, (0, 3))
    g = ModOrder("top", weyl1.order, 2, graded=True, shifts=L.shifts)
    assert g.degree_of(((1, 1), 0)) == 2
    assert g.degree_of(((1, 1), 1)) == 5
    # degree decides before anything else
    assert g.compare(((0, 0), 1), ((1, 1), 0)) == 1


def test_schreyer_order(weyl1):
    L = FreeModule(weyl1, 1)
    images = [L.parse(["x^2"]), L.parse(["x*y"])]
    base = ModOrder("top", weyl1.order, 1)
    sch = ModOrder("schreyer", weyl1.order, 2,
                   schreyer_images=images, schreyer_target=base)
    # under grlex with y most significant, x*y beats x^2
    assert sch.compare(((0, 0), 0), ((0, 0), 1)) == -1
    # multiplying e_0 by y lands on x^2*y which beats x*y
    assert sch.compare(((0, 1), 0), ((0, 0), 1)) == 1


def test_mono_divides_mirrors_exponents(weyl1, rng):
    for _ in range(100):
        a = random_mono(rng, 2, 2)
        b = random_mono(rng, 2, 2)
        expect = a[1] == b[1] and all(x <= y for x, y in zip(a[0], b[0]))
        assert mono_divides(a, b) == expect


def test_left_divide_module_reconstructs(weyl1, rng):
    L = FreeModule(weyl1, 2)
    order = ModOrder("top", weyl1.order, 2)
    for _ in range(25):
        xi = random_vect(L, rng)
        divisors = [random_vect(L, rng, nonzero=True) for _ in range(2)]
        quots, rem = left_divide_module(xi, divisors, order)
        rebuilt = rem
        for q, d in zip(quots, divisors):
            rebuilt = rebuilt + d.lmul(q)
        assert rebuilt == xi
        # remainder terms are normal modulo the divisor leading monomials
        lms = [d.lm(order) for d in divisors]
        for mono, _ in rem.data.items():
            assert not any(mono_divides(lm, mono) for lm in lms)


def _division_orders(A, rank, rng):
    """TOP, POT (reversed priority), graded TOP with shifts, and a
    Schreyer order induced by random images in a rank-2 module."""
    shifts = [rng.randint(0, 2) for _ in range(rank)]
    target = ModOrder("top", A.order, 2)
    T = FreeModule(A, 2)
    images = [random_vect(T, rng, nonzero=True) for _ in range(rank)]
    return {
        "top": ModOrder("top", A.order, rank),
        "pot": ModOrder("pot", A.order, rank,
                        component_priority=list(range(rank))[::-1]),
        "graded": ModOrder("top", A.order, rank, graded=True,
                           shifts=shifts),
        "schreyer": ModOrder("schreyer", A.order, rank,
                             schreyer_images=images, schreyer_target=target),
    }


def _same_division(got, want):
    """Identical quotients and remainder, down to term order."""
    (gq, grem), (wq, wrem) = got, want
    assert [q.terms for q in gq] == [q.terms for q in wq]
    assert list(grem.data.items()) == list(wrem.data.items())


@pytest.mark.parametrize("name", ["weyl1", "qplane", "qheis"])
def test_left_divide_matches_reference(request, name, rng):
    A = request.getfixturevalue(name)
    L = FreeModule(A, 2)
    for kind, order in _division_orders(A, 2, rng).items():
        for _ in range(12):
            xi = random_vect(L, rng, max_degree=4, max_terms=4)
            divisors = [random_vect(L, rng, max_degree=2, nonzero=True)
                        for _ in range(rng.randint(1, 3))]
            _same_division(left_divide_module(xi, divisors, order),
                           reference_left_divide(xi, divisors, order))


def test_left_divide_cancelled_term_reappears(weyl1):
    """A monomial cancelled at one step and brought back by a later one
    is reduced again; the case is checked to do exactly that."""
    L = FreeModule(weyl1, 1)
    order = ModOrder("top", weyl1.order, 1)
    xi = L.parse(["x^2*y^2 + 2/3*x*y + 3*x^2 - 2*x"])
    divisors = [L.parse(["-3/2*x*y + 3*x"])]
    steps = [frozenset(xi.data)]
    want = reference_left_divide(xi, divisors, order, steps)
    x = ((1, 0), 0)
    assert [x in left for left in steps] == [True, False, False, True]
    _same_division(left_divide_module(xi, divisors, order), want)


def test_left_divide_least_index_wins_on_equal_leads(qplane, rng):
    L = FreeModule(qplane, 2)
    order = ModOrder("pot", qplane.order, 2)
    lead = L.parse(["x*y", "0"])
    for _ in range(10):
        tails = [L.from_polys([random_poly(qplane, rng, max_degree=1),
                               qplane.zero()]) for _ in range(3)]
        divisors = [lead + t for t in tails]
        assert len({d.lm(order) for d in divisors}) == 1
        xi = random_vect(L, rng, max_degree=4, max_terms=4) + L.parse(
            ["x^2*y^3", "0"])
        got = left_divide_module(xi, divisors, order)
        assert not got[0][0].is_zero()
        assert got[0][1].is_zero() and got[0][2].is_zero()
        _same_division(got, reference_left_divide(xi, divisors, order))


def test_left_divide_zero_input(qheis):
    L = FreeModule(qheis, 2)
    order = ModOrder("top", qheis.order, 2)
    quots, rem = left_divide_module(L.zero(), [L.parse(["x", "y"])], order)
    assert [q.is_zero() for q in quots] == [True]
    assert rem.is_zero()


def _key_orders(A, seed):
    """Every module order kind, Rees included, built from one seed."""
    orders = _division_orders(A, 2, random.Random(seed))
    rees_ring = FiltrationContext(A).rees().algebra
    orders["rees"] = ReesModOrder(rees_ring.order, 2, shifts=(0, 1))
    return orders


def test_memoised_module_keys_match_fresh_ones(weyl1, rng):
    warm, fresh = _key_orders(weyl1, 7), _key_orders(weyl1, 7)
    for kind, order in warm.items():
        n = order.base.n
        monos = [random_mono(rng, n, 2) for _ in range(100)]
        keys = [order.key(m) for m in monos]
        for m, k in zip(monos, keys):
            assert order.key(m) is k
            assert k == fresh[kind]._key(m) == fresh[kind].key(m)


def test_module_order_is_immutable(weyl1):
    order = ModOrder("top", weyl1.order, 2)
    order.key(((1, 0), 1))
    with pytest.raises(AttributeError):
        order.kind = "pot"
    with pytest.raises(AttributeError):
        order.shifts = (0, 1)
    with pytest.raises(AttributeError):
        order.extra = 1
    assert order.kind == "top"


class _BasisView:
    """The duck shape normal_monomials expects."""

    def __init__(self, module, order, elements):
        self.module = module
        self.order = order
        self.elements = elements


def test_normal_monomials_counts(comm2):
    L = FreeModule(comm2, 1)
    order = ModOrder("top", comm2.order, 1)
    # staircase {x^2, y}: normal monomials are 1, x
    G = _BasisView(L, order, [L.parse(["x^2"]), L.parse(["y"])])
    normal = normal_monomials(G)
    assert sorted(normal) == [((0, 0), 0), ((1, 0), 0)]


def test_normal_monomials_infinite_marker(comm2):
    from solvpoly.modfree import InfiniteMarker
    L = FreeModule(comm2, 1)
    order = ModOrder("top", comm2.order, 1)
    G = _BasisView(L, order, [L.parse(["x^2"])])
    assert normal_monomials(G) == InfiniteMarker()
    capped = normal_monomials(G, bound=2)
    # 1, x, y, x*y, y^2 escape x^2 up to total degree 2
    assert sorted(capped) == [
        ((0, 0), 0), ((0, 1), 0), ((0, 2), 0), ((1, 0), 0), ((1, 1), 0)]
