import os
import random
from fractions import Fraction

import pytest

import solvpoly.modfree as modfree
from solvpoly.algebra import exp_add
from solvpoly.cli import parse_problem
from solvpoly.coeff import FieldSpec
from solvpoly.filtered import FiltrationContext, ReesModOrder
from solvpoly.groebner import buchberger, s_polynomial
from solvpoly.modfree import (
    FreeModule,
    IncompatibleModules,
    ModOrder,
    Vect,
    _Divisors,
    left_divide_module,
    mono_divides,
    normal_monomials,
)

from conftest import over, random_poly, random_vect
from oracles import reference_left_divide

BENCH_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "corpus")
FIXTURES = ["comm2", "weyl1", "qplane", "ex12", "ex14", "qheis"]


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
    zero = FreeModule(weyl1, 0)
    assert (zero.rank, zero.shifts) == (0, ())
    assert zero == FreeModule(weyl1, 0, ())
    with pytest.raises(ValueError):
        FreeModule(weyl1, -1)


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


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("kind", ["top", "pot"])
def test_opposite_order_compares_reversed_monomials(kind, graded, ex12,
                                                    rng):
    """``opposite_order`` ranks reversed module monomials as the order
    ranks the monomials: the order ``is_projective`` completes under
    over ``A.opposite()``."""
    order = ModOrder(kind, ex12.order, 3, component_priority=(2, 0, 1),
                     graded=graded, shifts=(0, 2, 1) if graded else None)
    op = modfree.opposite_order(order)
    for _ in range(200):
        a, b = random_mono(rng, ex12.n, 3), random_mono(rng, ex12.n, 3)
        assert order.compare(a, b) == op.compare((a[0][::-1], a[1]),
                                                 (b[0][::-1], b[1]))


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


@pytest.mark.parametrize("name", FIXTURES)
def test_left_divide_mod_7_matches_reference(name):
    """Over GF(7) what is left of the dividend is reduced mod 7 only
    when a term is popped, so its ints wrap many times before that."""
    A = over(FieldSpec("PrimeField", 7), name)
    rnd = random.Random(len(name) * 7)
    L = FreeModule(A, 2)
    for kind, order in _division_orders(A, 2, rnd).items():
        for _ in range(6):
            xi = random_vect(L, rnd, max_degree=4, max_terms=4)
            divisors = [random_vect(L, rnd, max_degree=2, nonzero=True)
                        for _ in range(rnd.randint(1, 3))]
            _same_division(left_divide_module(xi, divisors, order),
                           reference_left_divide(xi, divisors, order))


def _big_vect(L, rnd, bits, degree):
    """Up to three terms per component of degree at most ``degree``,
    each coefficient a ratio of two random ints of about ``bits`` bits.
    """
    A = L.algebra
    polys = []
    for _ in range(L.rank):
        terms = []
        for _ in range(rnd.randint(1, 3)):
            exp = [0] * A.n
            for _ in range(rnd.randint(0, degree)):
                exp[rnd.randrange(A.n)] += 1
            num = rnd.getrandbits(bits) + 1
            terms.append((tuple(exp), Fraction(rnd.choice([-1, 1]) * num,
                                               rnd.getrandbits(bits) + 1)))
        polys.append(A.from_terms(terms))
    return L.from_polys(polys)


@pytest.mark.parametrize("name", ["weyl1", "qplane", "qheis"])
def test_left_divide_big_coefficients_match_reference(name, monkeypatch):
    """Coefficients of several hundred bits: every step multiplies the
    numerators by a lead of that size, so the division removes the
    content of what is left along the way, and the result still equals
    the reference's."""
    A = over(FieldSpec(), name)
    L = FreeModule(A, 2)
    order = ModOrder("top", A.order, 2)
    rnd = random.Random(len(name))
    removed = []
    remove = modfree._remove_content

    def counting(nums, den):
        removed.append(den)
        return remove(nums, den)

    monkeypatch.setattr(modfree, "_remove_content", counting)
    for _ in range(4):
        xi = _big_vect(L, rnd, 300, 5)
        divisors = [_big_vect(L, rnd, 300, 2) for _ in range(2)]
        _same_division(left_divide_module(xi, divisors, order),
                       reference_left_divide(xi, divisors, order))
    assert removed


def test_left_divide_products_with_denominators(qheis, monkeypatch):
    """In qheis (z*y = 2*y*z, z*x = 1/2*x*z), z^3*y is 8*y*z^3, so
    dividing it by 2*y*z + x needs no multiplier on what is left; but
    z^2 times the tail x is x*z^2/4, which raises its denominator by 4
    in the middle of the step."""
    L = FreeModule(qheis, 1)
    order = ModOrder("top", qheis.order, 1)
    xi = L.parse(["z^3*y + x"])
    divisors = [L.parse(["z*y + x"])]
    scaled = []
    scale = modfree._scale

    def counting(nums, r):
        scaled.append(r)
        return scale(nums, r)

    monkeypatch.setattr(modfree, "_scale", counting)
    got = left_divide_module(xi, divisors, order)
    assert scaled == [4]
    assert got[1] == L.parse(["-1/4*x*z^2 + x"])
    _same_division(got, reference_left_divide(xi, divisors, order))


def test_left_divide_mod_p_cancelled_term_reappears(monkeypatch):
    """Over GF(7) the monomial x*y cancels mod 7 (its int is -35, not
    0), stays out of the steps that follow and is brought back by a
    later one; the reference shows it leave and come back."""
    A = over(FieldSpec("PrimeField", 7), "weyl1")
    L = FreeModule(A, 1)
    order = ModOrder("top", A.order, 1)
    xi = L.parse(["6*y^4 + x*y + 5*x^2"])
    divisors = [L.parse(["4*y + 6*x"])]
    steps = [frozenset(xi.data)]
    want = reference_left_divide(xi, divisors, order, steps)
    xy = ((1, 1), 0)
    assert [xy in left for left in steps] == [
        True, True, False, False, False, True, False]
    seen = []
    to_ints = modfree._to_ints

    class Watched(dict):
        def __setitem__(self, m, n):
            if m == xy:
                seen.append(n)
            dict.__setitem__(self, m, n)

    monkeypatch.setattr(modfree, "_to_ints",
                        lambda items: (Watched(to_ints(items)[0]), 1))
    _same_division(left_divide_module(xi, divisors, order), want)
    assert any(n and n % 7 == 0 for n in seen)


@pytest.mark.parametrize("p", [0, 7])
def test_prepared_divisors_built_by_append(p):
    """A prepared list grown one element at a time, as the completion
    grows its basis, divides as the plain list does; under another
    order it is prepared again."""
    A = over(FieldSpec("PrimeField", p) if p else FieldSpec(), "qheis")
    L = FreeModule(A, 2)
    rnd = random.Random(11 + p)
    orders = list(_division_orders(A, 2, rnd).values())
    for order, other in zip(orders, orders[1:] + orders[:1]):
        divisors = [random_vect(L, rnd, max_degree=2, nonzero=True)
                    for _ in range(3)]
        prepared = _Divisors(order)
        for d in divisors:
            prepared.append(d)
        assert prepared == divisors
        assert prepared.leads == [d.lm(order) for d in divisors]
        for _ in range(4):
            xi = random_vect(L, rnd, max_degree=4, max_terms=4)
            for o in (order, other):
                want = reference_left_divide(xi, divisors, o)
                _same_division(left_divide_module(xi, prepared, o), want)
                _same_division(left_divide_module(xi, divisors, o), want)


def _least_divisor(leads, m):
    """The least index whose lead divides ``m``, by a linear scan."""
    return next((i for i, lm in enumerate(leads) if mono_divides(lm, m)),
                None)


def _check_lookups(prepared, L, rnd, rounds):
    """Append ``rounds`` random divisors to ``prepared``, each followed
    by lookups checked against a least-index scan of the leads; the
    monomials come from a small pool, so most lookups repeat one made
    before an append."""
    pool = [random_mono(rnd, L.algebra.n, L.rank, max_entry=5)
            for _ in range(30)]
    for _ in range(rounds):
        prepared.append(random_vect(L, rnd, max_degree=4, nonzero=True))
        for m in rnd.sample(pool, 15):
            entry = prepared.find(m)
            want = _least_divisor(prepared.leads, m)
            if want is None:
                assert entry is None
            else:
                assert entry[0] == want
                assert prepared.leads[want] == (entry[1], m[1])


@pytest.mark.parametrize("seed", range(6))
def test_divisor_lookup_matches_a_linear_scan(comm2, seed):
    """find, remembered per monomial, against a least-index scan of the
    leads, with appends between lookups."""
    rnd = random.Random(seed)
    L = FreeModule(comm2, 2)
    order = ModOrder("pot" if seed % 2 else "top", comm2.order, 2)
    _check_lookups(_Divisors(order), L, rnd, 12)


def test_divisor_memo_stays_within_the_cache_limit(monkeypatch):
    """find remembers at most SOLVPOLY_CACHE_LIMIT monomials, in a
    completion as on a list built by hand, and the lookups it does not
    remember still find the least-index divisor."""
    monkeypatch.setenv("SOLVPOLY_CACHE_LIMIT", "5")
    pf = parse_problem(os.path.join(BENCH_CORPUS, "sl2-4-q.json"))
    G = buchberger(pf.generators, pf.mod_order)
    assert 0 < len(G.elements._found) <= 5
    A = pf.algebra
    prepared = _Divisors(ModOrder("top", A.order, 2))
    _check_lookups(prepared, FreeModule(A, 2), random.Random(7), 12)
    assert len(prepared._found) == 5


def test_divisor_lookup_after_a_miss_and_after_a_hit(comm2):
    L = FreeModule(comm2, 2)
    order = ModOrder("top", comm2.order, 2)
    prepared = _Divisors(order, [L.parse(["x^2", "0"])])
    m = ((1, 3), 0)
    assert prepared.find(m) is None
    # a miss: the divisor appended next is found
    prepared.append(L.parse(["0", "y"]))  # another component
    assert prepared.find(m) is None
    prepared.append(L.parse(["x*y", "0"]))
    assert prepared.find(m)[0] == 2
    # a hit keeps its least index when a later divisor also divides
    prepared.append(L.parse(["y", "0"]))
    assert prepared.find(m)[0] == 2
    assert prepared.find(((0, 1), 0))[0] == 3
    assert prepared.find(((3, 3), 0))[0] == 0


def test_division_runs_no_payload_arithmetic(monkeypatch):
    """Over Q, once the monomial products are cached, dividing an
    S-vector of sl2-4-q by its basis adds, subtracts and multiplies no
    Fraction, and makes one Fraction per quotient and remainder term."""
    pf = parse_problem(os.path.join(BENCH_CORPUS, "sl2-4-q.json"))
    order = pf.mod_order
    G = buchberger(pf.generators, order)
    basis = list(G.elements)
    S = s_polynomial(basis[-2], basis[-1], order)
    assert not S.is_zero()
    left_divide_module(S, basis, order)
    ops, made = [], []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(*args, _fn=getattr(Fraction, name), _name=name):
            ops.append(_name)
            return _fn(*args)
        monkeypatch.setattr(Fraction, name, counted)
    new = Fraction.__new__

    def creating(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(creating))
    quotients, rem = left_divide_module(S, basis, order)
    monkeypatch.undo()
    assert ops == []
    terms = sum(len(q.terms) for q in quotients) + len(rem.data)
    assert terms and len(made) == terms


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
