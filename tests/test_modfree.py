import math
import os
import random
from fractions import Fraction

import pytest

import solvpoly.modfree as modfree
from solvpoly.algebra import EXP_LIMIT, exp_add
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
    _IntVect,
    left_divide_module,
    mono_divides,
)

from conftest import over, quotient_polys, random_poly, random_vect
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
        for q, d in zip(quotient_polys(weyl1, quots, 2), divisors):
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
    gq = quotient_polys(wrem.module.algebra, gq, len(wq))
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
        assert list(got[0]) == [0]
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
    _same_division(left_divide_module(xi, divisors, order), want)
    seen = []
    divide = modfree._divide

    class Watched(dict):
        def __setitem__(self, m, n):
            if m == order.key(xy):
                seen.append(n)
            dict.__setitem__(self, m, n)

    monkeypatch.setattr(modfree, "_divide",
                        lambda work, *rest: divide(Watched(work), *rest))
    left_divide_module(xi, divisors, order)
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
            entry = prepared.find(prepared.order.key(m))
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


@pytest.mark.parametrize("seed", range(4))
def test_divisor_lookup_past_the_mask_width(comm2, seed):
    """Leads and monomials whose exponents reach past the 32 mask bits a
    variable of comm2 gets: the masks of x^33 and x^40 are equal, and
    find must still tell that the one does not divide the other."""
    rnd = random.Random(seed)
    L = FreeModule(comm2, 2)
    order = ModOrder("top", comm2.order, 2)
    values = (0, 1, 31, 32, 33, 40, 64)
    prepared = _Divisors(order)
    pool = [(tuple(rnd.choice(values) for _ in range(2)), rnd.randrange(2))
            for _ in range(40)]
    for _ in range(8):
        exp, comp = rnd.choice(pool)
        prepared.append(L.from_polys(
            [comm2.monomial(exp) if k == comp else comm2.zero()
             for k in range(2)]))
        for m in rnd.sample(pool, 20):
            entry = prepared.find(order.key(m))
            want = _least_divisor(prepared.leads, m)
            assert (entry and entry[0]) == want, m


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
    m = order.key(((1, 3), 0))
    assert prepared.find(m) is None
    # a miss: the divisor appended next is found
    prepared.append(L.parse(["0", "y"]))  # another component
    assert prepared.find(m) is None
    prepared.append(L.parse(["x*y", "0"]))
    assert prepared.find(m)[0] == 2
    # a hit keeps its least index when a later divisor also divides
    prepared.append(L.parse(["y", "0"]))
    assert prepared.find(m)[0] == 2
    assert prepared.find(order.key(((0, 1), 0)))[0] == 3
    assert prepared.find(order.key(((3, 3), 0)))[0] == 0


def test_division_runs_no_payload_arithmetic(monkeypatch):
    """Over Q, once the monomial products are cached, dividing an
    S-vector of sl2-4-q by its basis adds, subtracts and multiplies no
    Fraction and makes none: the quotients come back as integer pairs
    and the remainder's payloads are built only when it is read."""
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
    assert ops == [] and made == []
    assert quotients and rem.is_zero()


def test_left_divide_zero_input(qheis):
    L = FreeModule(qheis, 2)
    order = ModOrder("top", qheis.order, 2)
    quots, rem = left_divide_module(L.zero(), [L.parse(["x", "y"])], order)
    assert quots == {}
    assert rem.is_zero()


def _nums(v):
    """The numerators of an integer row keyed by module monomial."""
    monos = v.order._codec.monos
    return {monos[c]: n for c, n in v.codes.items()}


def _int_remainders(A, rnd, count):
    """Integer rows as a division leaves them: the remainders of seeded
    random _IntVect dividends, plus over Q one row with a negative lead
    and content 6 over 9."""
    L = FreeModule(A, 2)
    order = ModOrder("top", A.order, 2)
    rows = []
    while len(rows) < count:
        xi = random_vect(L, rnd, max_degree=4, max_terms=4)
        divisors = [random_vect(L, rnd, max_degree=2, nonzero=True)
                    for _ in range(2)]
        rem = left_divide_module(modfree._coded(xi, order),
                                 divisors, order)[1]
        if not rem.is_zero():
            rows.append(rem)
    if not A.field.characteristic:
        lead = max(rows[0].codes)
        codes = {c: 6 * (i + 1) for i, c in enumerate(rows[0].codes)}
        codes[lead] = -12
        rows.append(_IntVect(L, order, codes, 9))
    return L, order, rows


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("name", ["weyl1", "qplane", "qheis"])
def test_entry_of_an_integer_remainder_equals_the_monic_vects(name, p):
    """The completion joins a remainder to its basis from its ints
    (``_monic_row``): the vector equals the monic payload vector, the
    inverse is that of the lead coefficient, and the prepared entry is
    the one the monic Vect gets, ``[i, lexp, L, row, L, 1]`` with a
    primitive row and L > 0 over Q.  qheis (lambda = 1/2) gives
    remainders with denominators."""
    A = over(FieldSpec("PrimeField", p) if p else FieldSpec(), name)
    L, order, rows = _int_remainders(A, random.Random(len(name) + p), 6)
    signs = set()
    for rem in rows:
        payload = Vect(L, modfree._from_ints(_nums(rem).items(), rem.den, p))
        monic = payload.monic(order)
        g, inv = modfree._monic_row(rem, order)
        assert g == monic
        lc = payload.lc(order)
        assert inv == (None if lc == 1 else A.field.inverse(lc))
        got = _Divisors(order, [g]).entries
        want = _Divisors(order, [monic]).entries
        assert got == want
        i, lexp, lead, row, den, content = got[0]
        assert (i, lexp, den, content) == (0, g.lm(order)[0], lead, 1)
        assert lead > 0
        if not p:
            assert math.gcd(*row.values()) == 1
        signs.add(_nums(rem)[g.lm(order)] < 0)
    if not p:
        assert signs == {True, False}


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("name", FIXTURES)
def test_integer_division_matches_reference(name, p):
    """An _IntVect dividend, as the completion passes it: the quotients
    come back as ``{index: {exponent: (n, d)}}`` holding exactly the
    nonzero quotients, the remainder as an _IntVect, and their values
    are the reference division's."""
    A = over(FieldSpec("PrimeField", p) if p else FieldSpec(), name)
    rnd = random.Random(len(name) * 13 + p)
    L = FreeModule(A, 2)
    for kind, order in _division_orders(A, 2, rnd).items():
        for _ in range(5):
            xi = random_vect(L, rnd, max_degree=4, max_terms=4)
            divisors = [random_vect(L, rnd, max_degree=2, nonzero=True)
                        for _ in range(rnd.randint(1, 3))]
            row = modfree._coded(xi, order)
            before = dict(row.codes)
            quotients, rem = left_divide_module(row, divisors, order)
            assert row.codes == before
            want_q, want_rem = reference_left_divide(xi, divisors, order)
            assert isinstance(rem, _IntVect) and rem.den > 0
            assert all(rem.codes.values())
            got_rem = modfree._from_ints(_nums(rem).items(), rem.den, p)
            assert got_rem == want_rem.data
            assert sorted(quotients) == [
                i for i, q in enumerate(want_q) if q]
            for i, q in quotients.items():
                assert all(d > 0 for _, d in q.values())
                terms = {e: n % p if p else Fraction(n, d)
                         for e, (n, d) in q.items()}
                assert A.from_terms(terms.items()) == want_q[i]


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("name", FIXTURES)
def test_payload_and_integer_dividends_divide_alike(name, p):
    """A payload Vect dividend and the _IntVect of the same vector get
    one result: equal quotient dicts of integer pairs, and remainders
    that are both _IntVects with the same items in the same order."""
    A = over(FieldSpec("PrimeField", p) if p else FieldSpec(), name)
    rnd = random.Random(len(name) * 17 + p)
    L = FreeModule(A, 2)
    for kind, order in _division_orders(A, 2, rnd).items():
        for _ in range(4):
            xi = random_vect(L, rnd, max_degree=4, max_terms=4)
            divisors = [random_vect(L, rnd, max_degree=2, nonzero=True)
                        for _ in range(rnd.randint(1, 3))]
            q, rem = left_divide_module(xi, divisors, order)
            iq, irem = left_divide_module(
                modfree._coded(xi, order), divisors, order)
            assert isinstance(q, dict) and q == iq
            assert all(q.values())
            assert type(rem) is _IntVect and type(irem) is _IntVect
            assert list(rem.codes.items()) == list(irem.codes.items())
            assert rem.den == irem.den
            assert list(rem.data.items()) == list(irem.data.items())


def test_division_by_an_empty_list_leaves_the_dividend(qheis):
    L = FreeModule(qheis, 2)
    order = ModOrder("top", qheis.order, 2)
    xi = L.parse(["x*z + 1/2", "y"])
    for v in (xi, modfree._coded(xi, order), L.zero()):
        quotients, rem = left_divide_module(v, [], order)
        assert quotients == {} and rem is v


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
            assert k == fresh[kind].key(m)
        # the codes compare as the fresh tuple keys do
        for (m, k), (m2, k2) in zip(zip(monos, keys),
                                    zip(monos[1:], keys[1:])):
            assert (k < k2) == (fresh[kind]._key(m) < fresh[kind]._key(m2))


@pytest.mark.parametrize("p", [0, 32003])
def test_integer_rows_recoded_across_orders_decode_alike(p):
    """An integer row put on the codes of each order in turn (TOP, POT,
    graded, Schreyer and, on the Rees ring, the Rees order) keeps its
    payloads, denominator and leads; a row already on an order is
    itself on it.  qheis over Q has lambda = 1/2."""
    base = over(FieldSpec("PrimeField", p) if p else FieldSpec(), "qheis")
    rees = FiltrationContext(base).rees().algebra
    rnd = random.Random(p + 11)
    for A in (base, rees):
        orders = _division_orders(A, 2, random.Random(p + 5))
        if A is rees:
            orders["rees"] = ReesModOrder(rees.order, 2, shifts=(0, 1))
        L = FreeModule(A, 2)
        for _ in range(4):
            xi = random_vect(L, rnd, max_degree=3, max_terms=4,
                             nonzero=True)
            kinds = list(orders)
            rnd.shuffle(kinds)
            v = modfree._coded(xi, orders[kinds[-1]])
            den = v.den
            for kind in kinds + kinds[:1]:
                order = orders[kind]
                v = modfree._coded(v, order)
                assert v.order is order and modfree._coded(v, order) is v
                assert v.den == den
                assert v.data == xi.data, kind
                assert v.lm(order) == xi.lm(order), kind
                for other in orders.values():
                    assert v.lm(other) == xi.lm(other), kind


def _codec_orders(A, seed):
    """The orders of :func:`_key_orders` on A, a graded POT order with a
    negative shift and a Schreyer order over the Schreyer order."""
    orders = _key_orders(A, seed)
    rnd = random.Random(seed + 1)
    orders["graded-negative"] = ModOrder("pot", A.order, 2, graded=True,
                                         shifts=(-3, 1))
    images = [random_vect(FreeModule(A, 2), rnd, nonzero=True)
              for _ in range(2)]
    orders["schreyer2"] = ModOrder("schreyer", A.order, 2,
                                   schreyer_images=images,
                                   schreyer_target=orders["schreyer"])
    return orders


def _codec_algebras():
    """The six fixtures and their opposite algebras."""
    for name in FIXTURES:
        A = over(FieldSpec(), name)
        yield name, A
        yield name + "-op", A.opposite()


def _huge_mono(rnd, n, top):
    """A module monomial of rank 2 whose exponents run up to ``top``."""
    pick = (0, 1, 2, 3, top - 1, top, rnd.randrange(top + 1))
    return tuple(rnd.choice(pick) for _ in range(n)), rnd.randrange(2)


@pytest.mark.parametrize("name, A", list(_codec_algebras()))
def test_codes_sort_as_keys_shift_by_steps_and_decode(name, A):
    """Each order's int codes sort as its tuple keys do, on exponents up
    to EXP_LIMIT - 1 (a Schreyer order's key is its target's code at
    the image monomial, so its exponents stay a little below), adding
    the step of a^a to a code multiplies its monomial by a^a, and the
    codec gives every code back as its monomial."""
    rnd = random.Random(len(name))
    for kind, order in _codec_orders(A, len(name)).items():
        n, codec = order.base.n, order._codec
        top = EXP_LIMIT - 1 - (16 if kind.startswith("schreyer") else 0)
        monos = [_huge_mono(rnd, n, top) for _ in range(60)]
        monos += [random_mono(rnd, n, 2) for _ in range(40)]
        assert (sorted(monos, key=order.key)
                == sorted(monos, key=order._key)), kind
        assert len({order.key(m) for m in monos}) == len(set(monos))
        for e, c in monos:
            assert codec.monos[order.key((e, c))] == (e, c)
            a = tuple(rnd.randint(0, 3) for _ in range(n))
            e = tuple(min(x, top - 3) for x in e)
            assert (order.key((exp_add(a, e), c))
                    == order.key((e, c)) + codec.step(a)), kind


@pytest.mark.parametrize("name", FIXTURES)
def test_division_on_codes_with_a_small_product_table(name, monkeypatch):
    """With SOLVPOLY_CACHE_LIMIT=5 the table of products on codes keeps
    five products and makes the others afresh; the division still
    equals the reference under every order, on the algebra and on its
    opposite."""
    monkeypatch.setenv("SOLVPOLY_CACHE_LIMIT", "5")
    base = over(FieldSpec("PrimeField", 7), name)
    rnd = random.Random(len(name) * 5)
    full = 0
    for A in (base, base.opposite()):
        assert A.cache_limit == 5
        for kind, order in _codec_orders(A, len(name)).items():
            R = FiltrationContext(A).rees().algebra if kind == "rees" else A
            L = FreeModule(R, 2)
            for _ in range(3):
                xi = random_vect(L, rnd, max_degree=4, max_terms=4)
                divisors = [random_vect(L, rnd, max_degree=2, nonzero=True)
                            for _ in range(rnd.randint(1, 3))]
                _same_division(left_divide_module(xi, divisors, order),
                               reference_left_divide(xi, divisors, order))
            products = order._tables.get(R)
            if products is not None:
                assert sum(len(known) for _, known
                           in products.table.values()) <= 5
                full += not products.room
    assert full


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

