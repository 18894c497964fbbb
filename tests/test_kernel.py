"""The sparse-term kernel and the raw payloads it keeps.

Containers store a ``Fraction`` over Q and a residue in ``[0, p)`` over
GF(p), never a zero and never a ``Scalar``.  The differential test runs
the same submodules through both payload paths of the kernel.  The
containers share their arithmetic, which one parity test checks on all
of them against a dict reference.
"""

import random
from fractions import Fraction

import pytest

from solvpoly import fixtures as corpus
from solvpoly.algebra import DegreeFunction, Poly
from solvpoly.coeff import DivisionByZero, FieldSpec, MixedFields, SolvpolyError
from solvpoly.groebner import buchberger, reduce_basis
from solvpoly.modfree import (FreeModule, IncompatibleModules, ModOrder, Vect,
                              _coded, left_divide_module)
from solvpoly.presentation import FreePoly, WordOrder

from conftest import over, random_poly, random_scalar, random_vect

P = 32003
GF = FieldSpec("PrimeField", P)
NAMES = ("comm2", "weyl1", "qplane", "ex12", "ex14", "qheis")


def assert_payloads(field, pairs):
    for _, c in pairs:
        if field.characteristic:
            assert type(c) is int and 0 < c < field.characteristic, c
        else:
            assert type(c) is Fraction and c != 0, c


def assert_poly(f):
    assert_payloads(f.algebra.field, f.terms)


def assert_vect(v):
    assert_payloads(v.module.algebra.field, v.data.items())


@pytest.mark.parametrize("field", [FieldSpec("Rationals"), GF],
                         ids=["Q", "GFp"])
@pytest.mark.parametrize("name", NAMES)
def test_containers_store_canonical_nonzero_payloads(name, field):
    A = over(field, name)
    rnd = random.Random(7)
    for rel in A.relations.values():
        assert_payloads(field, [(None, rel.lam)])
        assert_poly(rel.tail)
    for _ in range(6):
        f, g = random_poly(A, rnd), random_poly(A, rnd, nonzero=True)
        c = random_scalar(field, rnd, nonzero=True)
        for h in (f + g, f - g, g - g, -f, f.scale(c), g.monic(),
                  A.multiply(f, g), A.multiply(g, f)):
            assert_poly(h)
    # products of generators against the order, whose coefficients over
    # Q the kernel holds as ints where they are integral
    for j in range(A.n):
        for i in range(j):
            xj, xi = A.names[j], A.names[i]
            for h in (A.multiply(A.gen(j, 2), A.gen(i, 3)),
                      A.parse("%s^2*%s*%s^2 - %s" % (xj, xi, xj, xi)),
                      A.parse("%s*%s" % (xj, xi)) + A.gen(i)):
                assert_poly(h)
    L = FreeModule(A, 2)
    order = ModOrder("top", A.order, 2)
    for _ in range(3):
        u, v = (random_vect(L, rnd, max_degree=2, nonzero=True)
                for _ in range(2))
        c = random_scalar(field, rnd, nonzero=True)
        f = random_poly(A, rnd, max_degree=2)
        for w in (u + v, u - v, v - v, -u, u.scale(c), v.monic(order),
                  u.lmul(f)):
            assert_vect(w)
        _, rem = left_divide_module(u.lmul(f) + v, [u, v], order)
        assert_vect(rem)
    G = reduce_basis(buchberger([u, v], order))
    for g in G.elements:
        assert_vect(g)
    for row in G.V + G.U:
        for q in row:
            assert_poly(q)


def _ref_sum(a, b, s, p):
    """``a + s * b`` term by term, zeros dropped: the dict reference."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + s * c
        if p:
            out[m] %= p
    return {m: c for m, c in out.items() if c}


def _containers(kind, field, rnd):
    """For one container kind over ``field``: a maker of random elements,
    the element of a given dict, the lead's order arguments and key,
    an element over another parent and the error mixing them raises."""
    if kind == "FreePoly":
        order = WordOrder(DegreeFunction((1, 2)))

        def make():
            words = [tuple(rnd.randrange(2) for _ in range(rnd.randint(0, 3)))
                     for _ in range(rnd.randint(0, 4))]
            return FreePoly(field, 2, [
                (w, random_scalar(field, rnd, nonzero=True)) for w in words])

        foreign = [FreePoly(field, 3, {(2,): 1}),
                   FreePoly(FieldSpec("PrimeField", 5), 2)]
        return (make, lambda data: FreePoly(field, 2, data), (order,),
                order.key, foreign, MixedFields)
    A = over(field, "weyl1")
    if kind == "Poly":
        return (lambda: random_poly(A, rnd), lambda data: Poly(A, data.items()),
                (), A.order.key, [random_poly(over(field, "weyl1"), rnd)],
                SolvpolyError)
    L, L3 = FreeModule(A, 2), FreeModule(A, 3)
    order = ModOrder("pot", A.order, 2)
    if kind == "Vect":
        return (lambda: random_vect(L, rnd), lambda data: Vect(L, data),
                (order,), order.key, [random_vect(L3, rnd)],
                IncompatibleModules)
    return (lambda: _coded(random_vect(L, rnd), order),
            lambda data: _coded(Vect(L, data), order), (order,), order.key,
            [_coded(random_vect(L3, rnd), L3.top)], IncompatibleModules)


@pytest.mark.parametrize("field", [FieldSpec("Rationals"), GF,
                                   FieldSpec("PrimeField", 7)],
                         ids=["Q", "GFp", "GF7"])
@pytest.mark.parametrize("kind", ["Poly", "Vect", "_IntVect", "FreePoly"])
def test_the_containers_share_one_arithmetic(kind, field):
    """Sums, differences, negation, multiples, ``monic``, equality and
    hashing of every term container against a term-by-term dict
    reference; mixed parents raise the container's own error, no
    attribute is assigned, and an integer row equals, hashes like and
    combines into the payload vector of its data."""
    rnd = random.Random(17)
    make, build, order, key, foreign, error = _containers(kind, field, rnd)
    p = field.characteristic
    result = Vect if kind == "_IntVect" else type(build({}))
    for _ in range(10):
        x, y = make(), make()
        c = random_scalar(field, rnd, nonzero=True)
        got = [x + y, x - y, x - x, -x, x.scale(c)]
        want = [_ref_sum(x.data, y.data, 1, p), _ref_sum(x.data, y.data, -1, p),
                {}, _ref_sum({}, x.data, -1, p), _ref_sum({}, x.data, c, p)]
        if x:
            got.append(x.monic(*order))
            lead = max(x.data, key=key)
            want.append(_ref_sum({}, x.data, field.inverse(x.data[lead]), p))
        else:
            with pytest.raises(SolvpolyError):
                x.monic(*order)
        for g, w in zip(got, want):
            assert type(g) is result or g is x, kind
            assert g.data == w and bool(g) == bool(w) == (not g.is_zero())
            twin = build(w)
            assert g == twin and twin == g and hash(g) == hash(twin)
        assert (x == y) == (x.data == y.data)
        for other in foreign:
            assert x != other
            for combine in (x.__add__, x.__sub__):
                with pytest.raises(error) as exc:
                    combine(other)
                assert type(exc.value) is error
        for name in ("data", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, {})
        if kind == "_IntVect":
            v = Vect(x.module, dict(x.data))
            assert x == v and v == x and hash(x) == hash(v)
            assert type(v + x) is Vect and type(x.scale(c)) is Vect


@pytest.mark.parametrize("field", [FieldSpec("Rationals"), GF],
                         ids=["Q", "GFp"])
def test_inverse_of_zero_raises(field):
    with pytest.raises(DivisionByZero):
        field.inverse(field.zero.value)
    assert field.inverse(field.scalar(2).value) == field.scalar(1, 2).value


def _integer_vect(rnd, L, LP, max_degree=2, max_terms=2, lowest=1):
    """The same random vector with small integer coefficients in L (over
    Q) and in LP (over GF(p)); terms have degree ``lowest`` or more."""
    n = L.algebra.n
    data = {}
    for comp in range(L.rank):
        for _ in range(rnd.randint(1, max_terms)):
            exp = [0] * n
            for _ in range(rnd.randint(lowest, max_degree)):
                exp[rnd.randrange(n)] += 1
            data[(tuple(exp), comp)] = rnd.choice([-3, -2, -1, 1, 2, 3])
    return (Vect(L, {m: Fraction(c) for m, c in data.items()}),
            Vect(LP, {m: c % P for m, c in data.items()}))


def _mod_p(v):
    return {m: GF.scalar(c.numerator, c.denominator).value
            for m, c in v.data.items()}


# ex14 runs at rank 1 only: some rank-2 submodules of it take minutes
# over Q (coefficient swell in the tracked completion).
@pytest.mark.parametrize("name, rank", [
    ("comm2", 1), ("comm2", 2), ("weyl1", 1), ("weyl1", 2), ("qplane", 1),
    ("qplane", 2), ("ex12", 1), ("ex12", 2), ("ex14", 1)])
def test_rational_basis_reduces_to_the_residue_basis(name, rank):
    """The Fraction path of the kernel against its residue path: the
    reduced basis over Q, read mod p, is the reduced basis over GF(p),
    and so are the normal forms of random vectors by it."""
    A, AP = corpus.load(name).algebra, over(GF, name)
    L, LP = FreeModule(A, rank), FreeModule(AP, rank)
    order = ModOrder("top", A.order, rank)
    order_p = ModOrder("top", AP.order, rank)
    rnd = random.Random(1000 * rank + NAMES.index(name))
    for _ in range(8):
        pairs = [_integer_vect(rnd, L, LP)
                 for _ in range(rnd.randint(rank, rank + 1))]
        got = reduce_basis(buchberger([q for q, _ in pairs], order))
        want = reduce_basis(buchberger([r for _, r in pairs], order_p))
        assert [_mod_p(g) for g in got.elements] == [
            g.data for g in want.elements]
        for _ in range(3):
            w, wp = _integer_vect(rnd, L, LP, max_degree=4, max_terms=4,
                                  lowest=0)
            _, rem = left_divide_module(w, got.elements, order)
            _, rem_p = left_divide_module(wp, want.elements, order_p)
            assert _mod_p(rem) == rem_p.data
