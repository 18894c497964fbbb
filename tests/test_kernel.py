"""The sparse-term kernel and the raw payloads it keeps.

Containers store a ``Fraction`` over Q and a residue in ``[0, p)`` over
GF(p), never a zero and never a ``Scalar``.  The differential test runs
the same submodules through both payload paths of the kernel.
"""

import random
from fractions import Fraction

import pytest

from solvpoly import fixtures as corpus
from solvpoly.coeff import DivisionByZero, FieldSpec
from solvpoly.groebner import buchberger, reduce_basis
from solvpoly.modfree import FreeModule, ModOrder, Vect, left_divide_module

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
