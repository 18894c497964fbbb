import random

import pytest

from solvpoly import fixtures as corpus
from solvpoly.algebra import build_algebra
from solvpoly.coeff import FieldSpec
from solvpoly.modfree import FreeModule, Vect


@pytest.fixture
def rng():
    return random.Random(20260814)


@pytest.fixture(scope="session")
def comm2():
    return corpus.load("comm2").algebra


@pytest.fixture(scope="session")
def weyl1():
    return corpus.load("weyl1").algebra


@pytest.fixture(scope="session")
def qplane():
    return corpus.load("qplane").algebra


@pytest.fixture(scope="session")
def ex12():
    return corpus.load("ex12").algebra


@pytest.fixture(scope="session")
def ex14():
    return corpus.load("ex14").algebra


@pytest.fixture(scope="session")
def qheis():
    return corpus.load("qheis").algebra


def over(field: FieldSpec, name: str):
    """The fixture algebra ``name`` built over ``field`` from its
    relation strings."""
    pf = corpus.load(name)
    return build_algebra(field, pf.names, pf.order, pf.relations,
                         degree_function=pf.degree_function)


def random_scalar(field: FieldSpec, rnd: random.Random, nonzero=False):
    while True:
        num = rnd.randint(-4, 4)
        if num == 0 and nonzero:
            continue
        den = rnd.randint(1, 3)
        return field.scalar(num, den).value


def random_poly(A, rnd: random.Random, max_degree=3, max_terms=3,
                nonzero=False):
    """A sparse random element with plain-degree bounded exponents."""
    terms = []
    for _ in range(rnd.randint(1 if nonzero else 0, max_terms)):
        exp = [0] * A.n
        budget = rnd.randint(0, max_degree)
        for _ in range(budget):
            exp[rnd.randrange(A.n)] += 1
        terms.append((tuple(exp), random_scalar(A.field, rnd, nonzero=True)))
    f = A.from_terms(terms)
    if nonzero and f.is_zero():
        return A.one()
    return f


def random_vect(L: FreeModule, rnd: random.Random, max_degree=3,
                max_terms=3, nonzero=False) -> Vect:
    polys = [random_poly(L.algebra, rnd, max_degree, max_terms)
             for _ in range(L.rank)]
    v = L.from_polys(polys)
    if nonzero and v.is_zero():
        return L.basis(rnd.randrange(L.rank))
    return v
