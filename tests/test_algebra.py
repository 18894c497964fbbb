import math
import os
import random
import time

import pytest

from solvpoly import fixtures as corpus
from solvpoly.algebra import (
    DegreeFunction,
    ExponentOverflow,
    ExprSyntaxError,
    MalformedRelation,
    MonomialOrder,
    NonAssociative,
    Poly,
    SolvableAlgebra,
    TailOrderViolation,
    UnknownGenerator,
    ZeroLambda,
    build_algebra,
    check_associative,
    exp_add,
    reversed_poly,
)
from solvpoly.cli import parse_problem
from solvpoly.coeff import FieldSpec

import oracles
from conftest import over, random_poly

Q = FieldSpec("Rationals")


def random_exp(rnd, n, max_entry=4):
    return tuple(rnd.randint(0, max_entry) for _ in range(n))


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

@pytest.fixture(params=[
    ("lex", 3, None, None),
    ("grlex", 3, None, (1, 1, 1)),
    ("grlex", 3, (1, 0, 2), (2, 1, 4)),
    ("grlexz", 3, None, (1, 1)),
])
def order(request):
    kind, n, priority, weights = request.param
    degree = DegreeFunction(weights) if weights else None
    return MonomialOrder(kind, n, priority=priority, degree=degree)


def test_order_is_total_and_antisymmetric(order, rng):
    for _ in range(300):
        a = random_exp(rng, order.n)
        b = random_exp(rng, order.n)
        ca, cb = order.compare(a, b), order.compare(b, a)
        assert ca in (-1, 0, 1)
        assert ca == -cb
        assert (ca == 0) == (a == b)


def test_order_respects_multiplication(order, rng):
    """a < b implies a+c < b+c, and 0 <= a for every a."""
    n = order.n
    zero = (0,) * n
    for _ in range(300):
        a = random_exp(rng, n)
        b = random_exp(rng, n)
        c = random_exp(rng, n)
        cmp_ab = order.compare(a, b)
        assert order.compare(exp_add(a, c), exp_add(b, c)) == cmp_ab
        if a != zero:
            assert order.compare(zero, a) == -1


def test_order_transitive_on_samples(order, rng):
    for _ in range(200):
        exps = [random_exp(rng, order.n) for _ in range(3)]
        exps.sort(key=order.key)
        assert order.compare(exps[0], exps[2]) <= 0


def test_memoised_keys_match_fresh_ones(order, rng):
    fresh = MonomialOrder(order.kind, order.n, order.priority, order.degree)
    exps = [random_exp(rng, order.n) for _ in range(100)]
    keys = [order.key(e) for e in exps]
    for e, k in zip(exps, keys):
        assert order.key(e) is k
        assert k == fresh._key(e) == fresh.key(e)


def test_opposite_order_compares_reversed_exponents(order, rng):
    if order.kind == "grlexz":
        with pytest.raises(ValueError):
            order.opposite()
        return
    op = order.opposite()
    for _ in range(60):
        a, b = random_exp(rng, order.n), random_exp(rng, order.n)
        assert order.compare(a, b) == op.compare(a[::-1], b[::-1])


def test_grlex_compares_weighted_degree_first():
    d = DegreeFunction((2, 1, 4))
    order = MonomialOrder("grlex", 3, priority=(1, 0, 2), degree=d)
    # degree 4 beats degree 3 regardless of the priority ranking
    assert order.compare((0, 0, 1), (1, 1, 0)) == 1
    # within equal degree the most significant generator decides
    assert order.compare((1, 0, 1), (0, 2, 1)) == 1


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder("grlex", 2)  # needs a degree function
    with pytest.raises(ValueError):
        MonomialOrder("grlex", 2, priority=(0, 0),
                      degree=DegreeFunction((1, 1)))
    with pytest.raises(ValueError):
        MonomialOrder("glex", 2)
    with pytest.raises(ValueError):
        DegreeFunction((1, 0))


# ---------------------------------------------------------------------------
# the rewriting product
# ---------------------------------------------------------------------------

def commutative_product(A, f, g):
    """Schoolbook convolution, valid in the commutative fixture only."""
    acc = {}
    for ea, ca in f.terms:
        for eb, cb in g.terms:
            e = exp_add(ea, eb)
            s = acc.get(e)
            acc[e] = ca * cb if s is None else s + ca * cb
    return A.from_terms(acc.items())


def test_product_matches_commutative_oracle(comm2, rng):
    for _ in range(40):
        f = random_poly(comm2, rng)
        g = random_poly(comm2, rng)
        assert comm2.multiply(f, g) == commutative_product(comm2, f, g)


def test_weyl_relation_products(weyl1):
    x, y = weyl1.gen(0), weyl1.gen(1)
    assert weyl1.multiply(y, x) == weyl1.parse("x*y + 1")
    assert weyl1.multiply(y, weyl1.multiply(y, x)) == weyl1.parse(
        "x*y^2 + 2*y")
    got = weyl1.multiply(weyl1.multiply(y, y), weyl1.multiply(x, x))
    assert got == weyl1.parse("x^2*y^2 + 4*x*y + 2")


def test_qplane_relation_products(qplane):
    x, y = qplane.gen(0), qplane.gen(1)
    assert qplane.multiply(y, x) == qplane.parse("2*x*y")
    # y^2 x = 4 x y^2, y x^2 = 4 x^2 y
    assert qplane.multiply(qplane.multiply(y, y), x) == qplane.parse(
        "4*x*y^2")


@pytest.mark.parametrize("name", ["comm2", "weyl1", "qplane", "ex12",
                                  "ex14", "qheis"])
def test_product_associates(name, request, rng):
    A = request.getfixturevalue(name)
    for _ in range(12):
        f = random_poly(A, rng, max_degree=2, max_terms=2)
        g = random_poly(A, rng, max_degree=2, max_terms=2)
        h = random_poly(A, rng, max_degree=2, max_terms=2)
        assert A.multiply(A.multiply(f, g), h) == A.multiply(
            f, A.multiply(g, h))


@pytest.mark.parametrize("name", ["comm2", "weyl1", "qplane", "ex12",
                                  "ex14", "qheis"])
def test_leading_monomial_is_multiplicative(name, request, rng):
    """LM(fg) = LM(f) + LM(g) for nonzero f, g (domain property)."""
    A = request.getfixturevalue(name)
    for _ in range(25):
        f = random_poly(A, rng, nonzero=True)
        g = random_poly(A, rng, nonzero=True)
        fg = A.multiply(f, g)
        assert not fg.is_zero()
        assert fg.lm() == exp_add(f.lm(), g.lm())


FIXTURES = ["comm2", "weyl1", "qplane", "ex12", "ex14", "qheis"]


@pytest.mark.parametrize("name", FIXTURES)
def test_opposite_reverses_products(name, request, rng):
    """phi(f*g) = phi(g)*phi(f) in A^op, and (A^op)^op multiplies like A."""
    A = request.getfixturevalue(name)
    op = A.opposite()
    assert op is A.opposite()
    assert op.names == A.names[::-1]
    twice = op.opposite()
    for _ in range(12):
        f = random_poly(A, rng, max_degree=3, max_terms=3)
        g = random_poly(A, rng, max_degree=3, max_terms=3)
        fg = A.multiply(f, g)
        assert reversed_poly(fg, op) == op.multiply(
            reversed_poly(g, op), reversed_poly(f, op))
        assert reversed_poly(reversed_poly(fg, op), A) == fg
        got = twice.multiply(Poly(twice, f.terms), Poly(twice, g.terms))
        assert got.terms == fg.terms


def test_distributive_and_scalar_laws(weyl1, rng):
    for _ in range(25):
        f = random_poly(weyl1, rng)
        g = random_poly(weyl1, rng)
        h = random_poly(weyl1, rng)
        assert weyl1.multiply(f, g + h) == (
            weyl1.multiply(f, g) + weyl1.multiply(f, h))
        assert weyl1.multiply(f + g, h) == (
            weyl1.multiply(f, h) + weyl1.multiply(g, h))
        c = weyl1.field.scalar(3, 2).value
        assert weyl1.multiply(f.scale(c), g) == weyl1.multiply(f, g).scale(c)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_poly_str_round_trip(ex12, rng):
    for _ in range(30):
        f = random_poly(ex12, rng)
        assert ex12.parse(ex12.poly_str(f)) == f


def test_parse_rejects_unknown_names(comm2):
    with pytest.raises(UnknownGenerator):
        comm2.parse("x + q")


def test_parse_handles_signs_and_powers(comm2):
    f = comm2.parse("-x^2 + 3/2*y - 1")
    assert comm2.poly_str(f) == "-x^2 + 3/2*y - 1"


@pytest.mark.parametrize("text, spaced", [
    ("x-2", "x - 2"),
    ("x^2-3/2", "x^2 - 3/2"),
    ("-2/3*x^2 + 2*y", "-2/3*x^2 + 2*y"),
    ("x + -2", "x - 2"),
    ("x - -2", "x + 2"),
    ("x*y-1", "x*y - 1"),
])
def test_parse_binary_minus_before_a_numeral(comm2, text, spaced):
    assert comm2.parse(text) == comm2.parse(spaced)


@pytest.mark.parametrize("text", ["2*-3", "x^-2", "--x", "x - "])
def test_parse_rejects_misplaced_signs(comm2, text):
    with pytest.raises(ExprSyntaxError):
        comm2.parse(text)


def test_relation_with_binary_minus_before_a_numeral():
    A = build_algebra(Q, ("x", "y"), _grlex(2), ["y*x = x*y-1"])
    x, y = A.parse("x"), A.parse("y")
    assert A.multiply(y, x) == A.parse("x*y - 1")


# ---------------------------------------------------------------------------
# presentation validation at construction time
# ---------------------------------------------------------------------------

def _grlex(n):
    return MonomialOrder("grlex", n, degree=DegreeFunction((1,) * n))


def test_build_algebra_rejects_zero_lambda():
    with pytest.raises(ZeroLambda):
        build_algebra(Q, ("x", "y"), _grlex(2), ["y*x = 1"])


def test_build_algebra_rejects_heavy_tails():
    with pytest.raises(TailOrderViolation):
        build_algebra(Q, ("x", "y"), _grlex(2), ["y*x = x*y + x^3"])


def test_build_algebra_rejects_malformed():
    with pytest.raises(MalformedRelation):
        build_algebra(Q, ("x", "y"), _grlex(2), ["y*x - x*y"])
    with pytest.raises(MalformedRelation):
        build_algebra(Q, ("x", "y"), _grlex(2), ["x*y = y*x"])
    with pytest.raises(MalformedRelation):
        build_algebra(Q, ("x", "y"), _grlex(2),
                      ["y*x = x*y", "y*x = 2*x*y"])
    with pytest.raises(UnknownGenerator):
        build_algebra(Q, ("x", "y"), _grlex(2), ["z*x = x*z"])


def test_check_associative_refuses_a_non_associative_table():
    # (z*y)*x = x*y*z + x*y + z + 1 but z*(y*x) = x*y*z + x*y + z
    A = build_algebra(Q, ("x", "y", "z"), _grlex(3),
                      ["y*x = x*y + 1", "z*x = x*z", "z*y = y*z + y"])
    with pytest.raises(NonAssociative, match=r"\(z\*y\)\*x - z\*\(y\*x\) = 1"):
        check_associative(A)


def test_check_associative_accepts_the_fixtures(comm2, weyl1, qplane, ex12,
                                                ex14, qheis):
    for A in (comm2, weyl1, qplane, ex12, ex14, qheis):
        check_associative(A)
        check_associative(A.opposite())


def test_unspecified_pairs_commute():
    A = build_algebra(Q, ("x", "y", "z"), _grlex(3), ["y*x = 2*x*y"])
    z, x = A.gen(2), A.gen(0)
    assert A.multiply(z, x) == A.multiply(x, z)


def test_product_cache_env_cap(monkeypatch):
    monkeypatch.setenv("SOLVPOLY_CACHE_LIMIT", "1")
    A = build_algebra(Q, ("x", "y"), _grlex(2), ["y*x = x*y + 1"])
    y, x = A.gen(1), A.gen(0)
    # correctness must not depend on the cache size
    assert A.multiply(y, x) == A.parse("x*y + 1")
    assert A.multiply(y, A.multiply(y, x)) == A.parse("x*y^2 + 2*y")


# ---------------------------------------------------------------------------
# closed-form products on tables of scalar tails, and the walk elsewhere
# ---------------------------------------------------------------------------

FIELDS = [Q, FieldSpec("PrimeField", 32003), FieldSpec("PrimeField", 7)]
BENCH_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "corpus")


def weyl_pairs(field):
    """Four Weyl pairs d_k x_k = x_k d_k + c_k, as in the GKZ systems, with
    scalars c_k other than 1 so that c^k shows."""
    names = ("x1", "x2", "x3", "x4", "d1", "d2", "d3", "d4")
    rels = ["d1*x1 = x1*d1 + 1", "d2*x2 = x2*d2 + 2",
            "d3*x3 = x3*d3 - 1", "d4*x4 = x4*d4 + 1/2"]
    return build_algebra(field, names, _grlex(8), rels)


def fresh(name, field):
    """A new algebra, with an empty product cache: a fixture by name, the
    four Weyl pairs, or a file of the benchmark corpus."""
    if name == "weyl-pairs":
        return weyl_pairs(field)
    if name in corpus.all_names():
        return over(field, name)
    pf = parse_problem(os.path.join(BENCH_CORPUS, name + ".json"))
    return build_algebra(field, pf.names, pf.order, pf.relations,
                         degree_function=pf.degree_function)


def sparse_exp(rnd, n, max_entry):
    """An exponent vector with at most three nonzero entries, so that
    the word rewriting of the oracle stays small."""
    exp = [0] * n
    for k in rnd.sample(range(n), min(n, 3)):
        exp[k] = rnd.randint(0, max_entry)
    return tuple(exp)


def assert_products_match_the_oracle(A, rnd, pairs, max_entry):
    for _ in range(pairs):
        a = sparse_exp(rnd, A.n, max_entry)
        b = sparse_exp(rnd, A.n, max_entry)
        want = oracles.reference_product(A.monomial(a), A.monomial(b))
        assert A.mono_mul(a, b) == want, (a, b)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["comm2", "weyl1", "qplane", "ex12",
                                  "weyl-pairs"])
def test_closed_form_products_match_word_rewriting(name, field):
    A = fresh(name, field)
    assert_products_match_the_oracle(A, random.Random(16), 40, 6)


@pytest.mark.parametrize("field", FIELDS[1:], ids=str)
def test_closed_form_drops_the_terms_that_vanish_mod_p(field):
    # y^9 x^9 = sum_k k! C(9, k)^2 x^(9-k) y^(9-k) in weyl1: over GF(7)
    # the terms k >= 7 vanish with k!, and so do k = 3..6 with C(9, k)
    A = fresh("weyl1", field)
    got = A.mono_mul((0, 9), (9, 0))
    assert got == oracles.reference_product(A.gen(1, 9), A.gen(0, 9))
    p = field.characteristic
    want = [9 - k for k in range(10)
            if math.factorial(k) * math.comb(9, k) ** 2 % p]
    assert [e[0] for e, _ in got.terms] == want
    assert len(want) == (3 if p == 7 else 10)
    assert all(0 < c < p for _, c in got.terms)
    assert_products_match_the_oracle(A, random.Random(7), 30, 9)


@pytest.mark.parametrize("name", ["comm2", "weyl1", "qplane", "ex12",
                                  "weyl-pairs", "skew-5-2", "gkz-p"])
def test_tables_of_scalar_tails_never_enter_the_walk(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("the suffix walk ran")

    monkeypatch.setattr(SolvableAlgebra, "_walk", refuse)
    monkeypatch.setattr(SolvableAlgebra, "_gen_times_mono", refuse)
    rnd = random.Random(3)
    A = fresh(name, Q)
    for B in (A, A.opposite()):
        for _ in range(20):
            f = random_poly(B, rnd, max_degree=5)
            g = random_poly(B, rnd, max_degree=5)
            B.multiply(f, g)
        assert B.product_cache


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["qheis", "ex14", "sl2-3-q"])
def test_walked_tables_match_word_rewriting(name, field):
    A = fresh(name, field)
    assert A._scalar_table is None
    assert_products_match_the_oracle(A, random.Random(16), 25, 3)


def test_weyl_power_product_is_one_pass():
    # y^400 x^400 = sum_k k! C(400, k)^2 x^(400-k) y^(400-k)
    A = fresh("weyl1", Q)
    start = time.perf_counter()
    got = A.mono_mul((0, 400), (400, 0))
    elapsed = time.perf_counter() - start
    want = A.from_terms(
        ((400 - k, 400 - k), math.factorial(k) * math.comb(400, k) ** 2)
        for k in range(401))
    assert got == want
    assert len(A.product_cache) <= 2
    assert elapsed < 0.1


def test_exp_add_refuses_an_exponent_of_2_to_the_32():
    with pytest.raises(ExponentOverflow):
        exp_add((2 ** 31, 0), (2 ** 31, 1))
    assert exp_add((2 ** 31, 0), (2 ** 31 - 1, 1)) == (2 ** 32 - 1, 1)


def test_products_refuse_overflow_before_expanding():
    # each must raise at once rather than take 2^31 walk steps
    half = 2 ** 31
    A = fresh("qplane", Q)
    with pytest.raises(ExponentOverflow):
        A.mono_mul((half, 0), (half, 0))
    with pytest.raises(ExponentOverflow):
        A.mono_mul((half, 1), (half, 0))  # the closed-form route
    sl2 = fresh("sl2-3-q", Q)
    assert sl2._scalar_table is None
    with pytest.raises(ExponentOverflow):
        sl2.mono_mul((half, 0, 0), (half, 0, 0))
    assert not A.product_cache and not sl2.product_cache


def test_ordered_products_are_one_monomial_on_every_table():
    sl2 = fresh("sl2-3-q", Q)
    got = sl2.mono_mul((3, 2, 0), (0, 4, 5))
    assert got == sl2.monomial((3, 6, 5))
    assert list(sl2.product_cache) == [((3, 2, 0), (0, 4, 5))]
