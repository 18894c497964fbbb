import contextlib
import io
import itertools
import math
import os
import random
import time
from fractions import Fraction

import pytest

from solvpoly import cli
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
    _MASK_BITS,
    _exp_mask,
    check_associative,
    exp_add,
    exp_divides,
    exp_max,
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


def skew_weyl(field, lam):
    """The Weyl pair y*x = x*y + 1 with z*x = 2*x*z and z*y = lam*y*z: the
    skew pair (z, x) shares x with the Weyl pair, so no closed form
    applies.  The table is associative exactly when lam = 1/2."""
    return build_algebra(field, ("x", "y", "z"), _grlex(3),
                         ["y*x = x*y + 1", "z*x = 2*x*z",
                          "z*y = %s*y*z" % lam])


def fresh(name, field):
    """A new algebra, with an empty product cache: a fixture by name, the
    four Weyl pairs, the associative skew-Weyl table, or a file of the
    benchmark corpus."""
    if name == "weyl-pairs":
        return weyl_pairs(field)
    if name == "skew-weyl":
        return skew_weyl(field, "1/2")
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
        assert A.from_terms(A.mono_mul(a, b)) == want, (a, b)


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
    got = A.from_terms(A.mono_mul((0, 9), (9, 0)))
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
@pytest.mark.parametrize("name", ["qheis", "ex14", "sl2-3-q", "skew-weyl"])
def test_walked_tables_match_word_rewriting(name, field):
    A = fresh(name, field)
    assert A._scalar_table is None
    assert_products_match_the_oracle(A, random.Random(16), 25, 3)


def test_a_skew_pair_on_a_weyl_generator_is_checked_for_associativity():
    # z*y = y*z leaves the table non-associative: no closed form may
    # vouch for it
    A = skew_weyl(Q, "1")
    assert A._scalar_table is None
    x, y, z = (A.gen(i) for i in range(3))
    assert A.multiply(A.multiply(z, y), x) == A.parse("2*x*y*z + 2*z")
    assert A.multiply(z, A.multiply(y, x)) == A.parse("2*x*y*z + z")
    with pytest.raises(NonAssociative,
                       match=r"^\(z\*y\)\*x - z\*\(y\*x\) = z$"):
        check_associative(A)


def test_weyl_power_product_is_one_pass():
    # y^400 x^400 = sum_k k! C(400, k)^2 x^(400-k) y^(400-k)
    A = fresh("weyl1", Q)
    start = time.perf_counter()
    got = A.mono_mul((0, 400), (400, 0))
    elapsed = time.perf_counter() - start
    want = A.from_terms(
        ((400 - k, 400 - k), math.factorial(k) * math.comb(400, k) ** 2)
        for k in range(401))
    assert A.from_terms(got) == want
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
    assert got == (((3, 6, 5), Fraction(1)),)
    assert list(sl2.product_cache) == [((3, 2, 0), (0, 4, 5))]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", corpus.all_names())
def test_every_cached_product_leads_with_the_exponent_sum(name, field):
    # mono_mul keeps its products unsorted but lead first: the first
    # term is a^(a+b) with the lead coefficient of the sorted product,
    # for the products asked for and for every one cached on the way
    rnd = random.Random(18)
    A = fresh(name, field)
    for B in (A, A.opposite()):
        for _ in range(20):
            a = sparse_exp(rnd, B.n, 4)
            b = sparse_exp(rnd, B.n, 4)
            got = B.mono_mul(a, b)
            want = oracles.reference_product(B.monomial(a), B.monomial(b))
            assert got[0] == want.terms[0] == (exp_add(a, b), want.lc())
        for _ in range(10):
            B.multiply(random_poly(B, rnd, max_degree=4),
                       random_poly(B, rnd, max_degree=4))
        assert B.product_cache
        for (a, b), got in B.product_cache.items():
            assert isinstance(got, tuple)
            assert got[0] == B.from_terms(got).terms[0]
            assert got[0][0] == exp_add(a, b)


# ---------------------------------------------------------------------------
# the kernel's copy of the table: integral constants as ints over Q
# ---------------------------------------------------------------------------

def problem_files():
    """The bundled fixtures and every problem file of the corpus."""
    return [corpus.path(name) for name in corpus.all_names()] + sorted(
        os.path.join(BENCH_CORPUS, f) for f in os.listdir(BENCH_CORPUS)
        if f.endswith(".json") and f != "manifest.json")


@pytest.mark.parametrize("path", [
    os.path.join(BENCH_CORPUS, name + ".json")
    for name in ("sl2-5-q", "gkz-q", "c44-q")] + [corpus.path("weyl1")],
    ids=os.path.basename)
def test_integral_tables_cache_int_products(path, monkeypatch):
    """Over Q, ``gb --reduce`` on a table whose constants are all
    integral leaves only ints in the product cache."""
    seen = []

    def recording(source):
        pf = parse_problem(source)
        seen.append(pf.algebra)
        return pf

    monkeypatch.setattr(cli, "parse_problem", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--json", "gb", "--reduce", path]) == 0
    (A,) = seen
    assert A.field == Q and A.product_cache
    assert all(type(c) is int
               for terms in A.product_cache.values() for _, c in terms)


def test_fractional_lambda_enters_only_its_own_products():
    """On qheis over Q (z*x = 1/2*x*z, the other constants integral)
    every product equals the word rewriting term for term, and it holds
    only ints unless a z passes an x: one of a^a, or the tail z of y*x
    with an x of a^b left to pass."""
    A = fresh("qheis", Q)
    box = list(itertools.product(range(3), repeat=3))
    fractional = 0
    for a in box:
        for b in box:
            got = A.mono_mul(a, b)
            want = oracles.reference_product(A.monomial(a), A.monomial(b))
            assert dict(got) == dict(want.terms), (a, b)
            if not b[0] or (not a[2] and b[0] == 1):
                assert all(type(c) is int for _, c in got), (a, b)
            fractional += any(c.denominator != 1 for _, c in got)
    assert fractional


@pytest.mark.parametrize("name", ["sl2-4-q", "gkz-q"])
def test_integral_products_make_no_fraction(name, monkeypatch):
    """With a cold cache, products on an integral table over Q (the walk
    on U(sl2), the closed forms on GKZ) add, multiply and make no
    Fraction."""
    A = fresh(name, Q)
    rnd = random.Random(23)
    pairs = [(sparse_exp(rnd, A.n, 3), sparse_exp(rnd, A.n, 3))
             for _ in range(40)]
    ops, made = [], []
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__pow__"):
        def counted(*args, _fn=getattr(Fraction, op), _op=op):
            ops.append(_op)
            return _fn(*args)
        monkeypatch.setattr(Fraction, op, counted)
    new = Fraction.__new__

    def creating(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(creating))
    got = [A.mono_mul(a, b) for a, b in pairs]
    monkeypatch.undo()
    assert ops == [] and made == []
    assert len(A.product_cache) > len(pairs) // 2
    for (a, b), terms in zip(pairs, got):
        want = oracles.reference_product(A.monomial(a), A.monomial(b))
        assert dict(terms) == dict(want.terms), (a, b)


def test_closed_form_tables_skip_the_associativity_triples(monkeypatch):
    """A table of closed-form products, on every fixture, every corpus
    file and each one's opposite, associates by the check over every
    triple, and ``check_associative`` accepts it without a product."""
    closed = []
    for path in problem_files():
        A = parse_problem(path).algebra
        for B in (A, A.opposite()):
            if B._scalar_table is not None:
                assert oracles.reference_associativity(B) is None, path
                closed.append(B)

    def refuse(*args):
        raise AssertionError("check_associative made a product")

    monkeypatch.setattr(SolvableAlgebra, "multiply", refuse)
    for B in closed:
        check_associative(B)
    assert len(closed) == 34


# ---------------------------------------------------------------------------
# core and shift, single-term closed forms, integral coefficients as ints
# ---------------------------------------------------------------------------

CORE_TABLES = ["sl2-3-q", "qheis", "ex14", "weyl1", "qplane", "gkz-q"]


def outer_powers(rnd, n):
    """a with a power of the least generator, b with one of the greatest."""
    a = list(sparse_exp(rnd, n, 3))
    b = list(sparse_exp(rnd, n, 3))
    a[0] = rnd.randint(1, 3)
    b[-1] = rnd.randint(1, 3)
    return tuple(a), tuple(b)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", CORE_TABLES)
def test_outer_powers_match_word_rewriting(name, field):
    A = fresh(name, field)
    rnd = random.Random(24)
    for _ in range(20):
        a, b = outer_powers(rnd, A.n)
        want = oracles.reference_product(A.monomial(a), A.monomial(b))
        got = A.mono_mul(a, b)
        assert A.from_terms(got) == want, (a, b)
        assert got[0] == want.terms[0]


@pytest.mark.parametrize("name", ["sl2-3-q", "qheis", "ex14"])
def test_a_walked_miss_walks_only_the_core(name):
    """On a cold cache, a product with outer powers caches what its core
    product caches, and itself."""
    rnd = random.Random(5)
    checked = 0
    for _ in range(10):
        a, b = outer_powers(rnd, 3)
        core = ((0,) + a[1:], b[:-1] + (0,))
        A, B = fresh(name, Q), fresh(name, Q)
        A.mono_mul(*core)
        B.mono_mul(a, b)
        least = min((k for k, v in enumerate(b) if v), default=3)
        if any(a[least + 1:]):  # not already ordered
            assert set(B.product_cache) == set(A.product_cache) | {(a, b)}
            checked += 1
    assert checked


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["weyl1", "gkz-q", "weyl-pairs"])
def test_weyl_pairs_that_do_not_meet_give_one_term(name, field):
    A = fresh(name, field)
    _, weyls = A._scalar_table
    assert weyls
    rnd = random.Random(9)
    for _ in range(30):
        a = list(sparse_exp(rnd, A.n, 4))
        b = list(sparse_exp(rnd, A.n, 4))
        for j, i, _ in weyls:
            if rnd.random() < 0.5:
                a[j] = 0
            else:
                b[i] = 0
        a, b = tuple(a), tuple(b)
        want = oracles.reference_product(A.monomial(a), A.monomial(b))
        got = A.mono_mul(a, b)
        assert len(got) == 1 and A.from_terms(got) == want, (a, b)


@pytest.mark.parametrize("name", CORE_TABLES)
def test_core_products_respect_the_cache_limit(name, monkeypatch):
    monkeypatch.setenv("SOLVPOLY_CACHE_LIMIT", "3")
    A = fresh(name, Q)
    assert A.cache_limit == 3
    rnd = random.Random(31)
    for _ in range(15):
        a, b = outer_powers(rnd, A.n)
        want = oracles.reference_product(A.monomial(a), A.monomial(b))
        assert A.from_terms(A.mono_mul(a, b)) == want, (a, b)
        assert len(A.product_cache) <= 3


@pytest.mark.parametrize("path, command", [
    pytest.param(corpus.path("qheis"), ["gb", "--reduce"], id="qheis.json"),
    # gb --reduce forms no product on the monomials of skew-4-2, which
    # are their own basis; their syzygies still multiply
    pytest.param(os.path.join(BENCH_CORPUS, "skew-4-2.json"), ["syz"],
                 id="skew-4-2.json")])
def test_fractional_tables_cache_integral_coefficients_as_ints(
        path, command, monkeypatch):
    """Over Q, on a table that mixes integral and fractional constants,
    a command that multiplies (``gb --reduce``, ``syz``) leaves no
    Fraction of denominator 1 in the product cache, and prints what it
    printed when they were Fractions."""
    seen = []

    def recording(source):
        pf = parse_problem(source)
        seen.append(pf.algebra)
        return pf

    monkeypatch.setattr(cli, "parse_problem", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--json", *command, path]) == 0
    (A,) = seen
    coefficients = [c for terms in A.product_cache.values() for _, c in terms]
    assert any(type(c) is Fraction for c in coefficients)
    assert not any(type(c) is Fraction and c.denominator == 1
                   for c in coefficients)
    init = SolvableAlgebra.__init__

    def keeping_fractions(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._fractional = False

    monkeypatch.setattr(SolvableAlgebra, "__init__", keeping_fractions)
    again = io.StringIO()
    with contextlib.redirect_stdout(again):
        assert cli.main(["--json", *command, path]) == 0
    assert again.getvalue() == out.getvalue()
    # the run that kept them did hold integral Fractions
    assert any(type(c) is Fraction and c.denominator == 1
               for terms in seen[1].product_cache.values() for _, c in terms)


# ---------------------------------------------------------------------------
# parsing multiplies factors in written order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["comm2", "ex12", "ex14", "qheis", "qplane",
                                  "weyl1", "sl2-3-q", "gkz-q"])
def test_parse_multiplies_factors_in_written_order(name, field):
    """``b*a`` with b after a parses to the product of its factors, the
    normal form of an out-of-order word; over Q every payload is a
    Fraction, as ``multiply`` makes them."""
    A = fresh(name, field)
    for i, j in itertools.combinations(range(A.n), 2):
        a, b = A.names[i], A.names[j]
        assert A.parse(b) == A.gen(j) and A.parse(a) == A.gen(i)
        got = A.parse("%s*%s" % (b, a))
        assert got == A.multiply(A.parse(b), A.parse(a)), (b, a)
        assert got == oracles.reference_product(A.gen(j), A.gen(i))
        if field.characteristic:
            assert all(0 < c < field.characteristic for _, c in got.terms)
        else:
            assert all(type(c) is Fraction for _, c in got.terms)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("text", ["f^2*e^3*h", "h^2*f*e^2", "e*h*f*e",
                                  "3*h*f^2*e - 1/2*e*h + 2", "f^3*e^3 + h"])
def test_parse_multiplies_powers_in_written_order(text, field):
    """Mixed products with powers on U(sl2): each term is its factors
    multiplied left to right, the terms summed."""
    A = fresh("sl2-3-q", field)
    want = A.zero()
    for term in text.replace(" - ", " + -").split(" + "):
        part = A.one()
        for factor in term.split("*"):
            part = A.multiply(part, A.parse(factor))
        want = want + part
    assert A.parse(text) == want


def test_parse_sums_cancel_and_reduce_mod_p():
    """f*e - e*f + h cancels to zero on U(sl2); over GF(p) the literals
    and the relation constants are residues: over GF(2), h*e = e*h."""
    for field in FIELDS:
        A = fresh("sl2-3-q", field)
        zero = A.parse("f*e - e*f + h")
        assert zero.is_zero() and A.poly_str(zero) == "0"
    A = fresh("sl2-3-q", FieldSpec("PrimeField", 7))
    assert A.parse("7*e + 8*f*e") == A.parse("e*f - h")
    assert A.poly_str(A.parse("3/2*f*e")) == "5*e*f + 2*h"
    B = fresh("sl2-3-q", FieldSpec("PrimeField", 2))
    assert B.parse("h*e") == B.parse("e*h")
    assert B.parse("h*e + e*h").is_zero()


@pytest.mark.parametrize("name", ["weyl1", "sl2-3-q"])
def test_parse_refuses_an_exponent_of_2_to_the_32(name):
    A = fresh(name, Q)
    x, y = A.names[0], A.names[1]
    for text in ["%s^4294967296" % x, "%s^4294967295*%s" % (x, x),
                 "%s*%s^4294967296" % (y, x), "1 + 2*%s^4294967296" % y]:
        with pytest.raises(ExponentOverflow):
            A.parse(text)
    assert A.parse("%s^4294967295" % x).lm()[0] == 2 ** 32 - 1
    # a term with a zero coefficient is dropped before any product
    assert A.parse("0*%s^4294967296" % x).is_zero()


# ---------------------------------------------------------------------------
# divisibility masks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 70])
def test_exp_mask_against_exp_divides(n):
    """mask(a) & ~mask(b) != 0 only when a does not divide b, exactly so
    below the mask width; the mask of an lcm is the or of the masks."""
    width = max(1, _MASK_BITS // n)
    rnd = random.Random(n)
    values = [0, 1, width - 1, width, width + 1, 2 * width + 3]
    vecs = [(0,) * n] + [
        tuple(rnd.choice(values) if rnd.random() < 0.6 else 0
              for _ in range(n))
        for _ in range(40)]
    vecs += [tuple(min(v, width - 1) for v in e) for e in vecs[:10]]
    assert _exp_mask((0,) * n) == 0
    for a in vecs:
        for b in vecs:
            ma, mb = _exp_mask(a), _exp_mask(b)
            passes = not ma & ~mb
            if exp_divides(a, b):
                assert passes, (a, b)
            elif max(a + b) < width:
                assert not passes, (a, b)
            assert _exp_mask(exp_max(a, b)) == ma | mb, (a, b)
