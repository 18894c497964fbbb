"""The products on module codes (``codes._Products``).

On a table of scalar tails with a Weyl pair the table forms each
product a^alpha * m on the order's codes, with no ``mono_mul`` call;
every product must equal ``mono_mul``'s, coded on the same order.
"""

import contextlib
import io
import os
import random

import pytest

from solvpoly import cli
from solvpoly.algebra import (
    DegreeFunction,
    EXP_LIMIT,
    ExponentOverflow,
    MonomialOrder,
    SolvableAlgebra,
    build_algebra,
)
from solvpoly.cli import parse_problem
from solvpoly.codes import _Products
from solvpoly.coeff import FieldSpec
from solvpoly.modfree import ModOrder

from conftest import over

FIELDS = [FieldSpec("Rationals"), FieldSpec("PrimeField", 32003),
          FieldSpec("PrimeField", 7)]
BENCH_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "corpus")


def grlex(n):
    return MonomialOrder("grlex", n, degree=DegreeFunction((1,) * n))


def table(name, field):
    """A closed-form table with a Weyl pair: the weyl1 fixture, the GKZ
    corpus table, a Weyl pair beside a skew pair, or the Weyl pair
    d*x = x*d + 1/2."""
    if name == "weyl1":
        return over(field, "weyl1")
    if name == "gkz":
        pf = parse_problem(os.path.join(BENCH_CORPUS, "gkz-q.json"))
        return build_algebra(field, pf.names, pf.order, pf.relations,
                             degree_function=pf.degree_function)
    if name == "skew-and-weyl":
        return build_algebra(field, ("x", "d", "z", "w"), grlex(4),
                             ["d*x = x*d + 1", "w*z = 3*z*w"])
    return build_algebra(field, ("x", "d"), grlex(2), ["d*x = x*d + 1/2"])


def module_orders(A):
    """TOP, POT, graded and Schreyer orders of rank > 1 on A."""
    n = A.n
    top = ModOrder("top", A.order, 2)
    lead = tuple(1 if k % 2 else 0 for k in range(n))
    return [
        top,
        ModOrder("pot", A.order, 3),
        ModOrder("top", A.order, 2, graded=True, shifts=(0, 3)),
        ModOrder("pot", A.order, 2, graded=True, shifts=(2, 0)),
        ModOrder("schreyer", A.order, 3, shifts=(1, 0, 2),
                 schreyer_images=[(lead, 0), ((0,) * n, 1), (lead, 1)],
                 schreyer_target=top),
    ]


def refuse(*args):
    raise AssertionError("the table called mono_mul")


def random_exp(rnd, n, dense):
    """Every entry up to 3 when ``dense``, so that several Weyl pairs
    meet; else at most three entries, up to 9."""
    if dense:
        return tuple(rnd.randint(0, 3) for _ in range(n))
    exp = [0] * n
    for k in rnd.sample(range(n), min(n, 3)):
        exp[k] = rnd.randint(0, 9)
    return tuple(exp)


def cases(rnd, A, weyls):
    """Random pairs (alpha, exp), then one per Weyl pair (j, i) with
    alpha_j = 9 and exp_i = 8: over GF(7) its factors from k = 7 on
    vanish."""
    out = [(random_exp(rnd, A.n, t % 2), random_exp(rnd, A.n, t % 3 == 0))
           for t in range(40)]
    for j, i, _, _ in weyls:
        alpha, exp = (list(random_exp(rnd, A.n, True)) for _ in range(2))
        alpha[j], exp[i] = 9, 8
        out.append((tuple(alpha), tuple(exp)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["weyl1", "gkz", "skew-and-weyl",
                                  "half-weyl"])
def test_products_on_codes_equal_mono_mul(name, field):
    A = table(name, field)
    rnd = random.Random(33)
    for order in module_orders(A):
        codec = order._codec
        products = order._products(A)
        assert products.weyls
        products.mono_mul = refuse
        for alpha, exp in cases(rnd, A, products.weyls):
            comp = rnd.randrange(order.rank)
            code = order.key((exp, comp))
            step = codec.step(alpha)
            known = products.row(step, alpha)[1]
            got = products.fill(known, alpha, step, code)
            terms = A.mono_mul(alpha, exp)
            want = tuple((codec.bases[comp] + codec.step(e), x)
                         for e, x in terms)
            assert got == want, (alpha, exp, comp)
            assert [type(x) for _, x in got] == [type(x) for _, x in want]
            # each code decodes to its term's monomial, both ways
            assert [codec.monos[k] for k, _ in got] == [
                (e, comp) for e, _ in terms]
            assert all(codec.codes[comp][e] == k
                       for (k, _), (e, _) in zip(got, terms))


def test_an_exponent_sum_at_2_to_the_32_raises_on_codes():
    A = table("weyl1", FIELDS[0])
    order = ModOrder("top", A.order, 2)
    codec = order._codec
    products = order._products(A)
    products.mono_mul = refuse
    half = EXP_LIMIT // 2
    code = order.key(((half, 3), 1))
    for alpha in ((half, 0), (half, 5)):
        step = codec.step(alpha)
        known = products.row(step, alpha)[1]
        with pytest.raises(ExponentOverflow):
            products.fill(known, alpha, step, code)
        assert not known
    # max(alpha) + max(m) reaches 2^32 in other slots: the cheap bound
    # fails, and the exact test passes
    code = order.key(((0, half), 1))
    alpha = (half, 0)
    step = codec.step(alpha)
    got = products.fill(products.row(step, alpha)[1], alpha, step, code)
    assert got == ((code + step, 1),)
    assert codec.monos[code + step] == ((half, half), 1)
    # the largest exponent sum that fits
    code = order.key(((half - 1, 3), 1))
    got = products.fill(products.row(step, alpha)[1], alpha, step, code)
    assert codec.monos[got[0][0]] == ((EXP_LIMIT - 1, 3), 1)


def fills_and_their_mono_mul_calls(monkeypatch, problem):
    """``gb --reduce`` on a corpus file: the table fills, and the
    ``mono_mul`` calls the fills make themselves."""
    counts = {"fills": 0, "mono_mul": 0}
    fill, mono_mul = _Products.fill, SolvableAlgebra.mono_mul
    filling = []

    def counted_fill(self, *args):
        counts["fills"] += 1
        filling.append(1)
        try:
            return fill(self, *args)
        finally:
            filling.pop()

    def counted_mono_mul(self, a, b):
        # a call nested in another mono_mul call is not the fill's
        if filling and filling[-1]:
            counts["mono_mul"] += 1
        filling.append(0)
        try:
            return mono_mul(self, a, b)
        finally:
            filling.pop()

    monkeypatch.setattr(_Products, "fill", counted_fill)
    monkeypatch.setattr(SolvableAlgebra, "mono_mul", counted_mono_mul)
    path = os.path.join(BENCH_CORPUS, problem + ".json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--json", "gb", "--reduce", path]) == 0
    return counts


def test_gkz_fills_make_no_mono_mul_call(monkeypatch):
    counts = fills_and_their_mono_mul_calls(monkeypatch, "gkz-p")
    assert counts["fills"] > 1000 and counts["mono_mul"] == 0


def test_walked_fills_make_their_products_with_mono_mul(monkeypatch):
    counts = fills_and_their_mono_mul_calls(monkeypatch, "sl2-3-p")
    assert counts["fills"] and counts["mono_mul"] == counts["fills"]
