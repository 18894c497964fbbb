import contextlib
import io
import json
import os
import random

import pytest

from solvpoly.algebra import (
    DegreeFunction,
    MonomialOrder,
    NonAssociative,
    build_algebra,
    check_associative,
)
import solvpoly.presentation as presentation
from solvpoly import fixtures
from solvpoly.cli import _free_relations, _word_order, main, parse_problem
from solvpoly.coeff import FieldSpec, MixedFields
from solvpoly.presentation import (
    FreePoly,
    OverlapFailure,
    ShapeViolation,
    Word,
    WordOrder,
    _FreeDivisors,
    bounded_completion,
    free_divide,
    free_poly_str,
    occurrences,
    overlap_elements,
    verify_presentation,
    word_divides,
    word_str,
)

import oracles
from conftest import random_poly

Q = FieldSpec("Rationals")
BENCH_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "corpus")


def wo(n, weights=None, priority=None):
    return WordOrder(DegreeFunction(weights or (1,) * n),
                     letter_priority=priority)


def cmp_words(order, a, b):
    """Compare two Word wrappers (the order itself takes raw tuples)."""
    return order.compare(a.letters, b.letters)


def random_word(rnd, n, max_len=5):
    return Word(tuple(rnd.randrange(n) for _ in range(rnd.randint(0, max_len))))


def random_free_poly(rnd, n, max_terms=3, max_len=4):
    data = {}
    for _ in range(rnd.randint(1, max_terms)):
        w = random_word(rnd, n, max_len)
        c = Q.scalar(rnd.randint(-3, 3), rnd.randint(1, 2)).value
        if c:
            data[w] = data.get(w, 0) + c
    f = FreePoly(Q, n, data)
    return f if not f.is_zero() else FreePoly(Q, n, {Word(()): Q.one.value})


# ---------------------------------------------------------------------------
# words and word orders
# ---------------------------------------------------------------------------

def test_word_concatenation_and_division():
    u = Word((0, 1))
    w = Word((2, 0, 1, 0))
    assert (u * Word((0,))).letters == (0, 1, 0)
    assert word_divides(u.letters, w.letters)
    assert occurrences(u.letters, w.letters) == [1]
    assert not word_divides((1, 1), w.letters)
    assert not word_divides((), w.letters)


def test_word_order_total_and_multiplicative(rng):
    order = wo(3, weights=(2, 1, 4), priority=(1, 0, 2))
    for _ in range(300):
        u = random_word(rng, 3)
        v = random_word(rng, 3)
        w = random_word(rng, 3)
        cu, cv = cmp_words(order, u, v), cmp_words(order, v, u)
        assert cu == -cv
        assert (cu == 0) == (u.letters == v.letters)
        # both-sided compatibility with concatenation
        assert cmp_words(order, w * u, w * v) == cu
        assert cmp_words(order, u * w, v * w) == cu
        if u.letters:
            assert cmp_words(order, Word(()), u) == -1


def test_word_order_examples():
    order = wo(3, weights=(2, 1, 4), priority=(1, 0, 2))
    X1, X2, X3 = Word((0,)), Word((1,)), Word((2,))
    assert cmp_words(order, X1 * X2, X2 * X1) == 1
    assert cmp_words(order, X3 * X1, X1 * X3) == 1
    # same weighted degree 6, decided letterwise
    assert cmp_words(order, X3 * X1, X3 * X2 * X2) == 1
    # a proper prefix is always smaller under positive weights
    assert cmp_words(order, X1, X1 * X2) == -1


# ---------------------------------------------------------------------------
# division with trace
# ---------------------------------------------------------------------------

def test_free_divide_reconstructs(rng):
    order = wo(2)
    for _ in range(40):
        h = random_free_poly(rng, 2)
        G = [random_free_poly(rng, 2) for _ in range(2)]
        trace, rem = free_divide(h, G, order)
        rebuilt = rem
        for lam, u, j, v in trace:
            rebuilt = rebuilt + G[j].sandwich(u, v).scale(lam)
        assert rebuilt == h
        # the remainder is normal: no leading word of G divides a term
        for w, _ in rem.terms:
            for g in G:
                assert not word_divides(g.lm(order).letters, w)


def test_mixed_fields_and_letter_counts_are_refused():
    F5 = FieldSpec("PrimeField", 5)
    f = FreePoly(Q, 2, {Word((0, 1)): Q.one.value})
    for other in (FreePoly(F5, 2, {Word((0, 1)): 1}),
                  FreePoly(Q, 3, {Word((0, 1)): Q.one.value})):
        with pytest.raises(MixedFields):
            f + other
        with pytest.raises(MixedFields):
            f - other
    # over GF(5) a negated payload is reduced again
    assert (-FreePoly(F5, 2, {Word((0,)): 2})).coeff((0,)) == 3


def test_free_divide_prefers_leftmost_occurrence():
    order = wo(2, priority=(1, 0))
    # rule X1 X2 -> X2 X1 applied to X1 X2 X1 rewrites in one step
    g = FreePoly(Q, 2, {Word((0, 1)): Q.one.value, Word((1, 0)): -Q.one.value})
    h = FreePoly(Q, 2, {Word((0, 1, 0)): Q.one.value})
    trace, rem = free_divide(h, [g], order)
    assert rem == FreePoly(Q, 2, {Word((1, 0, 0)): Q.one.value})
    assert trace[0][1].letters == ()  # left cofactor of the first step


def _words(n, *words):
    """Free polynomials that are single words with coefficient 1."""
    return [FreePoly(Q, n, {Word(w): Q.one.value}) for w in words]


def test_free_divide_prefers_the_least_index_over_the_leftmost_position():
    # G[1] = X0 X1 occurs at 0, G[0] = X1 X2 only at 1; G[0] wins
    G = _words(3, (1, 2), (0, 1))
    (h,) = _words(3, (0, 1, 2))
    trace, rem = free_divide(h, G, wo(3))
    assert [(j, u.letters, v.letters) for _, u, j, v in trace] == [
        (0, (0,), ())]
    assert rem.is_zero()


def test_free_divide_takes_the_least_index_of_a_repeated_leading_word():
    order = wo(2)
    one = Q.one.value
    # both lead with X1 X0; only G[0] rewrites it to X0 X1
    G = [FreePoly(Q, 2, {Word((1, 0)): one, Word((0, 1)): -one}),
         FreePoly(Q, 2, {Word((1, 0)): Q.scalar(2).value})]
    h = FreePoly(Q, 2, {Word((1, 0, 0)): one, Word((1, 1, 0)): one})
    trace, rem = free_divide(h, G, order)
    assert {j for _, _, j, _ in trace} == {0}
    assert _FreeDivisors.of(G, order).first == {(1, 0): 0}
    assert rem == FreePoly(Q, 2, {Word((0, 0, 1)): one,
                                  Word((0, 1, 1)): one})
    assert (trace, rem) == oracles.reference_free_divide(h, G, order)


def test_free_divide_mixes_leading_words_of_different_lengths():
    order = wo(3)
    # X0 X1 X2 (index 0) beats X1 (index 1), which sits further right
    G = _words(3, (0, 1, 2), (1,))
    for word, hits in (((0, 1, 2), [(0, (), ())]),
                       ((2, 1, 0), [(1, (2,), (0,))]),
                       ((2, 0, 1, 2, 1), [(0, (2,), (1,))])):
        (h,) = _words(3, word)
        trace, rem = free_divide(h, G, order)
        assert [(j, u.letters, v.letters) for _, u, j, v in trace] == hits
        assert rem.is_zero()
    # the other way round the single letter wins, at its leftmost place
    G = _words(3, (1,), (0, 1, 2))
    (h,) = _words(3, (0, 1, 2, 1))
    trace, _ = free_divide(h, G, order)
    assert [(j, u.letters, v.letters) for _, u, j, v in trace] == [
        (0, (0,), (2, 1))]
    assert _FreeDivisors.of(G, order).lengths == [1, 3]


@pytest.mark.parametrize("field", [Q, FieldSpec("PrimeField", 7)])
def test_free_divide_prepared_plain_and_reference_agree(rng, field):
    """The same trace and remainder as the term-by-term reference, and
    the prepared list holds each divisor as its monic integer row under
    its leading word; divisors of lengths 1 to 3, some sharing a
    leading word."""
    order = wo(3, weights=(2, 1, 1), priority=(2, 0, 1))
    for _ in range(60):
        G = [random_free_poly(rng, 3, max_terms=3, max_len=3)
             for _ in range(rng.randint(1, 4))]
        if field is not Q:
            G = [FreePoly(field, 3, [
                (w, c.numerator * pow(c.denominator, -1, 7) % 7)
                for w, c in g.data.items()]) for g in G]
            G = [g for g in G if not g.is_zero()] or _words(3, (0,))
        if rng.random() < 0.3:
            G.append(G[0].scale(2))     # a repeated leading word
        f = FreePoly(field, 3, [
            (random_word(rng, 3, 6).letters, rng.randint(1, 5))
            for _ in range(rng.randint(1, 4))])
        if f.is_zero():
            continue
        prepared = _FreeDivisors.of(G, order)
        assert [(lead, presentation._free_poly(field, 3, row, den))
                for lead, row, den in prepared.entries] == [
            (g.lm(order).letters, g.monic(order)) for g in G]
        plain = free_divide(f, G, order)
        assert oracles.reference_free_divide(f, G, order) == plain


# ---------------------------------------------------------------------------
# overlaps: library enumeration versus brute force
# ---------------------------------------------------------------------------

def brute_overlap_shifts(w1, w2, same):
    """All proper border matches w1*u = v*w2, checked from scratch."""
    p, q = len(w1.letters), len(w2.letters)
    shifts = []
    for k in range(0, p):
        if k + q < p:
            continue
        if k == 0 and p == q and same:
            continue
        v = Word(w1.letters[:k])
        u = Word(w2.letters[p - k:])
        if (v * w2).letters != (w1 * u).letters:
            continue
        if word_divides(w1.letters, v.letters) or \
                word_divides(w2.letters, u.letters):
            continue
        shifts.append(k)
    return shifts


def test_overlap_enumeration_matches_brute_force(rng):
    order = wo(2)
    for _ in range(120):
        f = random_free_poly(rng, 2, max_terms=2, max_len=4)
        g = random_free_poly(rng, 2, max_terms=2, max_len=4)
        got = sorted(o.shift for o in overlap_elements(f, g, order))
        want = sorted(brute_overlap_shifts(f.lm(order), g.lm(order),
                                           f == g))
        assert got == want


def test_overlap_values_cancel_leading_words(rng):
    order = wo(3)
    for _ in range(60):
        f = random_free_poly(rng, 3, max_terms=3, max_len=4)
        g = random_free_poly(rng, 3, max_terms=3, max_len=4)
        top = f.lm(order) * g.lm(order)
        for o in overlap_elements(f, g, order):
            if not o.value.is_zero():
                assert cmp_words(order, o.value.lm(order), top) == -1


@pytest.mark.parametrize("field", [Q, FieldSpec("PrimeField", 7)])
def test_overlap_values_match_the_payload_reference(rng, field):
    """Shifts, cofactors and values of ``overlap_elements``, made on
    integer rows, against the reference made on whole FreePoly values;
    constants and pairs with equal leading words included."""
    order = wo(3, weights=(2, 1, 1), priority=(2, 0, 1))
    for _ in range(80):
        f, g = [FreePoly(field, 3, [
            (w, c.numerator * pow(c.denominator, -1, 7) % 7
             if field is not Q else c) for w, c in h.data.items()])
            for h in (random_free_poly(rng, 3, max_terms=3, max_len=4)
                      for _ in range(2))]
        if f.is_zero() or g.is_zero():
            continue
        if rng.random() < 0.2:
            g = f if rng.random() < 0.5 else f.scale(2)
        got = [(o.shift, o.u, o.v, o.value)
               for o in overlap_elements(f, g, order)]
        assert got == oracles.reference_overlaps(f, g, order)


def test_self_overlaps_of_a_power():
    order = wo(3, weights=(2, 1, 4), priority=(1, 0, 2))
    one = Q.one.value
    f = FreePoly(Q, 3, {Word((2, 2, 2, 2)): one, Word(()): one})
    shifts = sorted(o.shift for o in overlap_elements(f, f, order))
    assert shifts == [1, 2, 3]


def test_interior_inclusion_is_not_an_overlap():
    order = wo(2)
    f = FreePoly(Q, 2, {Word((0, 1, 1, 0)): Q.one.value})
    g = FreePoly(Q, 2, {Word((1, 1)): Q.one.value})
    assert overlap_elements(f, g, order) == []


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def ex14_relations(lam=5, mu=2):
    """Three rewriting rules with weights (2, 1, 4), one true overlap."""
    one = Q.one.value

    def fp(data):
        return FreePoly(Q, 3, data)

    g1 = fp({Word((0, 1)): one, Word((1, 0)): -one})
    g2 = fp({Word((2, 0)): one, Word((0, 2)): -Q.scalar(lam).value,
             Word((2, 1, 1)): -Q.scalar(mu).value,
             Word((1,) * 6): -Q.scalar(3).value,
             Word((1, 1)): -one, Word(()): -Q.scalar(7).value})
    g3 = fp({Word((2, 1)): one, Word((1, 2)): -one})
    return [g1, g2, g3]


def test_certifies_weighted_three_generator_example():
    order = wo(3, weights=(2, 1, 4), priority=(1, 0, 2))
    rep = verify_presentation(ex14_relations(), order)
    assert rep.certified
    assert rep.verdict == "SolvableTypeCertified"
    assert rep.overlaps_checked == 1
    assert str(rep.lambdas[(0, 1)]) == "1"
    assert str(rep.lambdas[(2, 0)]) == "5"
    rep.require_certified()


def test_zero_lambda_is_a_shape_violation():
    order = wo(3, weights=(2, 1, 4), priority=(1, 0, 2))
    with pytest.raises(ShapeViolation):
        verify_presentation(ex14_relations(lam=0), order)


def test_wrong_relation_count_is_a_shape_violation():
    order = wo(3)
    with pytest.raises(ShapeViolation):
        verify_presentation(ex14_relations()[:2], order)


def test_square_leading_word_is_a_shape_violation():
    order = wo(2)
    g = FreePoly(Q, 2, {Word((1, 1)): Q.one.value, Word((0, 0)): -Q.one.value})
    with pytest.raises(ShapeViolation):
        verify_presentation([g], order)


def test_nonconfluent_presentation_is_rejected():
    order = wo(3)
    one = Q.one.value
    # zx = xz + y^2 breaks the zyx diamond against the other two rules
    g1 = FreePoly(Q, 3, {Word((1, 0)): one, Word((0, 1)): -Q.scalar(2).value})
    g2 = FreePoly(Q, 3, {Word((2, 0)): one, Word((0, 2)): -one,
                         Word((1, 1)): -one})
    g3 = FreePoly(Q, 3, {Word((2, 1)): one, Word((1, 2)): -one})
    rep = verify_presentation([g1, g2, g3], order)
    assert not rep.certified
    assert rep.verdict == "NotCertified"
    assert len(rep.failures) >= 1
    with pytest.raises(OverlapFailure):
        rep.require_certified()


def test_weyl_presentation_certifies():
    order = wo(2)
    g = FreePoly(Q, 2, {Word((1, 0)): Q.one.value, Word((0, 1)): -Q.one.value,
                        Word(()): -Q.one.value})
    rep = verify_presentation([g], order)
    assert rep.certified
    assert rep.overlaps_checked == 0


def test_certified_presentations_build_associative_algebras(rng):
    """Dual route: certification implies the rewriting product works."""
    n = 3
    checked = 0
    for _ in range(25):
        lams = {}
        rels = []
        eqs = []
        names = ("a", "b", "c")
        for j in range(n):
            for i in range(j):
                lam = rng.choice([1, 2, 3, -1, Q.scalar(1, 2).value])
                tail_c = rng.choice([0, 0, 1, -2])
                lams[(j, i)] = lam
                data = {Word((j, i)): Q.one.value,
                        Word((i, j)): -Q.scalar(lam).value}
                if tail_c:
                    data[Word(())] = Q.scalar(-tail_c).value
                rels.append(FreePoly(Q, n, data))
                eq = "%s*%s = %s*%s*%s" % (names[j], names[i], lam,
                                           names[i], names[j])
                if tail_c:
                    eq += " + %d" % tail_c
                eqs.append(eq)
        rep = verify_presentation(rels, wo(n))
        if not rep.certified:
            continue
        checked += 1
        A = build_algebra(Q, names,
                          MonomialOrder("grlex", n,
                                        degree=DegreeFunction((1, 1, 1))),
                          eqs)
        for _ in range(4):
            f = random_poly(A, rng, max_degree=2, max_terms=2)
            g = random_poly(A, rng, max_degree=2, max_terms=2)
            h = random_poly(A, rng, max_degree=2, max_terms=2)
            assert A.multiply(A.multiply(f, g), h) == A.multiply(
                f, A.multiply(g, h))
    assert checked >= 5


def _random_table(rnd):
    """Relations of a 3-generator table with degree <= 1 tails, biased
    towards associativity: lambda is mostly 1 and a tail has at most two
    terms with coefficients +-1 (plain random tails fail about 9 times
    in 10)."""
    eqs = []
    for left, right in (("y", "x"), ("z", "x"), ("z", "y")):
        terms = ["%s*%s*%s" % (rnd.choice(["1", "1", "1", "1", "-1"]),
                               right, left)]
        for mono in rnd.sample(["1", "x", "y", "z"],
                               rnd.choice([0, 0, 1, 1, 2])):
            terms.append("%d*%s" % (rnd.choice([-1, 1]), mono))
        eqs.append("%s*%s = %s" % (left, right, " + ".join(terms)))
    return eqs


def test_check_associative_agrees_with_verify_presentation(tmp_path):
    """check_associative (products of generator triples in the algebra)
    refuses a table exactly when verify-presentation (overlaps of the
    free relations) exits 1 with NotCertified, on seeded random tables
    of both kinds."""
    rnd = random.Random(2)
    path = tmp_path / "table.json"
    seen = {True: 0, False: 0}
    for _ in range(60):
        path.write_text(json.dumps({
            "field": {"kind": "Rationals"}, "generators": ["x", "y", "z"],
            "order": {"kind": "grlex"}, "degrees": [1, 1, 1],
            "module": {"rank": 1}, "relations": _random_table(rnd),
            "submodule_generators": []}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--json", "verify-presentation", str(path)])
        verdict = json.loads(out.getvalue())["verdict"]
        try:
            check_associative(parse_problem(str(path)).algebra)
            refused = False
        except NonAssociative:
            refused = True
        assert (code, verdict) == ((1, "NotCertified") if refused
                                   else (0, "SolvableTypeCertified"))
        seen[refused] += 1
    assert min(seen.values()) >= 20


def _tail_free_tables(rnd):
    """Tables on 3 to 6 generators whose relations are all
    ``b*a = lam*a*b``, lam a random nonzero rational."""
    tables = []
    for n in (3, 4, 5, 6):
        names = ["x%d" % (k + 1) for k in range(n)]
        for _ in range(5):
            tables.append((names, ["%s*%s = %d/%d*%s*%s" % (
                names[j], names[i], rnd.choice([-5, -3, -2, -1, 1, 2, 4]),
                rnd.randint(1, 4), names[i], names[j])
                for j in range(n) for i in range(j)]))
    return tables


def test_skipped_triples_match_the_all_triples_check():
    """check_associative, which skips the triples whose three relations
    have no tail, gives the verdict and message of the check over every
    triple, on the seeded 3-generator tables, on skew and Weyl tables
    with and without added tails, and on tail-free tables with random
    lambda."""
    rnd = random.Random(2)
    tables = [(("x", "y", "z"), _random_table(rnd)) for _ in range(60)]
    tables += _skew_and_weyl_tables(random.Random(3))
    tables += _tail_free_tables(random.Random(4))
    refused = 0
    for names, eqs in tables:
        A = parse_problem({
            "field": {"kind": "Rationals"}, "generators": list(names),
            "order": {"kind": "grlex"}, "module": {"rank": 1},
            "relations": eqs, "submodule_generators": []}).algebra
        want = oracles.reference_associativity(A)
        try:
            check_associative(A)
            got = None
        except NonAssociative as exc:
            got = str(exc)
        assert got == want, eqs
        refused += want is not None
    assert refused >= 20


def _table_relations(names, eqs):
    pf = parse_problem({
        "field": {"kind": "Rationals"}, "generators": list(names),
        "order": {"kind": "grlex"}, "module": {"rank": 1},
        "relations": eqs, "submodule_generators": []})
    return _free_relations(pf), _word_order(pf)


def _skew_and_weyl_tables(rnd):
    """Skew tables on 4 to 6 generators and Weyl tables on 4 and 6,
    and each again with a generator added to the tails of two of its
    relations, which mostly breaks confluence."""
    tables = []
    for n in (4, 5, 6):
        names = ["x%d" % (k + 1) for k in range(n)]
        tables.append((names, ["%s*%s = %s*%s*%s" % (
            names[j], names[i], rnd.choice(["2", "3", "-1", "1/2"]),
            names[i], names[j]) for j in range(n) for i in range(j)]))
    for m in (2, 3):
        xs = ["x%d" % (k + 1) for k in range(m)]
        ds = ["d%d" % (k + 1) for k in range(m)]
        names = xs + ds
        eqs = []
        for j in range(len(names)):
            for i in range(j):
                a, b = names[j], names[i]
                tail = " + 1" if (a[0], b[0]) == ("d", "x") and \
                    a[1:] == b[1:] else ""
                eqs.append("%s*%s = %s*%s%s" % (a, b, b, a, tail))
        tables.append((names, eqs))
    for names, eqs in list(tables):
        broken = list(eqs)
        for k in rnd.sample(range(len(broken)), 2):
            broken[k] += " + %s" % rnd.choice(names)
        tables.append((names, broken))
    return tables


def test_indexed_overlaps_match_the_all_pairs_check():
    """verify_presentation, which pairs a relation only with those its
    last letter starts, gives the verdict, overlap count and failures
    (pairs, shift and residual, in order) of the check over all ordered
    pairs, on the seeded 3-generator tables and on skew and Weyl tables
    of 4 to 6 generators."""
    rnd = random.Random(2)
    tables = [(("x", "y", "z"), _random_table(rnd)) for _ in range(60)]
    tables += _skew_and_weyl_tables(random.Random(3))
    verdicts = set()
    for names, eqs in tables:
        rels, order = _table_relations(names, eqs)
        rep = verify_presentation(rels, order)
        checked, failures = oracles.reference_overlap_check(rels, order)
        assert rep.overlaps_checked == checked
        assert rep.failures == failures
        assert rep.certified == (not failures)
        verdicts.add(rep.certified)
        if len(names) == 6:
            assert checked == 20
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# bounded completion
# ---------------------------------------------------------------------------

def test_completion_of_complete_system_is_unchanged():
    order = wo(2)
    g = FreePoly(Q, 2, {Word((1, 0)): Q.one.value, Word((0, 1)): -Q.one.value,
                        Word(()): -Q.one.value})
    basis, complete = bounded_completion([g], order, max_new=8)
    assert complete
    assert len(basis) == 1


def test_a_constant_residual_ends_the_completion_with_one():
    # the non-associative table: the overlap z*y*x leaves -1, so the
    # completed system is {1}, not the relations with 1 beside them
    order = wo(3)
    one = Q.one.value
    rels = [
        FreePoly(Q, 3, {Word((1, 0)): one, Word((0, 1)): -one,
                        Word(()): -one}),
        FreePoly(Q, 3, {Word((2, 0)): one, Word((0, 2)): -one}),
        FreePoly(Q, 3, {Word((2, 1)): one, Word((1, 2)): -one,
                        Word((1,)): -one}),
    ]
    unit = FreePoly(Q, 3, {Word(()): one})
    basis, complete = bounded_completion(rels, order, max_new=4)
    assert complete and basis == [unit]
    basis, complete = bounded_completion(rels, order, max_new=0)
    assert not complete and len(basis) == 3
    # a constant among the inputs is found before any overlap
    two = FreePoly(Q, 3, {Word(()): Q.scalar(2).value})
    basis, complete = bounded_completion(rels + [two], order, max_new=0)
    assert complete and basis == [unit]


def test_completion_respects_budget():
    order = wo(3)
    one = Q.one.value
    g1 = FreePoly(Q, 3, {Word((1, 0)): one, Word((0, 1)): -Q.scalar(2).value})
    g2 = FreePoly(Q, 3, {Word((2, 0)): one, Word((0, 2)): -one,
                         Word((1, 1)): -one})
    g3 = FreePoly(Q, 3, {Word((2, 1)): one, Word((1, 2)): -one})
    basis, complete = bounded_completion([g1, g2, g3], order, max_new=0)
    assert not complete
    assert len(basis) == 3
    basis, complete = bounded_completion([g1, g2, g3], order, max_new=16)
    assert complete
    # the completed system certifies
    checked = [b for b in basis]
    for i, f in enumerate(checked):
        for g in checked:
            for o in overlap_elements(f, g, order):
                _, rem = free_divide(o.value, checked, order)
                assert rem.is_zero()


PRESENTATIONS = [fixtures.path(name) for name in fixtures.all_names()] + [
    os.path.join(BENCH_CORPUS, name + ".json")
    for name in ("skew-4-2", "skew-5-2", "sl2-3-q", "weyl-3", "weyl-4",
                 "weyl-5", "nonassoc")]


@pytest.mark.parametrize("path", PRESENTATIONS, ids=os.path.basename)
def test_bounded_completion_matches_the_all_pairs_reference(path):
    pf = parse_problem(path)
    rels, order = _free_relations(pf), _word_order(pf)
    for max_new in (0, 1, 4):
        assert (bounded_completion(rels, order, max_new)
                == oracles.reference_bounded_completion(rels, order,
                                                        max_new))


@pytest.mark.parametrize("path", PRESENTATIONS, ids=os.path.basename)
def test_bounded_completion_takes_the_rows_the_check_made(path,
                                                          monkeypatch):
    """Given the report's rows, the completion makes no monic row of
    its input again, leaves the report's rows as they were, and returns
    what it returns without them."""
    pf = parse_problem(path)
    rels, order = _free_relations(pf), _word_order(pf)
    rep = verify_presentation(rels, order)
    assert [row[0] for row in rep.rows] == [
        max(g.data, key=order.key) for g in rels]
    before = [(lead, dict(row), den) for lead, row, den in rep.rows]
    made = []
    monic = presentation._monic

    def counted(*args):
        made.append(args)
        return monic(*args)

    monkeypatch.setattr(presentation, "_monic", counted)
    for max_new in (0, 1, 4):
        del made[:]
        got = bounded_completion(rels, order, max_new, rows=rep.rows)
        shared = len(made)
        assert got == bounded_completion(rels, order, max_new)
        assert len(made) - shared == shared + len(rels)
    assert [(lead, dict(row), den) for lead, row, den in rep.rows] == before


@pytest.mark.parametrize("seed", range(40))
def test_bounded_completion_matches_the_reference_while_it_grows(seed):
    """Random systems of two or three words-and-scalars in three letters,
    whose completions add elements and pair them: up to six, so that
    the pairs of a new element queue in (left, right, shift) order."""
    rnd = random.Random(seed)
    order = wo(3)
    rels = [random_free_poly(rnd, 3, max_terms=3, max_len=3)
            for _ in range(rnd.randint(2, 3))]
    for max_new in (3, 6):
        got = bounded_completion(rels, order, max_new)
        assert got == oracles.reference_bounded_completion(rels, order,
                                                           max_new)


def test_bounded_completion_skips_pairs_without_a_shared_letter(
        monkeypatch):
    """On weyl-5 (45 relations, C(10, 3) = 120 overlaps) the completion
    builds the 120 overlap elements before its queue, each of a pair
    whose second lead starts with the first lead's letter at the shift,
    and reduces each once.  It reads every lead from the prepared
    divisor list: it never asks a free polynomial for its leading word
    and never calls ``overlap_elements``."""
    pf = parse_problem(os.path.join(BENCH_CORPUS, "weyl-5.json"))
    rels, order = _free_relations(pf), _word_order(pf)
    calls, before_queue, payload_calls = [], [], []
    overlaps, reduce = presentation._overlaps, presentation._reduce

    def counting(entries, a, b, p):
        items = overlaps(entries, a, b, p)
        calls.extend((entries[a][0], entries[b][0], k)
                     for _, _, k, _, _ in items)
        return items

    def reducing(*args):
        if not before_queue:
            before_queue.append(len(calls))
        return reduce(*args)

    def refused(name):
        def call(*args):
            payload_calls.append(name)
        return call

    monkeypatch.setattr(presentation, "_overlaps", counting)
    monkeypatch.setattr(presentation, "_reduce", reducing)
    monkeypatch.setattr(presentation, "overlap_elements",
                        refused("overlap_elements"))
    monkeypatch.setattr(FreePoly, "lm", refused("lm"))
    basis, complete = bounded_completion(rels, order, max_new=4)
    assert complete and len(basis) == 45
    assert before_queue == [120] and len(calls) == 120
    assert payload_calls == []
    for w1, w2, k in calls:
        assert k == 1 and w1[1] == w2[0]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_word_and_poly_rendering():
    names = ("x", "y")
    assert word_str(Word(()), names) == "1"
    assert word_str(Word((0, 0, 1, 0)), names) == "x^2*y*x"
    f = FreePoly(Q, 2, {Word((1, 0)): Q.one.value,
                        Word(()): -Q.scalar(1, 2).value})
    text = free_poly_str(f, names)
    assert "y*x" in text and "1/2" in text
    assert text == "-1/2 + y*x"
