import os
import random

import pytest

import solvpoly.groebner as groebner
from solvpoly import fixtures
from solvpoly.algebra import reversed_poly
from solvpoly.cli import _element_from_options, parse_problem
from solvpoly.coeff import FieldSpec
from solvpoly.algebra import exp_max, exps_within
from solvpoly.modfree import (
    FreeModule, ModOrder, _Divisors, left_divide_module, mono_divides,
)
from solvpoly.groebner import (
    GroebnerBasis,
    NonGradedOrder,
    buchberger,
    is_member,
    member_by_completion,
    minimalize,
    reduce_basis,
    s_polynomial,
    staircase_oracle,
)
from solvpoly.graded import truncated_gb

import oracles
from conftest import (
    opposite_basis,
    over,
    random_poly,
    random_scalar,
    random_vect,
    reversed_vect,
)

BENCH_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "corpus")


def top(A, rank=1):
    return ModOrder("top", A.order, rank)


def assert_self_certified(G: GroebnerBasis):
    """Every S-vector of the basis reduces to zero by the basis."""
    els, order = G.elements, G.order
    for i in range(len(els)):
        for j in range(i, len(els)):
            s = s_polynomial(els[i], els[j], order)
            if s.is_zero():
                continue
            _, rem = left_divide_module(s, els, order)
            assert rem.is_zero()


def assert_certificates(G: GroebnerBasis, inputs):
    """V rebuilds the basis from inputs; U rebuilds inputs from it."""
    A = G.module.algebra
    for k, g in enumerate(G.elements):
        acc = G.module.zero()
        for j, f in enumerate(G.V[k]):
            acc = acc + inputs[j].lmul(f)
        assert acc == g
    if G.U is None:
        return
    for j, u in enumerate(inputs):
        acc = G.module.zero()
        for k, f in enumerate(G.U[j]):
            acc = acc + G.elements[k].lmul(f)
        assert acc == u


# ---------------------------------------------------------------------------
# fixed examples
# ---------------------------------------------------------------------------

def test_three_generator_quantum_example(ex12):
    L = FreeModule(ex12, 1)
    order = top(ex12)
    gens = [L.parse(["a1^2*a2 - a3"]), L.parse(["a2"])]
    G = reduce_basis(buchberger(gens, order))
    assert sorted(ex12.poly_str(g.component(0)) for g in G.elements) == [
        "a2", "a3"]
    member, nf = is_member(L.parse(["a3"]), G)
    assert member and nf.is_zero()
    member, nf = is_member(L.parse(["a1"]), G)
    assert not member and nf == L.parse(["a1"])


def test_weyl_s_polynomial_is_one(weyl1):
    L = FreeModule(weyl1, 1)
    order = top(weyl1)
    x, y = L.parse(["x"]), L.parse(["y"])
    s = s_polynomial(x, y, order)
    assert s == L.parse(["1"]) or s == L.parse(["-1"])


def test_weyl_unit_ideal(weyl1):
    L = FreeModule(weyl1, 1)
    order = top(weyl1)
    G = reduce_basis(buchberger([L.parse(["x"]), L.parse(["y"])], order))
    assert [weyl1.poly_str(g.component(0)) for g in G.elements] == ["1"]


def test_commutative_pair(comm2):
    L = FreeModule(comm2, 1)
    order = top(comm2)
    G = reduce_basis(buchberger(
        [L.parse(["x^2 + y"]), L.parse(["x*y"])], order))
    assert_self_certified(G)
    # y^2 is forced: y*(x^2 + y) - x*(x*y) = y^2
    member, _ = is_member(L.parse(["y^2"]), G)
    assert member


# ---------------------------------------------------------------------------
# randomized self-certification (the Buchberger contract)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["comm2", "weyl1", "qplane", "ex12",
                                  "qheis"])
def test_buchberger_self_certifies(name, request, rng):
    A = request.getfixturevalue(name)
    for trial in range(4):
        rank = rng.randint(1, 2)
        L = FreeModule(A, rank)
        order = ModOrder(rng.choice(["top", "pot"]), A.order, rank)
        gens = [random_vect(L, rng, max_degree=2, max_terms=2, nonzero=True)
                for _ in range(rng.randint(1, 2))]
        G = buchberger(gens, order)
        assert_self_certified(G)
        assert_certificates(G, gens)


def test_members_and_normal_forms(weyl1, rng):
    L = FreeModule(weyl1, 2)
    order = top(weyl1, 2)
    gens = [random_vect(L, rng, max_degree=2, nonzero=True)
            for _ in range(2)]
    G = buchberger(gens, order)
    for _ in range(10):
        combo = L.zero()
        for g in gens:
            combo = combo + g.lmul(random_poly(weyl1, rng, max_degree=2))
        member, nf = is_member(combo, G)
        assert member and nf.is_zero()


def test_normal_form_is_a_linear_section(comm2, rng):
    """nf(u + v) == nf(u) + nf(v) for a fixed reduced basis."""
    L = FreeModule(comm2, 1)
    order = top(comm2)
    G = reduce_basis(buchberger(
        [L.parse(["x^2 - y"]), L.parse(["y^2"])], order))
    for _ in range(15):
        u = random_vect(L, rng)
        v = random_vect(L, rng)
        _, nu = is_member(u, G)
        _, nv = is_member(v, G)
        _, nuv = is_member(u + v, G)
        assert nuv == nu + nv


# ---------------------------------------------------------------------------
# minimal and reduced bases
# ---------------------------------------------------------------------------

def test_minimalize_leaves_an_antichain(ex12, rng):
    from solvpoly.modfree import mono_divides
    L = FreeModule(ex12, 2)
    order = top(ex12, 2)
    gens = [random_vect(L, rng, max_degree=2, nonzero=True)
            for _ in range(3)]
    G = minimalize(buchberger(gens, order))
    lms = [g.lm(order) for g in G.elements]
    for i, a in enumerate(lms):
        for j, b in enumerate(lms):
            if i != j:
                assert not mono_divides(a, b)


def test_reduced_basis_is_canonical(qplane, rng):
    """Permuting and rescaling the inputs cannot change the reduced basis."""
    L = FreeModule(qplane, 1)
    order = top(qplane)
    for trial in range(6):
        gens = [random_vect(L, rng, max_degree=3, nonzero=True)
                for _ in range(3)]
        G1 = reduce_basis(buchberger(gens, order))
        unit = qplane.field.scalar(rng.choice([2, -1, 3]), 1).value
        scrambled = [g.scale(unit) for g in reversed(gens)]
        G2 = reduce_basis(buchberger(scrambled, order))
        assert [g.data for g in G1.elements] == [g.data for g in G2.elements]
        assert G1.flags["is_reduced"] and G2.flags["is_reduced"]


def test_reduced_tails_are_normal(weyl1, rng):
    from solvpoly.modfree import mono_divides
    L = FreeModule(weyl1, 1)
    order = top(weyl1)
    gens = [random_vect(L, rng, max_degree=3, nonzero=True)
            for _ in range(2)]
    G = reduce_basis(buchberger(gens, order))
    lms = [g.lm(order) for g in G.elements]
    for g in G.elements:
        assert g.lc(order) == 1
        for mono in g.data:
            if mono == g.lm(order):
                continue
            assert not any(mono_divides(lm, mono) for lm in lms)


# ---------------------------------------------------------------------------
# truncation and the staircase oracle
# ---------------------------------------------------------------------------

def test_truncated_basis_agrees_below_the_bound(comm2):
    L = FreeModule(comm2, 1)
    order = ModOrder("top", comm2.order, 1, graded=True, shifts=(0,))
    gens = [L.parse(["x^2 + y^2"]), L.parse(["x*y"])]
    full = buchberger(gens, order)
    trunc = truncated_gb(gens, order, 4)
    full_lms = {g.lm(order) for g in full.elements
                if order.degree_of(g.lm(order)) <= 4}
    trunc_lms = {g.lm(order) for g in trunc.elements}
    assert full_lms == trunc_lms
    assert trunc.flags["truncation_degree"] == 4


@pytest.mark.parametrize("name", ["comm2", "qplane", "ex12"])
def test_staircase_oracle_agreement(name, request, rng):
    A = request.getfixturevalue(name)
    L = FreeModule(A, 1)
    order = ModOrder("top", A.order, 1, graded=True, shifts=(0,))
    for trial in range(3):
        gens = [random_vect(L, rng, max_degree=3, max_terms=2, nonzero=True)
                for _ in range(2)]
        D = 6
        G = buchberger(gens, order)
        by_gb = {e for e in G.staircase().by_component[0]
                 if A.degree_function(e) <= D}
        oracle = staircase_oracle(gens, order, D)
        assert by_gb == set(oracle.by_component[0])


def test_staircase_oracle_needs_grading(weyl1):
    L = FreeModule(weyl1, 2)
    lex_order = ModOrder("top",
                         __import__("solvpoly.algebra",
                                    fromlist=["MonomialOrder"])
                         .MonomialOrder("lex", 2), 2)
    with pytest.raises(NonGradedOrder):
        staircase_oracle([L.basis(0)], lex_order, 3)


# ---------------------------------------------------------------------------
# right bases: left bases over the opposite algebra
# ---------------------------------------------------------------------------

def test_right_basis_of_the_weyl_pair(weyl1):
    L = FreeModule(weyl1, 1)
    order = top(weyl1)
    G = opposite_basis([L.parse(["x"]), L.parse(["y"])], order)
    # 1 = y.x - x.y lies in the right ideal
    _, rem = left_divide_module(G.module.basis(0), G.elements, G.order)
    assert rem.is_zero()
    assert G.module.algebra is weyl1.opposite()


def test_right_certificates(qplane, rng):
    """V and U of the opposite basis, read back by reversing exponents,
    write the right basis and the inputs as right combinations."""
    L = FreeModule(qplane, 1)
    order = top(qplane)
    gens = [random_vect(L, rng, max_degree=2, nonzero=True)
            for _ in range(2)]
    G = opposite_basis(gens, order)
    elements = [reversed_vect(g, L) for g in G.elements]
    back = [[reversed_poly(f, qplane) for f in row] for row in G.V]
    for k, g in enumerate(elements):
        acc = L.zero()
        for j, f in enumerate(back[k]):
            acc = acc + gens[j].rmul(f)
        assert acc == g
    for j, u in enumerate(gens):
        acc = L.zero()
        for k, f in enumerate(G.U[j]):
            acc = acc + elements[k].rmul(reversed_poly(f, qplane))
        assert acc == u


def test_U_is_derived_on_first_read(qplane, monkeypatch):
    import solvpoly.groebner as groebner

    dividends = []
    divide = groebner.left_divide_module

    def counting(xi, divisors, order):
        dividends.append(xi)
        return divide(xi, divisors, order)

    monkeypatch.setattr(groebner, "left_divide_module", counting)
    L = FreeModule(qplane, 1)
    order = top(qplane)
    # non-monic leads, so no basis element is one of the input objects
    gens = [L.parse(["2*x^2 + y"]), L.zero(), L.parse(["3*x*y - x"]),
            L.parse(["-y^2"])]
    G = reduce_basis(buchberger(gens, order))
    assert not any(d is g for d in dividends for g in gens)
    assert "U" not in vars(G)
    before = len(dividends)
    U = G.U
    # one division per nonzero input, each of that input, and only once
    assert [id(d) for d in dividends[before:]] == [
        id(g) for g in gens if not g.is_zero()]
    assert U[1] == [qplane.zero()] * len(G.elements)
    assert G.U is U and len(dividends) == before + 3
    assert_certificates(G, gens)


def test_U_is_none_for_truncated_bases(qplane):
    L = FreeModule(qplane, 1)
    order = ModOrder("top", qplane.order, 1, graded=True, shifts=[0])
    G = truncated_gb([L.parse(["x"]), L.parse(["y^3"])], order, 2)
    assert G.flags["truncation_degree"] == 2
    assert G.U is None
    assert minimalize(G).U is None


@pytest.mark.parametrize("side", ["left", "right"])
def test_inputs_with_equal_constant_leads(weyl1, side):
    # Both inputs lead with e1 in degree 0; their S-vector e0 must be
    # added, or e1 does not reduce to zero.
    L = FreeModule(weyl1, 2)
    order = top(weyl1, 2)
    gens = [L.parse(["1", "1"]), L.parse(["0", "1"])]
    complete = buchberger if side == "left" else opposite_basis
    G = complete(gens, order)
    assert G.module.basis(0) in G.elements
    if side == "left":
        assert_certificates(G, gens)


# ---------------------------------------------------------------------------
# the chain criterion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, most", [
    ("c44-p", 30),    # 129 pairs
    ("sl2-5-p", 37),  # 153 pairs
    ("gkz-p", 52),    # 153 pairs
])
def test_chain_criterion_prunes_pairs(name, most, monkeypatch):
    calls = []
    spair = groebner._spair_data

    def counting(xi, zeta, order):
        calls.append((xi, zeta))
        return spair(xi, zeta, order)

    monkeypatch.setattr(groebner, "_spair_data", counting)
    pf = parse_problem(os.path.join(BENCH_CORPUS, name + ".json"))
    G = buchberger(pf.generators, pf.mod_order)
    assert len(calls) <= most
    assert_self_certified(G)


# Brute-force references for the masked lead scans: every lead, in
# index order, through mono_divides.

def _brute_find(divisors, code):
    m = divisors.order._codec.monos[code]
    return next((entry for entry, lead in zip(divisors.entries,
                                              divisors.leads)
                 if mono_divides(lead, m)), None)


def _brute_chain_prunes(eng, i, j):
    lms = eng.basis.leads
    (ei, comp), (ej, _) = lms[i], lms[j]
    lcm = (exp_max(ei, ej), comp)
    return any(
        k not in (i, j)
        and (min(i, k), max(i, k)) in eng.handled
        and (min(j, k), max(j, k)) in eng.handled
        and mono_divides(mk, lcm)
        for k, mk in enumerate(lms))


def _brute_minimal_indices(lms, order):
    kept = []
    for i in sorted(range(len(lms)), key=lambda i: (order.key(lms[i]), i)):
        if not any(mono_divides(lms[k], lms[i]) for k in kept):
            kept.append(i)
    return kept


def _checked_lead_scans(monkeypatch):
    """Patch find, chain_prunes and _minimal_indices to check every
    answer against its brute-force reference; returns the tally of
    checked calls and of S-pair divisions in ``step_pair``."""
    tally = {"find": 0, "chain": 0, "pruned": 0, "minimal": 0,
             "divisions": 0}
    find = _Divisors.find
    chain = groebner._Engine.chain_prunes
    minimal = groebner._minimal_indices
    step_pair = groebner._Engine.step_pair
    divide = groebner.left_divide_module
    in_step = []

    def checked_find(self, m):
        got = find(self, m)
        assert got is _brute_find(self, m), m
        tally["find"] += 1
        return got

    def checked_chain(self, i, j):
        got = chain(self, i, j)
        assert got == _brute_chain_prunes(self, i, j), (i, j)
        tally["chain"] += 1
        tally["pruned"] += got
        return got

    def checked_minimal(lms, order):
        got = minimal(lms, order)
        assert got == _brute_minimal_indices(lms, order)
        tally["minimal"] += 1
        return got

    def counted_step(self, i, j):
        in_step.append(1)
        try:
            return step_pair(self, i, j)
        finally:
            in_step.pop()

    def counted_divide(*args):
        tally["divisions"] += bool(in_step)
        return divide(*args)

    monkeypatch.setattr(_Divisors, "find", checked_find)
    monkeypatch.setattr(groebner._Engine, "chain_prunes", checked_chain)
    monkeypatch.setattr(groebner, "_minimal_indices", checked_minimal)
    monkeypatch.setattr(groebner._Engine, "step_pair", counted_step)
    monkeypatch.setattr(groebner, "left_divide_module", counted_divide)
    return tally


@pytest.mark.parametrize("name, divisions", [
    ("c44-p", 30), ("sl2-5-p", 37), ("gkz-p", 52)])
def test_masked_lead_scans_match_brute_force_on_the_corpus(
        name, divisions, monkeypatch):
    """find, chain_prunes and _minimal_indices give the brute-force
    answers in ``gb --reduce``, and the completion divides as many
    S-pairs as before the masks."""
    tally = _checked_lead_scans(monkeypatch)
    pf = parse_problem(os.path.join(BENCH_CORPUS, name + ".json"))
    G = reduce_basis(buchberger(pf.generators, pf.mod_order))
    assert tally["divisions"] == divisions
    assert tally["find"] and tally["pruned"] and tally["minimal"]
    assert_self_certified(G)


@pytest.mark.parametrize("name", fixtures.all_names())
def test_masked_lead_scans_match_brute_force_on_the_fixtures(
        name, monkeypatch):
    tally = _checked_lead_scans(monkeypatch)
    A = over(FieldSpec("PrimeField", 32003), name)
    rng = random.Random(12)
    for kind in ("top", "pot"):
        L = FreeModule(A, 2)
        order = ModOrder(kind, A.order, 2)
        gens = [random_vect(L, rng, max_degree=2, max_terms=2, nonzero=True)
                for _ in range(3)]
        reduce_basis(buchberger(gens, order))
    assert tally["find"] and tally["chain"] and tally["minimal"]


def test_chain_criterion_past_the_mask_width(comm2):
    """Every pair of monomial elements whose exponents reach past the 32
    mask bits a variable of comm2 gets, all pairs handled: chain_prunes
    against the brute-force scan."""
    rnd = random.Random(8)
    values = (0, 1, 31, 32, 33, 40, 64)
    L = FreeModule(comm2, 2)
    order = ModOrder("pot", comm2.order, 2)
    eng = groebner._Engine(L, order, 0)
    for _ in range(14):
        exp = tuple(rnd.choice(values) for _ in range(2))
        comp = rnd.randrange(2)
        eng.basis.append(L.from_polys(
            [comm2.monomial(exp) if k == comp else comm2.zero()
             for k in range(2)]))
    t = len(eng.basis)
    eng.handled = {(i, j) for j in range(t) for i in range(j)}
    pruned = 0
    for j in range(t):
        for i in range(j):
            got = eng.chain_prunes(i, j)
            assert got == _brute_chain_prunes(eng, i, j), (i, j)
            pruned += got
    assert 0 < pruned < t * (t - 1) // 2


def test_minimal_indices_match_brute_force_past_the_mask_width():
    """Random lead lists whose exponents reach past the mask width (32
    bits a variable for two generators, 21 for three)."""
    rnd = random.Random(4)
    values = (0, 1, 2, 20, 21, 22, 31, 32, 33, 64, 70)
    for name in ("comm2", "ex12"):
        A = over(FieldSpec("Rationals"), name)
        for _ in range(40):
            rank = rnd.randint(1, 2)
            order = ModOrder("top", A.order, rank)
            lms = [(tuple(rnd.choice(values) for _ in range(A.n)),
                    rnd.randrange(rank))
                   for _ in range(rnd.randint(1, 12))]
            assert (groebner._minimal_indices(lms, order)
                    == _brute_minimal_indices(lms, order)), lms


def _reduced_elements(basis, order):
    """The reduced basis of a basis given without transition data."""
    G = GroebnerBasis(basis[0].module, order, basis, [],
                      [[] for _ in basis])
    return reduce_basis(G).elements


def _random_homogeneous(L, rnd, degree):
    """A homogeneous element of the given shifted degree, at most two
    terms per component."""
    A = L.algebra
    weights = oracles.algebra_weights(A)
    polys = []
    for shift in L.shifts:
        exps = oracles.exponents_of_degree(weights, degree - shift)
        polys.append(A.from_terms(
            (e, random_scalar(A.field, rnd, nonzero=True))
            for e in rnd.sample(exps, min(2, len(exps)))))
    return L.from_polys(polys)


@pytest.mark.parametrize("kind", ["top", "pot"])
@pytest.mark.parametrize("name", ["comm2", "weyl1", "qplane", "ex12",
                                  "ex14", "qheis"])
def test_criteria_keep_the_reduced_basis(name, kind, request, rng):
    """Differential: the pruned engine and the criterion-free pair loop
    reach the same reduced basis."""
    A = request.getfixturevalue(name)
    L = FreeModule(A, 2)
    order = ModOrder(kind, A.order, 2)
    for trial in range(6):
        gens = [random_vect(L, rng, max_degree=2, max_terms=3, nonzero=True)
                for _ in range(rng.randint(2, 4))]
        got = reduce_basis(buchberger(gens, order)).elements
        want = oracles.reference_buchberger(gens, order)
        assert got == _reduced_elements(want, order)


@pytest.mark.parametrize("kind", ["top", "pot"])
@pytest.mark.parametrize("name", ["comm2", "qplane", "ex12"])
def test_criteria_keep_the_reduced_truncated_basis(name, kind, request, rng):
    A = request.getfixturevalue(name)
    L = FreeModule(A, 2, shifts=(0, 1))
    order = ModOrder(kind, A.order, 2, graded=True, shifts=(0, 1))
    for trial in range(6):
        gens = [_random_homogeneous(L, rng, rng.randint(1, 3))
                for _ in range(rng.randint(2, 4))]
        got = reduce_basis(truncated_gb(gens, order, 4)).elements
        want = oracles.reference_buchberger(gens, order, truncate=4)
        assert got == _reduced_elements(want, order)


# ---------------------------------------------------------------------------
# membership decided during the completion
# ---------------------------------------------------------------------------

def _counting_steps(monkeypatch):
    """Record what each popped pair gave: a new element index or None."""
    steps = []
    step = groebner._Engine.step_pair

    def counting(eng, i, j):
        steps.append(step(eng, i, j))
        return steps[-1]

    monkeypatch.setattr(groebner._Engine, "step_pair", counting)
    return steps


@pytest.mark.parametrize("field", [FieldSpec("Rationals"),
                                   FieldSpec("PrimeField", 7)], ids=str)
@pytest.mark.parametrize("name", fixtures.all_names())
def test_membership_during_the_completion_matches_the_finished_basis(
        name, field, monkeypatch):
    # members sum_i f_i g_i with random f_i, random vectors and zero,
    # at rank 1 and 2 under both module orders: the answer and the
    # normal form are those of the finished basis
    rnd = random.Random(19)
    A = over(field, name)
    steps = _counting_steps(monkeypatch)
    late_members = 0
    for rank in (1, 2):
        L = FreeModule(A, rank)
        for kind in ("top", "pot"):
            order = ModOrder(kind, A.order, rank)
            gens = [random_vect(L, rnd, max_degree=2, max_terms=2,
                                nonzero=True)
                    for _ in range(rnd.randint(2, 3))]
            G = buchberger(gens, order)
            xis = [L.zero()] + [random_vect(L, rnd) for _ in range(3)]
            for _ in range(6):
                combo = L.zero()
                for g in gens:
                    combo = combo + g.lmul(random_poly(A, rnd, max_degree=2))
                xis.append(combo)
            for xi in xis:
                del steps[:]
                got = member_by_completion(xi, gens, order)
                assert got == is_member(xi, G)
                if got[0] and steps:
                    # the stop comes right after the element that
                    # reduced the remainder to zero
                    assert steps[-1] is not None
                    late_members += 1
    # members certified only after the completion added elements
    assert late_members >= 5


def test_membership_without_generators(qplane, rng):
    L = FreeModule(qplane, 2)
    order = top(qplane, 2)
    xi = random_vect(L, rng, nonzero=True)
    assert member_by_completion(xi, [], order) == (False, xi)
    assert member_by_completion(xi, [L.zero(), L.zero()], order) == (
        False, xi)
    assert member_by_completion(L.zero(), [], order) == (True, L.zero())


@pytest.mark.parametrize("name, member, popped", [
    ("sl2-5-p-member", True, 0),       # certified by the inputs alone
    ("c44-p-member", True, 4),         # by the third new element
    ("sl2-5-p-nonmember", False, 153),  # every pair of the completion
])
def test_membership_stops_when_the_remainder_vanishes(name, member, popped,
                                                      monkeypatch):
    steps = _counting_steps(monkeypatch)
    pf = parse_problem(os.path.join(BENCH_CORPUS, name + ".json"))
    xi = _element_from_options(pf)
    assert member_by_completion(xi, pf.generators, pf.mod_order)[0] == member
    assert len(steps) == popped


# ---------------------------------------------------------------------------
# sugar selection on orders that do not compare a degree first
# ---------------------------------------------------------------------------

def _popped_keys(monkeypatch):
    """Record the key of every pair the completion pops."""
    keys = []
    heappop = groebner.heapq.heappop

    def recording(heap):
        keys.append(heappop(heap))
        return keys[-1]

    monkeypatch.setattr(groebner.heapq, "heappop", recording)
    return keys


def test_sugar_of_popped_pairs_never_decreases_on_case_44(monkeypatch):
    # a new element's sugar is at least its pair's, and a pair's sugar
    # at least that of both its elements, so no pushed pair undercuts
    # the one just popped
    keys = _popped_keys(monkeypatch)
    pf = parse_problem(os.path.join(BENCH_CORPUS, "c44-p.json"))
    G = buchberger(pf.generators, pf.mod_order)
    assert len(G.elements) == 23
    assert len(keys) == 129
    sugars = [k[0] for k in keys]
    assert sugars == sorted(sugars)
    # the input that leads with the constant -2 has ecart 4
    assert any(k[0] > k[1] for k in keys)


def test_an_input_that_leads_with_a_constant_pairs_late(qplane,
                                                        monkeypatch):
    L = FreeModule(qplane, 2)
    order = ModOrder("pot", qplane.order, 2)
    # the first input leads with e_1, of degree 0, below its top degree 4
    gens = [L.parse(["x^4 + y", "1"]), L.parse(["y", "x + 1"]),
            L.parse(["x", "y"])]
    keys = _popped_keys(monkeypatch)
    eng = groebner._seeded_engine(gens, order)
    assert eng.ecart == [4, 0, 0]
    eng.run_pairs()
    # (1, 2) has sugar 2 and lcm degree 2; (0, 1) and (0, 2) have sugar
    # 5 on an lcm of degree 1, and pop after it
    assert [k[:2] + k[3:] for k in keys[:3]] == [
        (2, 2, 1, 2), (5, 1, 0, 1), (5, 1, 0, 2)]
    # the S-vector of (1, 2) ends in y e_1, which y times the first
    # input reduces, at sugar 5: no element's terms exceed its sugar
    deg = order.degree_of
    for t, g in enumerate(eng.basis):
        top = max(deg(m) for m in g.data)
        assert eng.ecart[t] + deg(eng.basis.leads[t]) >= top
    assert eng.ecart[3] + deg(eng.basis.leads[3]) == 5


@pytest.mark.parametrize("name", ["qplane", "weyl1"])
def test_sugar_keeps_random_pot_bases_certified(name, request):
    """Seeded random rank-2 POT modules: the basis is self-certified, and
    the reduced staircase is that of the row echelon of the oracle's
    rows (the inputs times every monomial up to a degree bound,
    :func:`staircase_oracle`, which itself refuses a POT order).  With
    the bound at the degree of the V rows, the reduced elements lie in
    that span, so the two staircases are equal."""
    A = request.getfixturevalue(name)
    L = FreeModule(A, 2)
    order = ModOrder("pot", A.order, 2)
    assert groebner._tracks_ecart(order)
    weights = A.degree_function.weights
    for seed in range(12):
        rnd = random.Random(seed)
        gens = [random_vect(L, rnd, max_degree=3, max_terms=3,
                            nonzero=True)
                for _ in range(rnd.randint(2, 3))]
        G = buchberger(gens, order)
        assert_self_certified(G)
        R = reduce_basis(G)
        degs = [max(order.degree_of(m) for m in g.data) for g in gens]
        bound = max(f.degree() + degs[j] for row in R.V
                    for j, f in enumerate(row) if not f.is_zero())
        rows = [g.lmul(A.monomial(e)) for g, d in zip(gens, degs)
                for e in exps_within(weights, bound - d)]
        leads = groebner.echelon_leads(rows, order)
        assert R.staircase() == groebner.Staircase(
            2, [[e for e, c in leads if c == comp] for comp in range(2)])
