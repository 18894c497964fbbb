import os
import random

import pytest

import solvpoly.groebner as groebner
from solvpoly import fixtures
from solvpoly.algebra import reversed_poly
from solvpoly.cli import _element_from_options, parse_problem
from solvpoly.coeff import FieldSpec
from solvpoly.modfree import FreeModule, ModOrder, left_divide_module
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
    ("c44-p", 34),    # 144 pairs
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
    ("c44-p-member", True, 1),         # by the first new element
    ("sl2-5-p-nonmember", False, 153),  # every pair of the completion
])
def test_membership_stops_when_the_remainder_vanishes(name, member, popped,
                                                      monkeypatch):
    steps = _counting_steps(monkeypatch)
    pf = parse_problem(os.path.join(BENCH_CORPUS, name + ".json"))
    xi = _element_from_options(pf)
    assert member_by_completion(xi, pf.generators, pf.mod_order)[0] == member
    assert len(steps) == popped
