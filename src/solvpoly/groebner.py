"""Left Groebner bases of submodules of free modules.

The completion loop is the noncommutative Buchberger procedure for
solvable algebras: only pairs whose leading monomials share a module
component produce S-vectors, pair selection is by least sugar (ties by
the shifted degree of the pair's join monomial, then by creation
index), and each nonzero remainder joins the basis monic.

Sugar (Giovini--Mora--Niesi--Robbiano--Traverso, ISSAC 1991): an
input's sugar is its largest shifted degree; a pair's is deg(lcm) plus
the larger ecart of its two elements, an element's ecart being its
sugar less its lead's degree; a new element's sugar is the larger of
its pair's and, over its quotient terms a^beta g_k, of
deg(beta) + sugar_k.  On orders that compare a degree first (graded
module orders, and TOP or rank-1 orders over a ``grlex`` base) every
input leads in its top degree; there no ecart is kept and the key is
deg(lcm), since the sugar key, which then parts from it only after a
remainder's lead falls below its pair's degree, made ``member`` on the
U(sl2) non-members of the benchmark 1.4--1.6 times as slow.  Elsewhere,
on POT orders of rank > 1 above all, the lead's degree says little
about an element: case #44 of the benchmark corpus leads one input
with a constant at ecart 4, and by degree its completion kept 27
elements with numerators of up to 1182 bits, by sugar 23 with up to
701.

Both transition matrices are derived on demand.  The loop records how
each element arose (its trace: the input it copies, or the pair
multipliers and division quotients that made it, and its normalising
inverse), and :attr:`GroebnerBasis.V`, which writes every basis element
as a left combination of the inputs, is built from those traces on
first read, each row summed on plain ints (integer numerators over one
denominator over Q, one reduction per row over GF(p)).  Each step
starts its sum over the lcm of its terms' denominators, so on an
integral table no step rescales, and a multiplier's a^0 term adds its
row with no product.  :meth:`GroebnerBasis.V_ints` builds only some
rows, in integer form.  :attr:`GroebnerBasis.U`, which writes every
input in the basis, is built the same way from
:attr:`GroebnerBasis.U_ints`, the division quotients of the inputs by
the basis, computed on first read.  The CLI prints V and U from these
integer rows (``cli._int_row_out``), with no payload on the way.

Every vector inside the loop is an integer row on the order's int
codes (:class:`solvpoly.modfree._IntVect`, integer numerators over one
positive denominator; the residues over GF(p)): each S-vector is summed
from the rows the basis keeps prepared for division, the division hands
its remainder back on the same codes and its quotients on ints, and a
nonzero remainder joins the basis as its primitive row with a positive
lead.  The S-vector sum and the division multiply monomials by adding
ints; exponent tuples stay at the edges (leads, masks, the chain
criterion, and the trace's multipliers and quotients).  The rows of V
and U are integer rows too, on the TOP order of a free module of their
own, summed by the same :class:`solvpoly.modfree._IntSum`.  Payloads
are built only at the edge: an element's ``data`` on first read and
the library's :attr:`GroebnerBasis.V` and :attr:`GroebnerBasis.U`.

A popped pair (i, j) is skipped by Buchberger's chain criterion when
some other element k leads in the same component, lm(k) divides
lcm(i, j), and the pairs (i, k) and (j, k) have both been handled
(popped, whether reduced or skipped; a pair never pushed, such as one
above a truncation degree, does not count).  Then S(i, j) is a
combination of shifts of S(i, k) and S(k, j) plus terms below the lcm,
which holds in solvable algebras because a^a a^b leads with a^(a+b)
(Kandri-Rody--Weispfenning, JSC 9, 1990).  Buchberger's product
criterion is not used: it rests on commuting leading terms, and in a
solvable algebra the S-vector of two elements with coprime leading
monomials need not reduce to zero.

Membership (:func:`member_by_completion`) is decided while the same
loop runs: the element's remainder is divided again only when a new
element's lead divides one of its monomials, and the loop stops as soon
as the remainder is zero.  A remainder left when the pairs run out is
the unique normal form of the element, the one :func:`is_member` gives
against the finished basis.

A degree-driven variant of the same loop (used for truncated bases of
graded submodules and for minimal homogeneous generating sets) is
exposed through :func:`degree_driven_completion`.  Every basis here
is a left basis: a right-sided question is a left one over the
opposite algebra ``A.opposite()`` (see
:func:`solvpoly.syzres.is_projective`).
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property
from math import lcm
from operator import add, le, sub
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from .coeff import SolvpolyError, _add_scaled
from .algebra import (
    ExpVec,
    Poly,
    SolvableAlgebra,
    ZeroPolynomial,
    _exp_mask,
    exp_max,
    exps_within,
    zero_exp,
)
from .modfree import (
    FreeModule,
    IncompatibleModules,
    ModMonomial,
    ModOrder,
    NotAGroebnerBasis,
    Vect,
    _Divisors,
    _IntSum,
    _IntVect,
    _monic_row,
    _row_to_ints,
    _terms_to_ints,
    _top_row,
    left_divide_module,
    mono_divides,
)

__all__ = [
    "NonGradedOrder",
    "Staircase",
    "GroebnerBasis",
    "s_polynomial",
    "buchberger",
    "minimalize",
    "reduce_basis",
    "is_member",
    "member_by_completion",
    "staircase_oracle",
    "echelon_leads",
    "degree_driven_completion",
]


class NonGradedOrder(SolvpolyError):
    """An operation requiring a graded order received another kind."""


class Staircase:
    """Per-component antichains of minimal leading exponents."""

    def __init__(self, rank: int, by_component: Sequence[Sequence[ExpVec]]):
        mins: List[List[ExpVec]] = []
        from .algebra import exp_divides

        for comp in range(rank):
            exps = list(by_component[comp]) if comp < len(by_component) else []
            keep = []
            for e in exps:
                if any(exp_divides(o, e) for o in exps if o != e):
                    continue
                if e in keep:
                    continue
                keep.append(e)
            keep.sort()
            mins.append(keep)
        self.rank = rank
        self.by_component = mins

    def __eq__(self, other):
        return (
            isinstance(other, Staircase)
            and self.rank == other.rank
            and self.by_component == other.by_component
        )

    def __repr__(self):
        return "Staircase(%r)" % (self.by_component,)


class _Trace:
    """The V rows of a family of elements, kept as the steps that derive
    them.

    Step k stands for the row ``inv * (e_unit + sum sign * f * row(src))``
    over ``m`` inputs: ``unit`` is an input index or None, each term
    pairs a sign and a left multiplier f with an earlier step src, and
    ``inv`` is the normalising inverse (None for one).  f is kept as
    the division and the S-vector give it, ``{exponent: (n, d)}`` with
    each term n/d (see :func:`solvpoly.modfree._terms_to_ints`), so a
    completion whose V is never read builds no payload for it.
    :meth:`rows` evaluates the steps asked for and those they depend
    on, in ascending order, each row summed on plain ints in one
    :class:`solvpoly.modfree._IntSum` on the TOP order of the trace's
    module of rank m, started over the lcm of its terms' denominators
    (so never rescaled on an integral table), and scaled by its inverse
    once at the end.
    ``done`` holds the rows as integer rows
    (:class:`solvpoly.modfree._IntVect`): the given ones, the ones asked
    for, and an evaluated one only until the last step of the same call
    that reads it.  Every step keeps its recipe, so a later call can
    evaluate a dropped row again.
    """

    def __init__(self, A: SolvableAlgebra, m: int):
        self.module = FreeModule(A, m)
        self.steps: List[Optional[tuple]] = []
        self.done: Dict[int, _IntVect] = {}

    def add(self, unit: Optional[int], terms: list, inv=None) -> int:
        self.steps.append((unit, terms, inv))
        return len(self.steps) - 1

    def given(self, rows: Sequence[Sequence[Poly]]) -> List[int]:
        """Steps for rows already known."""
        ids = []
        for row in rows:
            ids.append(len(self.steps))
            self.steps.append(None)
            self.done[ids[-1]] = _row_to_ints(self.module, row)
        return ids

    def rows(self, ids: Sequence[int]) -> List[_IntVect]:
        """The rows of the steps ``ids``, entry j on component j,
        evaluating what they need."""
        L, done, steps = self.module, self.done, self.steps
        need: Set[int] = set()
        stack = list(ids)
        while stack:
            k = stack.pop()
            if k in done or k in need:
                continue
            need.add(k)
            stack.extend(src for _, _, src in steps[k][1])
        # how many of the steps evaluated here read each row
        readers = Counter(src for k in need for _, _, src in steps[k][1])
        kept = set(ids)
        unit_exp = zero_exp(L.algebra.n)
        order = L.top
        acc = _IntSum(L.algebra, order)
        for k in sorted(need):
            unit, terms, inv = steps[k]
            ints = [(sign, *_terms_to_ints(f), done[src])
                    for sign, f, src in terms]
            den = lcm(*(fden * row.den for _, _, fden, row in ints))
            acc.start(None if unit is None else
                      {order.key((unit_exp, unit)): den}, den)
            for sign, f, fden, row in ints:
                acc.add(sign, f, fden, row.codes, row.den)
            done[k] = _IntVect(L, order,
                               *acc.finish(1 if inv is None else inv))
            for _, _, src in terms:
                readers[src] -= 1
                if not readers[src] and src in need and src not in kept:
                    del done[src]
        return [done[k] for k in ids]


class GroebnerBasis:
    """A computed left Groebner basis with transition data.

    ``elements[k] = sum_j V[k][j] * inputs[j]`` and
    ``inputs[j] = sum_k U[j][k] * elements[k]``.
    Both are derived on first read: ``V`` from the trace of the
    completion (see :attr:`V` and :meth:`V_ints`), ``U`` by dividing
    the inputs by the elements (see :attr:`U_ints`).
    V is held only as a ``(trace, steps)`` pair, step ``steps[k]`` of
    the trace deriving row k; the ``V`` argument is such a pair or the
    rows themselves, which become given steps of a fresh trace.
    """

    def __init__(
        self,
        module: FreeModule,
        order: ModOrder,
        elements: List[Vect],
        inputs: List[Vect],
        V: Union[List[List[Poly]], Tuple[_Trace, List[int]]],
        is_minimal: bool = False,
        is_reduced: bool = False,
        truncation_degree: Optional[int] = None,
    ):
        self.module = module
        self.order = order
        self.elements = elements
        self.inputs = inputs
        if not isinstance(V, tuple):
            trace = _Trace(module.algebra, len(inputs))
            V = trace, trace.given(V)
        self._trace, self._steps = V
        self.flags = {
            "is_minimal": is_minimal,
            "is_reduced": is_reduced,
            "truncation_degree": truncation_degree,
        }

    @cached_property
    def V(self) -> List[List[Poly]]:
        """Row k writes ``elements[k]`` in the inputs, built on first
        read from the steps of the trace that row k and the rows it
        derives from need."""
        return [row.to_polys()
                for row in self.V_ints(range(len(self.elements)))]

    def V_ints(self, ks: Iterable[int]) -> List[_IntVect]:
        """Rows ``ks`` of V in integer form (:meth:`_Trace.rows`),
        evaluating only the trace steps they need."""
        return self._trace.rows([self._steps[k] for k in ks])

    @cached_property
    def U_ints(self) -> Optional[List[_IntVect]]:
        """Row j holds the quotients of ``inputs[j]`` divided by the
        elements as an integer row on the TOP order of a free module of
        rank ``len(elements)`` (a zero row for a zero input), computed
        on first read.  None for truncated bases: inputs of degree
        beyond the cap need not reduce to zero.  Raises
        NotAGroebnerBasis when an input leaves a nonzero remainder.
        """
        if self.flags["truncation_degree"] is not None:
            return None
        basis = _Divisors.of(self.elements, self.order)
        L = FreeModule(self.module.algebra, len(basis))
        rows = []
        for xi in self.inputs:
            if xi.is_zero():
                rows.append(_IntVect(L, L.top, {}, 1))
                continue
            quotients, rem = left_divide_module(xi, basis, self.order)
            if not rem.is_zero():
                raise NotAGroebnerBasis(
                    "input does not reduce to zero against the computed basis"
                )
            rows.append(_top_row(L, {(e, i): c for i, q in quotients.items()
                                     for e, c in q.items()}))
        return rows

    @cached_property
    def U(self) -> Optional[List[List[Poly]]]:
        """Row j writes ``inputs[j]`` in the elements, built from
        :attr:`U_ints` on first read; None for truncated bases."""
        if self.U_ints is None:
            return None
        return [row.to_polys() for row in self.U_ints]

    def __len__(self):
        return len(self.elements)

    def leading_monomials(self):
        return [g.lm(self.order) for g in self.elements]

    def staircase(self) -> Staircase:
        by_comp: List[List[ExpVec]] = [[] for _ in range(self.module.rank)]
        for exp, comp in self.leading_monomials():
            by_comp[comp].append(exp)
        return Staircase(self.module.rank, by_comp)

    def __repr__(self):
        return "GroebnerBasis(%d elements)" % len(self.elements)


# ---------------------------------------------------------------------------
# S-vectors
# ---------------------------------------------------------------------------


def _spair_data(divisors: _Divisors, i: int, j: int):
    """(S, f_i, gamma-alpha, f_j, gamma-beta) or None, for elements i
    and j of a prepared list.

    S = c_i * a^(gamma-alpha) g_i  -  c_j * a^(gamma-beta) g_j, the
    scalars normalizing both products to leading coefficient one,
    summed in one :class:`solvpoly.modfree._IntSum` on the rows of
    ``divisors``, on the codes of their order, and returned as its
    ``finish`` gives it.  f_i is the multiplier ``{gamma-alpha: (n, d)}``
    with c_i = n/d, as the trace keeps it.  a^alpha * g leads with the
    lead of g times the lead coefficient of a^alpha * lm(g), read from
    the order's table of products (:class:`solvpoly.codes._Products`),
    since the order restricts to the algebra's order on each component.
    """
    mi, mj = divisors.leads[i], divisors.leads[j]
    if mi[1] != mj[1]:
        return None
    A = divisors[i].module.algebra
    p = A.field.characteristic
    entries = divisors.entries
    # two terms whose products are terms: S is zero
    zero = _term_products(A) and len(entries[i][3]) == 1 == len(entries[j][3])
    gamma = exp_max(mi[0], mj[0])
    acc = _IntSum(A, divisors.order)
    products = acc.products
    mults = []
    for sign, k in ((1, i), (-1, j)):
        _, lexp, lead, row, den, content = entries[k]
        alpha = tuple(map(sub, gamma, lexp))
        step = acc.step(alpha)
        mu = 1
        if step:
            known = products.row(step, alpha)[1]
            lc = divisors.codes[k]
            terms = known.get(lc) or products.fill(known, alpha, step, lc)
            mu = terms[0][1]
        t = lead * mu.numerator
        if p:
            # c = 1 / (lead * mu), and den = content = 1
            c = pow(t, -1, p)
            f, fden, mult = {alpha: c}, 1, (c, 1)
        else:
            # c * g = u / t * row, with c = den * u / (content * t)
            u = mu.denominator
            if t < 0:
                t, u = -t, -u
            f, fden, mult = {alpha: u}, t, (den * u, content * t)
        if not zero:
            acc.add(sign, f, fden, row, 1)
        mults.append(({alpha: mult}, alpha))
    (fi, ai), (fj, aj) = mults
    return ({}, 1) if zero else acc.finish(), fi, ai, fj, aj


def _term_products(A: SolvableAlgebra) -> bool:
    """Whether every product of two monomials is a term: on a table of
    scalar tails with no Weyl pair (skew polynomial rings, quantum
    planes, commutative rings), where the S-vector of two terms is zero
    (Levandovskyy--Schoenemann, ISSAC 2003)."""
    table = A._scalar_table
    return table is not None and not table[1]


def s_polynomial(xi: Vect, zeta: Vect, order: ModOrder) -> Vect:
    """The left S-vector; zero when the leading components differ."""
    if xi.is_zero() or zeta.is_zero():
        raise ZeroPolynomial("S-vector of a zero element")
    data = _spair_data(_Divisors(order, [xi, zeta]), 0, 1)
    if data is None:
        return xi.module.zero()
    return _IntVect(xi.module, order, *data[0])


# ---------------------------------------------------------------------------
# the completion engine
# ---------------------------------------------------------------------------


class _Engine:
    """Shared state of the Buchberger-style completion loops.

    Every vector inside the loop is an integer row on the codes of the
    order (:class:`solvpoly.modfree._IntVect`): the S-vector as
    :func:`_spair_data` sums it, the remainder as the division leaves
    it, and each basis element as the primitive row its
    :class:`solvpoly.modfree._Divisors` entry holds.
    """

    def __init__(self, module: FreeModule, order: ModOrder, n_inputs: int):
        self.module = module
        self.order = order
        self.A = module.algebra
        self.basis = _Divisors(order)
        self.trace = _Trace(self.A, n_inputs)
        # (sugar, deg(lcm), counter, i, j) per pushed pair
        self.heap: List[Tuple[int, int, int, int, int]] = []
        self.handled: Set[Tuple[int, int]] = set()
        self._pair_counter = 0
        self.pair_cap: Optional[int] = None
        # each element's ecart (its sugar less its lead's degree), kept
        # only where the pair key is the sugar (_tracks_ecart)
        self.ecart: Optional[List[int]] = [] if _tracks_ecart(order) else None

    def append(self, v: Vect, unit: Optional[int], terms: list,
               sugar: Optional[int] = None) -> int:
        """Add v monic, traced as ``unit`` plus ``terms`` (see
        :class:`_Trace`, whose step t is element t); the caller pushes
        its pairs (:meth:`make_pairs`).  ``sugar`` defaults to v's
        largest shifted degree, an input's sugar."""
        g, inv = _monic_row(v, self.order)
        self.basis.append(g)
        if self.ecart is not None:
            deg = self.order.degree_of
            if sugar is None:
                # over the codes of the row the entry keeps
                monos = self.order._codec.monos
                sugar = max(deg(monos[c]) for c in self.basis.entries[-1][3])
            self.ecart.append(sugar - deg(self.basis.leads[-1]))
        return self.trace.add(unit, terms, inv)

    def lazy_V(self) -> Tuple[_Trace, List[int]]:
        return self.trace, list(range(len(self.basis)))

    def make_pairs(self, t: int) -> None:
        lms = self.basis.leads
        mt = lms[t]
        ecart = self.ecart
        for i in range(t):
            mi = lms[i]
            if mi[1] != mt[1]:
                continue
            deg = self.order.degree_of((exp_max(mi[0], mt[0]), mt[1]))
            if self.pair_cap is not None and deg > self.pair_cap:
                continue
            sugar = deg if ecart is None else deg + max(ecart[i], ecart[t])
            heapq.heappush(self.heap,
                           (sugar, deg, self._pair_counter, i, t))
            self._pair_counter += 1

    def new_sugar(self, i: int, j: int,
                  quotients: Dict[int, dict]) -> Optional[int]:
        """The sugar of the remainder of pair (i, j): the pair's sugar
        or, over the quotient terms a^beta g_k, the largest
        deg(beta) + sugar_k, whichever is larger.  On an order whose
        ecarts are not kept, None (the default of :meth:`append`)."""
        ecart = self.ecart
        if ecart is None:
            return None
        deg, lms = self.order.degree_of, self.basis.leads
        (ei, comp), (ej, _) = lms[i], lms[j]
        sugar = deg((exp_max(ei, ej), comp)) + max(ecart[i], ecart[j])
        for k, q in quotients.items():
            ek, ck = lms[k]
            for beta in q:
                sugar = max(sugar,
                            deg((tuple(map(add, beta, ek)), ck)) + ecart[k])
        return sugar

    def chain_prunes(self, i: int, j: int) -> bool:
        """Buchberger's chain criterion (module docstring) for the popped
        pair (i, j), i < j.  Only the elements that lead in the pair's
        component are scanned.  An element whose divisibility mask
        (:func:`solvpoly.algebra._exp_mask`) rules out that its lead
        divides the lcm, whose mask is that of lead i or'ed with that of
        lead j, is passed over before the set lookups; the lcm itself is
        built only for an element that passes both."""
        basis = self.basis
        (ei, comp), (ej, _) = basis.leads[i], basis.leads[j]
        miss = ~(basis.masks[i] | basis.masks[j])
        handled = self.handled
        lcm = None
        for mask, entry in zip(basis.comp_masks[comp], basis.by_comp[comp]):
            if mask & miss:
                continue
            k = entry[0]
            if (
                k != i
                and k != j
                and ((i, k) if i < k else (k, i)) in handled
                and ((j, k) if j < k else (k, j)) in handled
            ):
                if lcm is None:
                    lcm = exp_max(ei, ej)
                if all(map(le, entry[1], lcm)):
                    return True
        return False

    def step_pair(self, i: int, j: int) -> Optional[int]:
        """Process the popped pair (i, j), i < j, whose leads share a
        component (:meth:`make_pairs` pushes no other pair); returns the
        new element index, if any.  The pair is handled from here on,
        pruned or not.
        """
        pruned = self.chain_prunes(i, j)
        self.handled.add((i, j))
        if pruned:
            return None
        (codes, den), fi, _, fj, _ = _spair_data(self.basis, i, j)
        if not codes:
            return None
        quotients, eta = left_divide_module(
            _IntVect(self.module, self.order, codes, den), self.basis,
            self.order
        )
        if eta.is_zero():
            return None
        terms = [(1, fi, i), (-1, fj, j)]
        t = self.append(
            eta, None, terms + _minus(quotients, range(len(self.basis))),
            self.new_sugar(i, j, quotients),
        )
        self.make_pairs(t)
        return t

    def run_pairs(self, stop: Optional[Callable[[int], bool]] = None) -> None:
        """Process the pairs in heap order until none is left, or until
        ``stop(t)`` holds for a new element t."""
        while self.heap:
            i, j = heapq.heappop(self.heap)[3:]
            t = self.step_pair(i, j)
            if t is not None and stop is not None and stop(t):
                return


def _tracks_ecart(order: ModOrder) -> bool:
    """Whether the completion keeps ecarts: not on a graded module
    order, nor on a TOP, Schreyer or rank-1 order over a ``grlex`` base,
    where the pair key is deg(lcm) (module docstring)."""
    return not order.graded and (
        order.base.kind != "grlex" or (order.kind == "pot" and order.rank > 1)
    )


def _minus(quotients: Dict[int, dict], srcs: Sequence[int]) -> list:
    """Trace terms subtracting each quotient ``quotients[k]`` (as
    :func:`solvpoly.modfree.left_divide_module` gives them) times step
    ``srcs[k]``."""
    return [(-1, quotients[k], srcs[k]) for k in sorted(quotients)]


def _common_module(inputs: Sequence[Vect]) -> FreeModule:
    module = inputs[0].module
    for v in inputs[1:]:
        if v.module != module:
            raise IncompatibleModules("generators from different modules")
    return module


def _seeded_engine(inputs: List[Vect], order: ModOrder) -> _Engine:
    """An engine holding the nonzero ``inputs``, each traced as itself,
    with their pairs pushed; none when all are terms on a table whose
    products are terms (:func:`_term_products`), a list that is its own
    Groebner basis, as the pair loop would add nothing."""
    eng = _Engine(_common_module(inputs), order, len(inputs))
    for j, xi in enumerate(inputs):
        if not xi.is_zero():
            eng.append(xi, j, [])
    if not (_term_products(eng.A)
            and all(len(e[3]) == 1 for e in eng.basis.entries)):
        for t in range(len(eng.basis)):
            eng.make_pairs(t)
    return eng


def buchberger(inputs: Sequence[Vect], order: ModOrder) -> GroebnerBasis:
    """Left Groebner basis of the submodule generated by ``inputs``."""
    inputs = list(inputs)
    if not inputs:
        raise ValueError("buchberger needs at least one generator")
    eng = _seeded_engine(inputs, order)
    eng.run_pairs()
    return GroebnerBasis(eng.module, order, eng.basis, inputs, eng.lazy_V())


def degree_driven_completion(
    inputs: Sequence[Vect],
    order: ModOrder,
    cap: Optional[int] = None,
) -> Tuple[List[Vect], List[List[Poly]], List[int]]:
    """Degree-by-degree completion of a list of homogeneous elements.

    Elements and S-vectors are processed in nondecreasing degree; at
    each degree all pending S-vectors are handled before the remaining
    inputs of that degree.  An input joins the output generating set
    (returned as indices into ``inputs``) exactly when its remainder
    against the current basis is nonzero.

    ``cap`` drops every pair and input above the given degree,
    yielding a truncated basis.
    Returns ``(basis, V, kept_input_indices)``, V the ``(trace, steps)``
    argument of :class:`GroebnerBasis`.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("completion needs at least one generator")
    module = _common_module(inputs)
    eng = _Engine(module, order, len(inputs))
    eng.pair_cap = cap

    W: List[Tuple[int, int, Vect]] = []
    for j, xi in enumerate(inputs):
        if xi.is_zero():
            continue
        deg = max(order.degree_of(m) for m in xi.data)
        if cap is not None and deg > cap:
            continue
        W.append((deg, j, xi))
    W.sort(key=lambda t: (t[0], t[1]))
    w_pos = 0
    kept: List[int] = []

    while w_pos < len(W) or eng.heap:
        candidates = []
        if w_pos < len(W):
            candidates.append(W[w_pos][0])
        if eng.heap:
            candidates.append(eng.heap[0][0])
        n = min(candidates)
        while eng.heap and eng.heap[0][0] == n:
            i, j = heapq.heappop(eng.heap)[3:]
            eng.step_pair(i, j)
        while w_pos < len(W) and W[w_pos][0] == n:
            _, j, xi = W[w_pos]
            w_pos += 1
            quotients, eta = left_divide_module(xi, eng.basis, order)
            if eta.is_zero():
                continue
            kept.append(j)
            eng.make_pairs(
                eng.append(eta, j, _minus(quotients, range(len(eng.basis)))))
    return eng.basis, eng.lazy_V(), kept


# ---------------------------------------------------------------------------
# minimal and reduced bases
# ---------------------------------------------------------------------------


def _minimal_indices(lms: Sequence[ModMonomial], order: ModOrder) -> List[int]:
    """Indices of the leading monomials that form the minimal antichain,
    ascending by monomial (ties by index): a monomial is kept unless
    another divides it strictly or an equal one has a smaller index.
    The scan runs by total degree, ties by index, so each strict divisor
    comes first; the order's keys are read for the kept ones alone.
    """
    idxs = sorted(range(len(lms)), key=lambda i: sum(lms[i][0]))
    kept: List[int] = []
    # (mask, lead) of each kept monomial, the mask tested first
    found: List[Tuple[int, ModMonomial]] = []
    for i in idxs:
        exp, comp = lms[i]
        mask = _exp_mask(exp)
        miss = ~mask
        for kmask, (kexp, kcomp) in found:
            if not kmask & miss and kcomp == comp and all(map(le, kexp, exp)):
                break
        else:
            kept.append(i)
            found.append((mask, lms[i]))
    return sorted(kept, key=lambda i: (order.key(lms[i]), i))


def minimalize(G: GroebnerBasis) -> GroebnerBasis:
    """Keep only elements whose leading monomials form an antichain.

    The result is sorted ascending by leading monomial, which makes
    the element order canonical for a given submodule.  It reuses the
    prepared rows of ``G.elements``.
    """
    basis = _Divisors.of(G.elements, G.order)
    kept = _minimal_indices(basis.leads, G.order)
    return GroebnerBasis(
        G.module,
        G.order,
        basis.picked(kept),
        G.inputs,
        (G._trace, [G._steps[i] for i in kept]),
        is_minimal=True,
        truncation_degree=G.flags["truncation_degree"],
    )


def reduce_basis(G0: GroebnerBasis) -> GroebnerBasis:
    """Tail-reduce a minimal basis; the result is the unique reduced one.

    One prepared list holds every element, each as it stands now: the
    tail of element i (all but its lead term) is divided by the whole
    list, which its own lead cannot divide, as it divides no smaller
    monomial; the element then takes the place of its old row
    (:meth:`solvpoly.modfree._Divisors.replace`).
    """
    if not G0.flags["is_minimal"]:
        G0 = minimalize(G0)
    order = G0.order
    module = G0.module
    basis = _Divisors.of(G0.elements, order).picked(range(len(G0.elements)))
    trace, steps = G0._trace, list(G0._steps)
    one = {zero_exp(module.algebra.n): (1, 1)}
    # a lone element has no other element to reduce its tail by
    for i in range(len(basis) if len(basis) > 1 else 0):
        _, _, lead, row, den, content = basis.entries[i]
        lc = basis.codes[i]
        tail = {c: n * content for c, n in row.items() if c != lc}
        quotients, rem = left_divide_module(
            _IntVect(module, order, tail, den), basis, order
        )
        if not quotients:
            continue
        # the lead term content * lead / den plus the remainder
        d = lcm(den, rem.den)
        codes = {c: n * (d // rem.den) for c, n in rem.codes.items()}
        codes[lc] = content * lead * (d // den)
        g, inv = _monic_row(_IntVect(module, order, codes, d), order)
        # row i - sum q_k * row k, over the rows as they stand now
        terms = [(1, one, steps[i])] + _minus(quotients, steps)
        basis.replace(i, g)
        steps[i] = trace.add(None, terms, inv)
    return GroebnerBasis(
        module,
        order,
        basis,
        G0.inputs,
        (trace, steps),
        is_minimal=True,
        is_reduced=True,
        truncation_degree=G0.flags["truncation_degree"],
    )


def is_member(xi: Vect, G: GroebnerBasis) -> Tuple[bool, Vect]:
    """Submodule membership along with the (unique) normal form.

    The ``member`` command decides membership during the completion
    (:func:`member_by_completion`); this stays as library API and as
    the tests' normal-form reference against a finished basis."""
    if xi.is_zero():
        return True, xi
    _, rem = left_divide_module(xi, G.elements, G.order)
    return rem.is_zero(), rem


def member_by_completion(
    xi: Vect, inputs: Sequence[Vect], order: ModOrder
) -> Tuple[bool, Vect]:
    """Membership of xi in the submodule generated by ``inputs``, decided
    while the basis is completed: the answer and normal form of
    ``is_member(xi, buchberger(inputs, order))``.

    xi is divided by the nonzero inputs, then the completion runs and
    the remainder is divided again by the whole basis only when a new
    element's lead divides one of its monomials.  A zero remainder
    ends the completion: xi is then a left combination of basis
    elements, each in the submodule.  A remainder left when the pairs
    run out has no monomial divisible by a lead of the finished basis,
    so it is the unique normal form.
    """
    if xi.is_zero():
        return True, xi
    inputs = list(inputs)
    if not inputs:
        return False, xi
    eng = _seeded_engine(inputs, order)
    rem = left_divide_module(xi, eng.basis, order)[1]
    monos = order._codec.monos

    def reduced_to_zero(t: int) -> bool:
        nonlocal rem
        lead = eng.basis.leads[t]
        if any(mono_divides(lead, monos[c]) for c in rem.codes):
            rem = left_divide_module(rem, eng.basis, order)[1]
        return rem.is_zero()

    if not rem.is_zero():
        eng.run_pairs(reduced_to_zero)
    return rem.is_zero(), rem


# ---------------------------------------------------------------------------
# staircase oracle (independent linear-algebra route)
# ---------------------------------------------------------------------------


def staircase_oracle(
    inputs: Sequence[Vect], order: ModOrder, degree_bound: int
) -> Staircase:
    """Leading monomials of the submodule up to a degree, by row
    reduction of the exact multiplication table -- no division, no
    S-vectors; serves as an independent check of the Buchberger route.
    """
    if not (order.graded or (order.rank == 1 and order.base.is_graded)):
        raise NonGradedOrder(
            "the staircase oracle needs a graded module order"
        )
    inputs = [v for v in inputs if not v.is_zero()]
    if not inputs:
        return Staircase(order.rank, [[] for _ in range(order.rank)])
    module = _common_module(inputs)
    A = module.algebra
    d = A.degree_function
    weights = d.weights

    rows: List[Vect] = []
    for xi in inputs:
        base_deg = max(order.degree_of(m) for m in xi.data)
        budget = degree_bound - base_deg
        if budget < 0:
            continue
        for exp in exps_within(weights, budget):
            rows.append(xi.lmul(A.monomial(exp)))
    by_comp: List[List[ExpVec]] = [[] for _ in range(module.rank)]
    for exp, comp in echelon_leads(rows, order):
        by_comp[comp].append(exp)
    return Staircase(module.rank, by_comp)


def echelon_leads(rows: Iterable[Vect], order: ModOrder) -> List[ModMonomial]:
    """Leading monomials of the span of the vectors ``rows``, by exact
    row echelon reduction: each row is reduced by the pivots found so
    far until its leading monomial is new (a new pivot) or it vanishes.
    Their number is the dimension of the span.
    """
    pivots: Dict[ModMonomial, Dict[ModMonomial, object]] = {}
    for v in rows:
        field = v.module.algebra.field
        p = field.characteristic
        row = dict(v.data)
        while row:
            lead = max(row, key=order.key)
            piv = pivots.get(lead)
            if piv is None:
                inv = field.inverse(row[lead])
                pivots[lead] = _add_scaled({}, row.items(), inv, p)
                break
            _add_scaled(row, piv.items(), -row[lead], p)
    return list(pivots)
