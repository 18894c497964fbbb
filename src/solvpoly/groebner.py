"""Left Groebner bases of submodules of free modules.

The completion loop is the noncommutative Buchberger procedure for
solvable algebras: only pairs whose leading monomials share a module
component produce S-vectors, pair selection is by minimal shifted
degree of the pair's join monomial (ties by creation index), and each
nonzero remainder joins the basis monic.  Both transition matrices
are derived on demand.  The loop records how each element arose (its
trace: the input it copies, or the pair multipliers and division
quotients that made it, and its normalising inverse), and
:attr:`GroebnerBasis.V`, which writes every basis element as a left
combination of the inputs, is built from those traces on first read,
each row summed on plain ints (integer numerators over one denominator
over Q, one reduction per row over GF(p)).
:meth:`GroebnerBasis.V_rows` builds only some rows.
:attr:`GroebnerBasis.U`, which writes every input in the basis,
divides the inputs by the basis on first read.

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
from functools import cached_property
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from .coeff import SolvpolyError, _add_scaled, _from_ints, _to_ints
from .algebra import (
    ExpVec,
    Poly,
    SolvableAlgebra,
    ZeroPolynomial,
    exp_max,
    exp_sub,
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
    _row_from_ints,
    _row_to_ints,
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

    def monomials(self) -> List[Tuple[ExpVec, int]]:
        return [
            (e, comp)
            for comp, exps in enumerate(self.by_component)
            for e in exps
        ]

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
    ``inv`` is the normalising inverse (None for one).  :meth:`rows`
    evaluates the steps asked for and those they depend on, in
    ascending order, each row summed on plain ints (integer numerators
    over one denominator, see :class:`solvpoly.modfree._IntSum`) and
    scaled by its inverse once at the end; an evaluated step is dropped
    and its row kept in that form for the steps that use it.  Only the
    rows returned become payloads.
    """

    def __init__(self, A: SolvableAlgebra, m: int):
        self.A = A
        self.m = m
        self.steps: List[Optional[tuple]] = []
        self.done: Dict[int, Tuple[Dict[ModMonomial, int], int]] = {}

    def add(self, unit: Optional[int], terms: list, inv=None) -> int:
        self.steps.append((unit, terms, inv))
        return len(self.steps) - 1

    def given(self, rows: Sequence[Sequence[Poly]]) -> List[int]:
        """Steps for rows already known."""
        ids = []
        for row in rows:
            ids.append(len(self.steps))
            self.steps.append(None)
            self.done[ids[-1]] = _row_to_ints(row)
        return ids

    def rows(self, ids: Sequence[int]) -> List[List[Poly]]:
        """The rows of the steps ``ids``, evaluating what they need."""
        A, done = self.A, self.done
        need: Set[int] = set()
        stack = list(ids)
        while stack:
            k = stack.pop()
            if k in done or k in need:
                continue
            need.add(k)
            stack.extend(src for _, _, src in self.steps[k][1])
        unit_exp = zero_exp(A.n)
        acc = _IntSum(A)
        for k in sorted(need):
            unit, terms, inv = self.steps[k]
            acc.start(None if unit is None else {(unit_exp, unit): 1})
            for sign, f, src in terms:
                acc.add_lmul(sign, f, done[src])
            done[k] = acc.finish(1 if inv is None else inv)
            self.steps[k] = None
        return [_row_from_ints(A, *done[k], self.m) for k in ids]


class GroebnerBasis:
    """A computed left Groebner basis with transition data.

    ``elements[k] = sum_j V[k][j] * inputs[j]`` and
    ``inputs[j] = sum_k U[j][k] * elements[k]``.
    Both are derived on first read: ``V`` from the trace of the
    completion (see :attr:`V` and :meth:`V_rows`), ``U`` from the
    elements (see :attr:`U`).
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
        return self.V_rows(range(len(self.elements)))

    def V_rows(self, ks: Iterable[int]) -> List[List[Poly]]:
        """Rows ``ks`` of V, evaluating only the trace steps they need."""
        return self._trace.rows([self._steps[k] for k in ks])

    @cached_property
    def U(self) -> Optional[List[List[Poly]]]:
        """Row j holds the quotients of ``inputs[j]`` divided by the
        elements (a zero row for a zero input), computed on first read.
        None for truncated bases: inputs of degree beyond the cap need
        not reduce to zero.  Raises NotAGroebnerBasis when an input
        leaves a nonzero remainder.
        """
        if self.flags["truncation_degree"] is not None:
            return None
        A = self.module.algebra
        U: List[List[Poly]] = []
        for xi in self.inputs:
            if xi.is_zero():
                U.append([A.zero() for _ in self.elements])
                continue
            quotients, rem = left_divide_module(xi, self.elements, self.order)
            if not rem.is_zero():
                raise NotAGroebnerBasis(
                    "input does not reduce to zero against the computed basis"
                )
            U.append(quotients)
        return U

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


def _spair_data(xi: Vect, zeta: Vect, order: ModOrder):
    """(S, c_i, gamma-alpha, c_j, gamma-beta, gamma, comp) or None.

    S = c_i * a^(gamma-alpha) xi  -  c_j * a^(gamma-beta) zeta, the
    scalars normalizing both products to leading coefficient one,
    summed in one :class:`solvpoly.modfree._IntSum` on the integer form
    of both vectors.  a^alpha * xi leads with lc(xi) times the lead
    coefficient of ``mono_mul(alpha, lm(xi))``, since the order
    restricts to the algebra's order on each component.
    """
    A = xi.module.algebra
    mi, mj = xi.lm(order), zeta.lm(order)
    if mi[1] != mj[1]:
        return None
    gamma = exp_max(mi[0], mj[0])
    ai, aj = exp_sub(gamma, mi[0]), exp_sub(gamma, mj[0])
    ci = A.field.inverse(xi.data[mi] * A.mono_mul(ai, mi[0])[0][1])
    cj = A.field.inverse(zeta.data[mj] * A.mono_mul(aj, mj[0])[0][1])
    acc = _IntSum(A)
    acc.add_lmul(1, A.monomial(ai, ci), _to_ints(xi.data.items()))
    acc.add_lmul(-1, A.monomial(aj, cj), _to_ints(zeta.data.items()))
    S = _from_ints(*acc.finish(), A.field.characteristic)
    return Vect._of(xi.module, S), ci, ai, cj, aj, gamma, mi[1]


def s_polynomial(xi: Vect, zeta: Vect, order: ModOrder) -> Vect:
    """The left S-vector; zero when the leading components differ."""
    if xi.is_zero() or zeta.is_zero():
        raise ZeroPolynomial("S-vector of a zero element")
    data = _spair_data(xi, zeta, order)
    if data is None:
        return xi.module.zero()
    return data[0]


# ---------------------------------------------------------------------------
# the completion engine
# ---------------------------------------------------------------------------


class _Engine:
    """Shared state of the Buchberger-style completion loops."""

    def __init__(self, module: FreeModule, order: ModOrder, n_inputs: int):
        self.module = module
        self.order = order
        self.A = module.algebra
        self.basis = _Divisors(order)
        self.trace = _Trace(self.A, n_inputs)
        self.heap: List[Tuple[int, int, int, int]] = []
        self.handled: Set[Tuple[int, int]] = set()
        self._pair_counter = 0
        self.pair_cap: Optional[int] = None

    def append(self, v: Vect, unit: Optional[int], terms: list) -> int:
        """Add v monic, traced as ``unit`` plus ``terms`` (see
        :class:`_Trace`, whose step t is element t); pairs it with the
        earlier elements."""
        lc = v.lc(self.order)
        inv = None
        if lc != 1:
            inv = self.A.field.inverse(lc)
            v = v.scale(inv)
        self.basis.append(v)
        t = self.trace.add(unit, terms, inv)
        self.make_pairs(t)
        return t

    def lazy_V(self) -> Tuple[_Trace, List[int]]:
        return self.trace, list(range(len(self.basis)))

    def make_pairs(self, t: int) -> None:
        lms = self.basis.leads
        mt = lms[t]
        for i in range(t):
            mi = lms[i]
            if mi[1] != mt[1]:
                continue
            deg = self.order.degree_of((exp_max(mi[0], mt[0]), mt[1]))
            if self.pair_cap is not None and deg > self.pair_cap:
                continue
            heapq.heappush(self.heap, (deg, self._pair_counter, i, t))
            self._pair_counter += 1

    def reduce(self, v: Vect) -> Tuple[List[Poly], Vect]:
        if not self.basis:
            return [], v
        return left_divide_module(v, self.basis, self.order)

    def chain_prunes(self, i: int, j: int) -> bool:
        """Buchberger's chain criterion (module docstring) for the popped
        pair (i, j), i < j.  The set lookups come before the divisibility
        test, which costs more."""
        lms = self.basis.leads
        (ei, comp), (ej, _) = lms[i], lms[j]
        lcm = (exp_max(ei, ej), comp)
        handled = self.handled
        for k, mk in enumerate(lms):
            if (
                k != i
                and k != j
                and ((i, k) if i < k else (k, i)) in handled
                and ((j, k) if j < k else (k, j)) in handled
                and mono_divides(mk, lcm)
            ):
                return True
        return False

    def step_pair(self, i: int, j: int) -> Optional[int]:
        """Process the popped pair (i, j), i < j; returns the new element
        index, if any.  The pair is handled from here on, pruned or not.
        """
        pruned = self.chain_prunes(i, j)
        self.handled.add((i, j))
        if pruned:
            return None
        data = _spair_data(self.basis[i], self.basis[j], self.order)
        if data is None:
            return None
        S, ci, expi, cj, expj, _, _ = data
        if S.is_zero():
            return None
        quotients, eta = self.reduce(S)
        if eta.is_zero():
            return None
        terms = [
            (1, self.A.monomial(expi, ci), i),
            (-1, self.A.monomial(expj, cj), j),
        ]
        return self.append(
            eta, None, terms + _minus(quotients, range(len(quotients)))
        )

    def run_pairs(self, stop: Optional[Callable[[int], bool]] = None) -> None:
        """Process the pairs in heap order until none is left, or until
        ``stop(t)`` holds for a new element t."""
        while self.heap:
            _, _, i, j = heapq.heappop(self.heap)
            t = self.step_pair(i, j)
            if t is not None and stop is not None and stop(t):
                return


def _minus(quotients: Sequence[Poly], srcs: Sequence[int]) -> list:
    """Trace terms subtracting ``quotients[k]`` times step ``srcs[k]``."""
    return [(-1, q, srcs[k]) for k, q in enumerate(quotients) if q]


def _common_module(inputs: Sequence[Vect]) -> FreeModule:
    module = inputs[0].module
    for v in inputs[1:]:
        if v.module != module:
            raise IncompatibleModules("generators from different modules")
    return module


def _seeded_engine(inputs: List[Vect], order: ModOrder) -> _Engine:
    """An engine holding the nonzero ``inputs``, each traced as itself,
    with their pairs pushed."""
    eng = _Engine(_common_module(inputs), order, len(inputs))
    for j, xi in enumerate(inputs):
        if not xi.is_zero():
            eng.append(xi, j, [])
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
            _, _, i, j = heapq.heappop(eng.heap)
            eng.step_pair(i, j)
        while w_pos < len(W) and W[w_pos][0] == n:
            _, j, xi = W[w_pos]
            w_pos += 1
            quotients, eta = eng.reduce(xi)
            if eta.is_zero():
                continue
            kept.append(j)
            eng.append(eta, j, _minus(quotients, range(len(quotients))))
    return eng.basis, eng.lazy_V(), kept


# ---------------------------------------------------------------------------
# minimal and reduced bases
# ---------------------------------------------------------------------------


def _minimal_indices(lms: Sequence[ModMonomial], order: ModOrder) -> List[int]:
    """Indices of the leading monomials that form the minimal antichain,
    ascending by monomial (ties by index): a monomial is kept unless one
    kept before it divides it.
    """
    idxs = sorted(range(len(lms)), key=lambda i: (order.key(lms[i]), i))
    kept: List[int] = []
    for i in idxs:
        if not any(mono_divides(lms[k], lms[i]) for k in kept):
            kept.append(i)
    return kept


def minimalize(G: GroebnerBasis) -> GroebnerBasis:
    """Keep only elements whose leading monomials form an antichain.

    The result is sorted ascending by leading monomial, which makes
    the element order canonical for a given submodule.
    """
    kept = _minimal_indices(G.leading_monomials(), G.order)
    return GroebnerBasis(
        G.module,
        G.order,
        _Divisors(G.order, [G.elements[i] for i in kept]),
        G.inputs,
        (G._trace, [G._steps[i] for i in kept]),
        is_minimal=True,
        truncation_degree=G.flags["truncation_degree"],
    )


def reduce_basis(G0: GroebnerBasis) -> GroebnerBasis:
    """Tail-reduce a minimal basis; the result is the unique reduced one."""
    if not G0.flags["is_minimal"]:
        G0 = minimalize(G0)
    order = G0.order
    module = G0.module
    elements = list(G0.elements)
    trace, steps = G0._trace, list(G0._steps)
    A = module.algebra
    for i in range(len(elements)):
        others = elements[:i] + elements[i + 1 :]
        if not others:
            continue
        quotients, rem = left_divide_module(elements[i], others, order)
        if rem == elements[i]:
            continue
        # row i - sum q_k * row k, over the rows as they stand now
        terms = [(1, A.one(), steps[i])] + _minus(
            quotients, steps[:i] + steps[i + 1 :]
        )
        lc = rem.lc(order)
        inv = None
        if lc != 1:
            inv = A.field.inverse(lc)
            rem = rem.scale(inv)
        elements[i] = rem
        steps[i] = trace.add(None, terms, inv)
    return GroebnerBasis(
        module,
        order,
        _Divisors(order, elements),
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
    if not G.elements:
        return False, xi
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
    rem = eng.reduce(xi)[1]

    def reduced_to_zero(t: int) -> bool:
        nonlocal rem
        lead = eng.basis.leads[t]
        if any(mono_divides(lead, m) for m in rem.data):
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
