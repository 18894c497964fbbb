"""Syzygies, free resolutions, projectivity and projective dimension.

Syzygy generators come from the S-vector calculus: for a left
Groebner basis ``g_1..g_t``, each same-component pair contributes

    s_ij = sum_k q_k eps_k - c_i a^(gamma-alpha_i) eps_i
                           + c_j a^(gamma-alpha_j) eps_j

where the q_k are the division quotients of the S-vector.  Under the
Schreyer order induced by the basis, these rows are a left Groebner
basis of the syzygy module (Schreyer's theorem, for any Groebner basis,
minimal or not), and the lead of each is known before dividing: the
larger of ``a^(gamma-alpha_i) eps_i`` and ``a^(gamma-alpha_j) eps_j``.
The rows whose leads form the minimal antichain of these leads
generate the same lead module, so they are already a Groebner basis of
the syzygy module, and only their pairs are divided
(:func:`_schreyer_rows`, the one place rows are chosen).  Iterating
with fresh Schreyer orders yields a free resolution whose length never
exceeds the number of algebra generators, provided each stage is
sorted so that leading exponents ascend lexicographically within each
component.

Matrices follow the row convention: row i of the matrix of a map is
the coordinate vector of the image of the i-th source basis vector,
and composition in application order is the ordinary matrix product.
That product (:meth:`PresentationMatrix.compose_with`) is the one sum
of ring products over rows here: it lifts syzygies through the
transition matrices, checks that syzygies annihilate their targets and
that a resolution's maps compose to zero.  Every row it reads or makes
is an integer row on the codes of one module order
(:class:`solvpoly.modfree._IntVect`): a Schreyer row on its Schreyer
order, a basis element on the completion's order, a row of V, U or of
a product on the TOP order of a free module of its own.  A matrix
holds integer rows only, and so do the right inverse of
:func:`is_projective` and the splice of :func:`projective_dimension`.
"""

from __future__ import annotations

from functools import cached_property
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Poly, SolvableAlgebra, zero_exp
from .modfree import (
    FreeModule,
    ModMonomial,
    ModOrder,
    NotAGroebnerBasis,
    Vect,
    _Divisors,
    _IntSum,
    _IntVect,
    _coded,
    _row_to_ints,
    _terms_to_ints,
    _top_row,
    left_divide_module,
)
from .groebner import (
    GroebnerBasis,
    _minimal_indices,
    _spair_data,
    buchberger,
    minimalize,
)

__all__ = [
    "PresentationMatrix",
    "Resolution",
    "SyzygyGenerators",
    "syzygy_of_gb",
    "syzygy_of_generators",
    "free_resolution",
    "is_projective",
    "projective_dimension",
    "stably_free_rank",
]


class PresentationMatrix:
    """A matrix over the algebra presenting a module map.

    Row i is the coordinate vector of the image of the i-th basis
    vector of the source, held as one integer row
    (:class:`solvpoly.modfree._IntVect`) with entry j on component j;
    the map sends a coordinate row ``(f_1..f_t)`` to ``(f)Q`` with
    coefficients kept on the left.  The constructor takes rows of ring
    elements and codes them once, on the TOP order of its free module
    of rank ``cols``: the one place rows of ring elements enter.  Every other
    matrix is made from integer rows by :meth:`of_ints`, the maps of a
    resolution from the Schreyer frame to the printed output.  The
    column count ``cols`` is read off the rows; a matrix with no rows
    must be given it.  ``entries`` decodes the rows on each read.
    """

    def __init__(
        self,
        algebra: SolvableAlgebra,
        entries: Sequence[Sequence[Poly]],
        cols: Optional[int] = None,
    ):
        if cols is None:
            if not entries:
                raise ValueError("a matrix with no rows needs its width")
            cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix")
        self.algebra, self.rows, self.cols = algebra, len(entries), cols
        self._ints = [_row_to_ints(self.module, row) for row in entries]

    @classmethod
    def of_ints(
        cls, algebra: SolvableAlgebra, rows: Sequence[_IntVect], cols: int,
    ) -> "PresentationMatrix":
        """The matrix whose row i is the integer row ``rows[i]``, entry j
        on component j."""
        M = cls.__new__(cls)
        M.algebra, M.rows, M.cols = algebra, len(rows), cols
        M._ints = list(rows)
        return M

    @property
    def entries(self) -> List[List[Poly]]:
        """The rows as ring elements, decoded on read."""
        return [row.to_polys() for row in self._ints]

    @cached_property
    def module(self) -> FreeModule:
        """The free module of rank ``cols`` the rows lie in."""
        return FreeModule(self.algebra, self.cols)

    @cached_property
    def order(self) -> ModOrder:
        """The order whose codes the rows are summed on as the right
        factor of a product: the first row's, else the TOP order of
        :attr:`module`."""
        return self._ints[0].order if self._ints else self.module.top

    def int_rows(self) -> List[_IntVect]:
        """The integer rows."""
        return self._ints

    @classmethod
    def from_vects(
        cls, vects: Sequence[Vect], module: FreeModule
    ) -> "PresentationMatrix":
        """The matrix whose rows are ``vects``, kept as integer rows on
        the order of the first one, or on the TOP order of ``module``
        when it is not an integer row."""
        order = (vects[0].order if vects and isinstance(vects[0], _IntVect)
                 else module.top)
        return cls.of_ints(
            module.algebra, [_coded(v, order) for v in vects], module.rank
        )

    def compose_with(self, nxt: "PresentationMatrix") -> "PresentationMatrix":
        """Matrix of (self then nxt): the ordinary product self * nxt.

        Both work on their integer rows (:meth:`int_rows`): each output
        row is summed in one :class:`solvpoly.modfree._IntSum` on the
        codes of ``nxt.order``, onto which a row of nxt is put
        (:func:`solvpoly.modfree._coded`) only if it is not there yet,
        and kept as an integer row (:meth:`of_ints`).  The rows of self
        may lie on any orders.
        """
        if self.cols != nxt.rows:
            raise ValueError("dimension mismatch in composition")
        A = self.algebra
        order = nxt.order
        rows = [_coded(v, order) for v in nxt.int_rows()]
        acc = _IntSum(A, order)
        out = []
        for v in self.int_rows():
            acc.start()
            for j, f in _by_column(v).items():
                acc.add(1, f, v.den, rows[j].codes, rows[j].den)
            out.append(_IntVect(nxt.module, order, *acc.finish()))
        return PresentationMatrix.of_ints(A, out, nxt.cols)

    def is_zero(self) -> bool:
        return not any(self.int_rows())

    def __repr__(self):
        return "PresentationMatrix(%dx%d)" % (self.rows, self.cols)


def _by_column(v: _IntVect) -> Dict[int, Dict[tuple, int]]:
    """The numerators of an integer row split into its entries."""
    monos = v.order._codec.monos
    cols: Dict[int, Dict[tuple, int]] = {}
    for c, n in v.codes.items():
        e, j = monos[c]
        col = cols.get(j)
        if col is None:
            col = cols[j] = {}
        col[e] = n
    return cols


class Resolution:
    """A finite chain of free modules resolving M = L0 / N.

    ``modules`` is ascending ``[L_0, L_1, .., L_q]`` and ``maps[i]``
    is the matrix of L_{i+1} -> L_i.  The zero module is resolved by
    the free module of rank 0 alone, with no maps.
    """

    def __init__(
        self,
        modules: List[FreeModule],
        maps: List[PresentationMatrix],
        flavor: str = "Plain",
    ):
        self.modules = modules
        self.maps = maps
        self.flavor = flavor

    @property
    def zero_module(self) -> bool:
        return self.modules[0].rank == 0

    def ranks(self) -> List[int]:
        return [m.rank for m in self.modules]

    def shift_lists(self) -> List[List[int]]:
        return [list(m.shifts) for m in self.modules]

    def composition_is_zero(self) -> bool:
        """Exactness witness: consecutive maps compose to zero.

        No caller in the package; kept because the acceptance tests
        assert every resolution with it."""
        for i in range(len(self.maps) - 1):
            if not self.maps[i + 1].compose_with(self.maps[i]).is_zero():
                return False
        return True

    def __repr__(self):
        return "Resolution(%s, ranks=%r)" % (self.flavor, self.ranks())


class SyzygyGenerators:
    """Generators of the relations among a fixed tuple of elements.

    The targets lie in ``target_module``, which defaults to the module
    of the first target and must be given when there is none.
    """

    def __init__(
        self,
        elements: List[Vect],
        origin: str,
        targets: List[Vect],
        module: FreeModule,
        order: Optional[ModOrder] = None,
        target_module: Optional[FreeModule] = None,
    ):
        self.elements = elements
        self.origin = origin
        self.targets = targets
        self.module = module
        self.order = order
        self.target_module = target_module or targets[0].module

    def annihilates(self) -> bool:
        """Every generator evaluates to exactly zero on the targets: the
        product S T is zero, S the generators and T the targets as rows.
        """
        S = PresentationMatrix.from_vects(self.elements, self.module)
        T = PresentationMatrix.from_vects(self.targets, self.target_module)
        return S.compose_with(T).is_zero()

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "SyzygyGenerators(%d, %s)" % (len(self.elements), self.origin)


# ---------------------------------------------------------------------------
# Schreyer syzygies
# ---------------------------------------------------------------------------


def schreyer_order_for(G: Sequence[Vect], order: ModOrder) -> ModOrder:
    """Module order on the syzygy coordinates induced by the basis."""
    return ModOrder(
        "schreyer",
        order.base,
        len(G),
        shifts=[order.degree_of(g.lm(order)) for g in G],
        schreyer_images=[g.lm(order) for g in G],
        schreyer_target=order,
    )


def _schreyer_lead(lms: Sequence[ModMonomial], i: int, j: int) -> ModMonomial:
    """Leading monomial of the Schreyer row of a same-component pair
    i < j, known before any division: (gamma - alpha_j, j).  Both
    (gamma - alpha_i, i) and (gamma - alpha_j, j) map to a^gamma on the
    same target component, so the Schreyer order
    (:func:`schreyer_order_for`) breaks their tie by the larger index;
    every quotient term maps below a^gamma.
    """
    alpha = lms[j][0]
    return tuple(map(sub, map(max, lms[i][0], alpha), alpha)), j


def _schreyer_rows(
    elements: Sequence[Vect],
    order: ModOrder,
    syz_module: FreeModule,
    syz_order: ModOrder,
) -> List[Vect]:
    """The Schreyer rows of a left Groebner basis that generate its
    syzygies, chosen lead first.

    The lead of each same-component pair's row is known before any
    division (:func:`_schreyer_lead`); only the pairs whose leads form
    the minimal antichain are divided, in the order
    :func:`solvpoly.groebner._minimal_indices` gives.  No row is zero,
    as its lead cannot cancel.  Each row is summed on ints from the
    quotients and the pair's multipliers, whose monomials are distinct
    (every quotient term maps below gamma), and kept on the codes of
    ``syz_order``, which the next stage of a resolution divides on.
    """
    p = syz_module.algebra.field.characteristic
    t = len(elements)
    divisors = _Divisors.of(elements, order)
    lms = divisors.leads
    pairs = [
        (i, j)
        for i in range(t)
        for j in range(i + 1, t)
        if lms[i][1] == lms[j][1]
    ]
    leads = [_schreyer_lead(lms, i, j) for i, j in pairs]
    rows: List[Vect] = []
    for k in _minimal_indices(leads, syz_order):
        i, j = pairs[k]
        (codes, den), fi, expi, fj, expj = _spair_data(divisors, i, j)
        terms = {}
        if codes:
            quotients, rem = left_divide_module(
                _IntVect(elements[i].module, order, codes, den), divisors,
                order
            )
            if not rem.is_zero():
                raise NotAGroebnerBasis(
                    "an S-vector does not reduce to zero; the input "
                    "is not a left Groebner basis"
                )
            for g, q in quotients.items():
                for e, c in q.items():
                    terms[syz_order.key((e, g))] = c
        n, d = fi[expi]
        terms[syz_order.key((expi, i))] = (p - n if p else -n, d)
        terms[syz_order.key((expj, j))] = fj[expj]
        rows.append(_IntVect(syz_module, syz_order, *_terms_to_ints(terms)))
    return rows


def syzygy_of_gb(G: GroebnerBasis) -> SyzygyGenerators:
    """Schreyer generators of the syzygies of a left Groebner basis.

    The returned elements (:func:`_schreyer_rows`) are a left Groebner
    basis of the syzygy module under the returned Schreyer order.
    """
    t = len(G.elements)
    shifts = [G.order.degree_of(g.lm(G.order)) for g in G.elements]
    syz_module = FreeModule(G.module.algebra, t, shifts=shifts)
    order = schreyer_order_for(G.elements, G.order) if t else None
    rows = _schreyer_rows(G.elements, G.order, syz_module, order)
    return SyzygyGenerators(
        rows, "SchreyerOfGB", list(G.elements), syz_module, order, G.module
    )


def _lift_syzygies(G: GroebnerBasis, out_module: FreeModule) -> List[Vect]:
    """Generators of the syzygies of ``G.inputs`` inside ``out_module``.

    One product ``[S; U] V``: the Schreyer generators S of the basis and
    the input-to-basis matrix U, stacked, times the basis-to-input
    matrix V; then E is subtracted on the U rows, which gives UV - E,
    and zero rows are dropped.  An empty basis gives UV - E = -E.
    """
    A = out_module.algebra
    p = A.field.characteristic
    m, t = len(G.inputs), len(G.elements)
    S = syzygy_of_gb(G).elements
    rows = PresentationMatrix.of_ints(A, S + G.U_ints, t).compose_with(
        PresentationMatrix.of_ints(A, G.V_ints(range(t)), m)
    ).int_rows()
    unit = zero_exp(A.n)
    for i, v in enumerate(rows[len(rows) - m:]):
        e = v.order.key((unit, i))
        n = v.codes.get(e, 0) - v.den
        if p:
            n %= p
        if n:
            v.codes[e] = n
        else:
            del v.codes[e]
    return [_IntVect(out_module, v.order, v.codes, v.den)
            for v in rows if v]


def syzygy_of_generators(U_in: Sequence[Vect], order: ModOrder) -> SyzygyGenerators:
    """Syzygy generators of an arbitrary generating tuple.

    Runs the tracked Buchberger completion and lifts the Schreyer
    generators of the computed basis (:func:`_lift_syzygies`).
    """
    U_in = list(U_in)
    if not U_in:
        raise ValueError("syzygy_of_generators needs at least one element")
    G = buchberger(U_in, order)
    out_module = FreeModule(
        G.module.algebra,
        len(U_in),
        shifts=[
            0 if v.is_zero() else order.degree_of(v.lm(order)) for v in U_in
        ],
    )
    return SyzygyGenerators(
        _lift_syzygies(G, out_module),
        "OfOriginalGenerators",
        U_in,
        out_module,
        None,
    )


# ---------------------------------------------------------------------------
# free resolutions
# ---------------------------------------------------------------------------


def _ascending_exponent_sort(elements: List[Vect], order: ModOrder) -> List[Vect]:
    """Arrange a basis so leading exponents ascend lexicographically
    within each leading component (first generator most significant);
    this is what bounds the resolution length by the generator count.
    """
    return sorted(elements, key=lambda g: g.lm(order))


def free_resolution(
    L0: FreeModule,
    N_gens: Sequence[Vect],
    order: Optional[ModOrder] = None,
) -> Resolution:
    """Finite free resolution of M = L0 / <N_gens>.

    Each stage appends the matrix of the current basis and replaces
    the basis by its Schreyer rows (:func:`_schreyer_rows`, the rows
    :func:`syzygy_of_gb` returns), sorted by
    :func:`_ascending_exponent_sort`; the chain stops when no relations
    remain.  The first basis is the minimal Groebner basis of the
    relations.  When its leads are all pure basis vectors e_i, M is free
    on the other components (of rank 0 when the submodule is all of
    L0: the zero module), and that module is the whole resolution.  No
    later stage can lead with pure vectors: a Schreyer row leads with
    (gamma - alpha_j, j) (:func:`_schreyer_lead`), which is pure only
    when alpha_i divides alpha_j in one component, and the leads of
    every stage form a strict antichain (the first by
    :func:`solvpoly.groebner.minimalize`, every later one by
    :func:`solvpoly.groebner._minimal_indices`).
    """
    A = L0.algebra
    if order is None:
        order = ModOrder("top", A.order, L0.rank, shifts=L0.shifts)
    gens = [v for v in N_gens if not v.is_zero()]
    if not gens:
        return Resolution([L0], [])
    G = minimalize(buchberger(gens, order))
    elements = _ascending_exponent_sort(G.elements, order)
    lms = [g.lm(order) for g in elements]
    if not any(any(exp) for exp, _ in lms):
        pivot = {comp for _, comp in lms}
        nonpivot = [c for c in range(L0.rank) if c not in pivot]
        shifts = [L0.shifts[c] for c in nonpivot]
        return Resolution([FreeModule(A, len(nonpivot), shifts=shifts)], [])
    modules = [L0]
    maps: List[PresentationMatrix] = []
    cur_module = L0
    cur_order = order
    for _ in range(A.n + 2):
        shifts = [cur_order.degree_of(m) for m in lms]
        nxt_module = FreeModule(A, len(elements), shifts=shifts)
        maps.append(PresentationMatrix.from_vects(elements, cur_module))
        modules.append(nxt_module)
        nxt_order = schreyer_order_for(elements, cur_order)
        elements = _ascending_exponent_sort(
            _schreyer_rows(elements, cur_order, nxt_module, nxt_order),
            nxt_order,
        )
        if not elements:
            break
        cur_module, cur_order = nxt_module, nxt_order
        lms = [g.lm(cur_order) for g in elements]
    else:
        raise RuntimeError(
            "resolution exceeded the generator-count bound; this "
            "contradicts the syzygy termination argument"
        )
    return Resolution(modules, maps)


# ---------------------------------------------------------------------------
# projectivity and projective dimension
# ---------------------------------------------------------------------------


def is_projective(
    Q: PresentationMatrix,
) -> Tuple[bool, Optional[PresentationMatrix]]:
    """Right-invertibility test of a presentation matrix.

    ``Q`` (t x s) presents M as the cokernel of an injective map.  M
    is projective exactly when the right submodule generated by the
    columns of Q contains every basis vector; in that case a right
    inverse V (s x t) with Q V = E is assembled from the right
    division quotients and returned as a matrix.

    It all runs over ``A.opposite()``, where right multiples are left
    ones, on integer rows: the columns of Q with their exponents
    reversed (:func:`_reversed_transpose`) are completed once under the
    TOP order there (the opposite of TOP), each e_k is divided by that
    basis, and W = quotients * V_op is one product over the rows of V_op
    that a nonzero quotient reads; V is W transposed back the same way.
    """
    A = Q.algebra
    t, s = Q.rows, Q.cols
    if t == 0:
        return True, PresentationMatrix.of_ints(
            A, _reversed_transpose([], FreeModule(A, 0), s, ()), 0)
    op = A.opposite()
    module = FreeModule(op, t)
    order = module.top
    reversed_cols = _reversed_transpose(Q.int_rows(), module, s, range(s))
    col_index = [j for j, v in enumerate(reversed_cols) if v]
    if not col_index:
        return False, None
    G = buchberger([reversed_cols[j] for j in col_index], order)
    unit = zero_exp(op.n)
    quotients = []
    for k in range(t):
        qs, rem = left_divide_module(
            _IntVect(module, order, {order.key((unit, k)): 1}, 1),
            G.elements, order
        )
        if not rem.is_zero():
            return False, None
        quotients.append(qs)
    used = sorted({g for qs in quotients for g in qs})
    pos = {g: c for c, g in enumerate(used)}
    L = FreeModule(op, len(used))
    rows = [_top_row(L, {(e, pos[g]): c for g, q in qs.items()
                         for e, c in q.items()}) for qs in quotients]
    W = PresentationMatrix.of_ints(op, rows, len(used)).compose_with(
        PresentationMatrix.of_ints(op, G.V_ints(used), len(col_index)))
    V = _reversed_transpose(W.int_rows(), FreeModule(A, t), s, col_index)
    return True, PresentationMatrix.of_ints(A, V, t)


def _reversed_transpose(
    rows: Sequence[_IntVect], L: FreeModule, width: int, place: Sequence[int]
) -> List[_IntVect]:
    """The transpose of the matrix with integer rows ``rows``, every
    exponent reversed (phi, over ``A.opposite()`` and back): ``width``
    rows of L on its TOP order, row ``place[j]`` holding column j (the
    entry of row k on component k) over the lcm of the row
    denominators, the other rows zero."""
    terms: List[dict] = [{} for _ in range(width)]
    for k, v in enumerate(rows):
        for j, col in _by_column(v).items():
            out = terms[place[j]]
            for e, n in col.items():
                out[(e[::-1], k)] = (n, v.den)
    return [_top_row(L, row) for row in terms]


def projective_dimension(R: Resolution) -> int:
    """Least resolution length over the shortening procedure.

    Walks from the tail: while the last matrix is right invertible,
    splice the last module into the one two steps down and retry; the
    first non-invertible tail fixes the dimension.  The spliced map
    psi pairs the right inverse V with the previous boundary: its row
    r is V's row r followed by the previous map's row r, its columns
    shifted by t, the rank of the last module; the map below gets t
    zero rows first.  All of it is spliced on integer rows.
    """
    A = R.modules[0].algebra
    ms: List[PresentationMatrix] = list(R.maps)
    while ms:
        last = ms[-1]
        ok, V = is_projective(last)
        if not ok:
            return len(ms)
        if len(ms) == 1:
            return 0
        prev, t = ms[-2], last.rows
        L = FreeModule(A, t + prev.cols)
        psi = [_top_row(L, {(e, j + shift): (n, row.den)
                            for row, shift in ((v, 0), (w, t))
                            for j, col in _by_column(row).items()
                            for e, n in col.items()})
               for v, w in zip(V.int_rows(), prev.int_rows())]
        if len(ms) >= 3:
            below = ms[-3]
            ms[-3] = PresentationMatrix.of_ints(
                A, [_top_row(below.module, {}) for _ in range(t)]
                + below.int_rows(), below.cols)
        ms = ms[:-2] + [PresentationMatrix.of_ints(A, psi, L.rank)]
    return 0


def stably_free_rank(R: Resolution) -> int:
    """Alternating rank sum of a resolution of a projective module."""
    total = 0
    for i, m in enumerate(R.modules):
        total += m.rank if i % 2 == 0 else -m.rank
    return total
