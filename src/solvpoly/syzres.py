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
that a resolution's maps compose to zero.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .algebra import Poly, SolvableAlgebra, exp_max, exp_sub, reversed_poly
from .modfree import (
    FreeModule,
    ModMonomial,
    ModOrder,
    NotAGroebnerBasis,
    Vect,
    _Divisors,
    _IntSum,
    _row_from_ints,
    _row_to_ints,
    left_divide_module,
    opposite_order,
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

    ``entries[i][j]`` is the e_j-coordinate of the image of the i-th
    basis vector of the source; the map sends a coordinate row
    ``(f_1..f_t)`` to ``(f)Q`` with coefficients kept on the left.
    The column count ``cols`` is read off the rows; a matrix with no
    rows must be given it.
    """

    def __init__(
        self,
        algebra: SolvableAlgebra,
        entries: Sequence[Sequence[Poly]],
        cols: Optional[int] = None,
    ):
        self.algebra = algebra
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        if cols is None:
            if not self.rows:
                raise ValueError("a matrix with no rows needs its width")
            cols = len(self.entries[0])
        self.cols = cols
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def from_vects(cls, vects: Sequence[Vect], module: FreeModule):
        return cls(module.algebra, [v.to_polys() for v in vects], module.rank)

    def row_vect(self, i: int, target: FreeModule) -> Vect:
        return target.from_polys(self.entries[i])

    def compose_with(self, nxt: "PresentationMatrix") -> "PresentationMatrix":
        """Matrix of (self then nxt): the ordinary product self * nxt.

        Each row of ``nxt`` is converted to integer form once, and each
        output row is summed in one :class:`solvpoly.modfree._IntSum`
        and converted back once.
        """
        if self.cols != nxt.rows:
            raise ValueError("dimension mismatch in composition")
        A = self.algebra
        rows = [_row_to_ints(row) for row in nxt.entries]
        acc = _IntSum(A)
        out = []
        for row in self.entries:
            acc.start()
            for f, v in zip(row, rows):
                if f:
                    acc.add_lmul(1, f, v)
            out.append(_row_from_ints(A, *acc.finish(), nxt.cols))
        return PresentationMatrix(A, out, nxt.cols)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __repr__(self):
        return "PresentationMatrix(%dx%d)" % (self.rows, self.cols)


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
        S = PresentationMatrix(
            self.module.algebra,
            [s.to_polys() for s in self.elements],
            len(self.targets),
        )
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


def _schreyer_lead(
    lms: Sequence[ModMonomial], i: int, j: int, syz_order: ModOrder
) -> ModMonomial:
    """Leading monomial of the Schreyer row of pair (i, j), known before
    any division: the larger of (gamma - alpha_i, i) and
    (gamma - alpha_j, j).  Both map to gamma; every quotient term maps
    below it.
    """
    gamma = exp_max(lms[i][0], lms[j][0])
    return max(
        (exp_sub(gamma, lms[i][0]), i),
        (exp_sub(gamma, lms[j][0]), j),
        key=syz_order.key,
    )


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
    as its lead cannot cancel.
    """
    A = syz_module.algebra
    t = len(elements)
    divisors = _Divisors.of(elements, order)
    lms = divisors.leads
    pairs = [
        (i, j)
        for i in range(t)
        for j in range(i + 1, t)
        if lms[i][1] == lms[j][1]
    ]
    leads = [_schreyer_lead(lms, i, j, syz_order) for i, j in pairs]
    rows: List[Vect] = []
    for k in _minimal_indices(leads, syz_order):
        i, j = pairs[k]
        S, ci, expi, cj, expj, _, _ = _spair_data(
            elements[i], elements[j], order
        )
        if S.is_zero():
            quotients: List[Poly] = [A.zero()] * t
        else:
            quotients, rem = left_divide_module(S, divisors, order)
            if not rem.is_zero():
                raise NotAGroebnerBasis(
                    "an S-vector does not reduce to zero; the input "
                    "is not a left Groebner basis"
                )
        coords = list(quotients)
        coords[i] = coords[i] - A.monomial(expi, ci)
        coords[j] = coords[j] + A.monomial(expj, cj)
        rows.append(syz_module.from_polys(coords))
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
    m, t = len(G.inputs), len(G.elements)
    S = [s.to_polys() for s in syzygy_of_gb(G).elements]
    rows = PresentationMatrix(A, S + G.U, t).compose_with(
        PresentationMatrix(A, G.V, m)
    ).entries
    for i, row in enumerate(rows[len(rows) - m:]):
        row[i] = row[i] - A.one()
    lifted = [out_module.from_polys(coords) for coords in rows]
    return [v for v in lifted if not v.is_zero()]


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
    relations.  When the submodule is all of L0, that basis has one
    lead e_i per component, and the splice leaves the free module of
    rank 0: the zero module.
    """
    A = L0.algebra
    if order is None:
        order = ModOrder("top", A.order, L0.rank, shifts=L0.shifts)
    gens = [v for v in N_gens if not v.is_zero()]
    if not gens:
        return Resolution([L0], [])
    G = minimalize(buchberger(gens, order))
    modules = [L0]
    maps: List[PresentationMatrix] = []
    cur_module = L0
    cur_order = order
    elements = _ascending_exponent_sort(G.elements, cur_order)
    n = A.n
    for _ in range(n + 2):
        lms = [g.lm(cur_order) for g in elements]
        if all(all(x == 0 for x in exp) for exp, _ in lms):
            # distinct pure basis-vector leads: the kernel one step up
            # is free on the leftover components, so splice instead of
            # appending another stage (this is what keeps length <= n)
            pivot = {comp for _, comp in lms}
            nonpivot = [c for c in range(cur_module.rank) if c not in pivot]
            shifts = [cur_module.shifts[c] for c in nonpivot]
            F = FreeModule(A, len(nonpivot), shifts=shifts)
            if not maps:
                # M itself is free on the leftover components (none when
                # N = L0: the zero module)
                modules = [F]
            else:
                prev = maps.pop()
                modules.pop()
                maps.append(
                    PresentationMatrix(
                        A, [prev.entries[c] for c in nonpivot], prev.cols
                    )
                )
                modules.append(F)
            break
        t = len(elements)
        shifts = [cur_order.degree_of(m) for m in lms]
        nxt_module = FreeModule(A, t, shifts=shifts)
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
) -> Tuple[bool, Optional[List[List[Poly]]]]:
    """Right-invertibility test of a presentation matrix.

    ``Q`` (t x s) presents M as the cokernel of an injective map.  M
    is projective exactly when the right submodule generated by the
    columns of Q contains every basis vector; in that case a right
    inverse V (s x t) with Q V = E is assembled from the right
    division quotients and returned.

    It all runs over ``A.opposite()``, where right multiples are left
    ones: the reversed columns are completed once, each e_k is divided
    by that basis, and phi(V) = quotients * V_op is one product over
    the rows of V_op that a nonzero quotient reads.
    """
    A = Q.algebra
    t, s = Q.rows, Q.cols
    if t == 0:
        return True, []
    op = A.opposite()
    module = FreeModule(op, t)
    order = opposite_order(ModOrder("top", A.order, t))
    columns: List[Vect] = []
    col_index: List[int] = []
    for j in range(s):
        v = module.from_polys([reversed_poly(row[j], op) for row in Q.entries])
        if not v.is_zero():
            columns.append(v)
            col_index.append(j)
    if not columns:
        return False, None
    G = buchberger(columns, order)
    quotients = []
    for k in range(t):
        qs, rem = left_divide_module(module.basis(k), G.elements, order)
        if not rem.is_zero():
            return False, None
        quotients.append(qs)
    used = sorted({g for qs in quotients for g, q in enumerate(qs) if q})
    W = PresentationMatrix(
        op, [[qs[g] for g in used] for qs in quotients], len(used)
    ).compose_with(PresentationMatrix(op, G.V_rows(used), len(columns)))
    V = [[A.zero() for _ in range(t)] for _ in range(s)]
    for k, row in enumerate(W.entries):
        for f, j in zip(row, col_index):
            V[j][k] = reversed_poly(f, A)
    return True, V


def projective_dimension(R: Resolution) -> int:
    """Least resolution length over the shortening procedure.

    Walks from the tail: while the last matrix is right invertible,
    splice the last module into the one two steps down (the spliced
    map pairs the right inverse with the previous boundary) and
    retry; the first non-invertible tail fixes the dimension.
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
        prev = ms[-2]
        psi_entries = [
            V[r] + prev.entries[r]
            for r in range(prev.rows)
        ]
        psi = PresentationMatrix(A, psi_entries, last.rows + prev.cols)
        if len(ms) >= 3:
            below = ms[-3]
            zero_rows = [
                [A.zero() for _ in range(below.cols)] for _ in range(last.rows)
            ]
            ms[-3] = PresentationMatrix(
                A, zero_rows + below.entries, below.cols
            )
        ms = ms[:-2] + [psi]
    return 0


def stably_free_rank(R: Resolution) -> int:
    """Alternating rank sum of a resolution of a projective module."""
    total = 0
    for i, m in enumerate(R.modules):
        total += m.rank if i % 2 == 0 else -m.rank
    return total
