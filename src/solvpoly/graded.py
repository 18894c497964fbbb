"""Graded layer: homogeneous bases, minimal generators, minimal
graded free resolutions.

An algebra is graded by a positive weight vector exactly when every
relation tail is homogeneous of the same weighted degree as the
leading product.  Free modules carry degree shifts, an element is
homogeneous when all of its monomials share the shifted degree, and
the completion loops then run degree by degree: this gives truncated
bases and minimal homogeneous generating sets (an input survives iff it
does not reduce to zero against everything of lower or equal degree
processed before it).

A minimal graded resolution (no scalar entry in any boundary matrix)
is the Schreyer resolution under the graded order with its scalar
entries cancelled from the top map down (La Scala--Stillman, JSC 26,
1998; Erocal--Motsak--Schreyer--Steenpass, JSC 74, 2016).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .coeff import SolvpolyError
from .algebra import DegreeFunction, Poly, SolvableAlgebra, zero_exp
from .modfree import FreeModule, ModOrder, Vect
from .groebner import GroebnerBasis, degree_driven_completion
from .syzres import PresentationMatrix, Resolution, free_resolution

__all__ = [
    "NotGraded",
    "InhomogeneousInput",
    "GradedContext",
    "GradedElementView",
    "check_graded",
    "graded_view",
    "truncated_gb",
    "min_homogeneous_gens",
    "min_gens_quotient",
    "QuotientMinimization",
    "minimal_graded_resolution",
    "betti_table",
    "scalar_entry_positions",
]


class NotGraded(SolvpolyError):
    """The algebra (or requested context) is not graded."""


class InhomogeneousInput(SolvpolyError):
    """An operation requiring homogeneous elements got a mixed one."""


def check_graded(
    algebra: SolvableAlgebra, degree: Optional[DegreeFunction] = None
) -> Tuple[bool, List[str]]:
    """Is the algebra graded by the weight vector?

    True iff every relation tail monomial has weighted degree equal to
    the degree of the leading product; the report lists violations.
    """
    d = degree or algebra.degree_function
    if d is None:
        return False, ["no degree function attached to the algebra"]
    violations: List[str] = []
    for rel in algebra.relations.values():
        target = d.weights[rel.i] + d.weights[rel.j]
        for exp, _c in rel.tail.terms:
            got = d(exp)
            if got != target:
                violations.append(
                    "relation %s*%s: tail term of degree %d, expected %d"
                    % (
                        algebra.names[rel.j],
                        algebra.names[rel.i],
                        got,
                        target,
                    )
                )
    return not violations, violations


class GradedContext:
    """Grading data for an algebra plus the verdict of the check."""

    def __init__(
        self, algebra: SolvableAlgebra, degree: Optional[DegreeFunction] = None
    ):
        self.algebra = algebra
        self.degree = degree or algebra.degree_function
        self.graded_ok, self.violations = check_graded(algebra, self.degree)

    def require(self, order: Optional[ModOrder] = None) -> None:
        """Refuse an algebra that is not graded and, when given, a module
        order with no degree function."""
        if not self.graded_ok:
            raise NotGraded(
                "algebra is not graded: " + "; ".join(self.violations)
            )
        if order is not None and order.base.degree is None:
            raise NotGraded("the module order carries no degree function")


class GradedElementView:
    """A homogeneous element together with its degree."""

    def __init__(self, element: Union[Poly, Vect], gr_degree: int):
        self.element = element
        self.gr_degree = gr_degree

    def __repr__(self):
        return "GradedElementView(deg=%d, %s)" % (
            self.gr_degree,
            self.element,
        )


def poly_degree_if_homogeneous(f: Poly, d: DegreeFunction) -> Optional[int]:
    degs = {d(exp) for exp, _ in f.terms}
    if len(degs) != 1:
        return None
    return degs.pop()


def vect_degree_if_homogeneous(v: Vect) -> Optional[int]:
    degs = {v.module.mono_degree(m) for m in v.data}
    if len(degs) != 1:
        return None
    return degs.pop()


def graded_view(x: Union[Poly, Vect]) -> GradedElementView:
    """Wrap a homogeneous element; reject inhomogeneous ones."""
    if isinstance(x, Vect):
        if x.is_zero():
            raise InhomogeneousInput("the zero element has no degree")
        deg = vect_degree_if_homogeneous(x)
    else:
        if x.is_zero():
            raise InhomogeneousInput("the zero element has no degree")
        d = x.algebra.degree_function
        if d is None:
            raise NotGraded("no degree function attached to the algebra")
        deg = poly_degree_if_homogeneous(x, d)
    if deg is None:
        raise InhomogeneousInput("element is not homogeneous: %s" % (x,))
    return GradedElementView(x, deg)


def _require_homogeneous(inputs: Sequence[Vect]) -> None:
    """Refuse the first nonzero input that is not homogeneous."""
    for v in inputs:
        if v and vect_degree_if_homogeneous(v) is None:
            raise InhomogeneousInput(
                "generator is not homogeneous: %s" % (v,)
            )


def _require_graded_setup(inputs: Sequence[Vect], order: ModOrder) -> None:
    if not inputs:
        raise ValueError("need at least one generator")
    GradedContext(inputs[0].module.algebra).require(order)
    _require_homogeneous(inputs)


def truncated_gb(
    inputs: Sequence[Vect], order: ModOrder, n0: int
) -> GroebnerBasis:
    """Degree-truncated left Groebner basis of a graded submodule.

    Every homogeneous element of the submodule of degree <= n0 reduces
    to zero against the result; pairs and inputs above the bound are
    discarded (:func:`solvpoly.groebner.degree_driven_completion` with
    ``cap=n0``).  A bound below the minimum input degree yields an
    empty basis.  The result carries ``truncation_degree=n0`` and no
    ``U`` matrix.
    """
    _require_graded_setup(inputs, order)
    basis, V, _ = degree_driven_completion(inputs, order, cap=n0)
    return GroebnerBasis(
        inputs[0].module, order, basis, list(inputs), V,
        truncation_degree=n0,
    )


def min_homogeneous_gens(
    inputs: Sequence[Vect], order: ModOrder
) -> Tuple[List[Vect], GroebnerBasis]:
    """Minimal homogeneous generating subset plus a Groebner basis.

    Inputs are consumed in nondecreasing degree, S-vectors of each
    degree first; an input is kept exactly when it fails to reduce to
    zero at its turn.  The completion stops after the maximal input
    degree, which still certifies minimality and leaves a basis
    truncated at that degree, so its ``U`` is None.
    """
    _require_graded_setup(inputs, order)
    n0 = max(
        (order.degree_of(m) for v in inputs for m in v.data), default=None
    )
    basis, V, kept = degree_driven_completion(inputs, order, cap=n0)
    return [inputs[j] for j in kept], GroebnerBasis(
        inputs[0].module, order, basis, list(inputs), V,
        truncation_degree=n0,
    )


class QuotientMinimization:
    """Result of eliminating unit-coefficient relations from L/N.

    ``kept`` are the surviving components of the original module,
    ``new_module`` is the pruned free module (of rank 0 when the
    quotient is zero), ``gens`` the transformed generators inside it, and
    ``eliminations`` records, per dropped component, the relation (in
    original coordinates) that defined it, and ``pivots`` the index of
    that relation among the inputs.
    """

    def __init__(
        self,
        module: FreeModule,
        kept: List[int],
        new_module: FreeModule,
        gens: List[Vect],
        eliminations: List[Tuple[int, Vect]],
        pivots: List[int],
    ):
        self.module = module
        self.kept = kept
        self.new_module = new_module
        self.gens = gens
        self.eliminations = eliminations
        self.pivots = pivots

    def __repr__(self):
        return "%s(kept=%r, %d gens)" % (
            type(self).__name__,
            self.kept,
            len(self.gens),
        )


def min_gens_quotient(
    L: FreeModule, inputs: Sequence[Vect]
) -> QuotientMinimization:
    """Minimal homogeneous generators of the quotient L / <inputs>.

    While some generator has a unit (nonzero scalar) coordinate, use
    it to eliminate that basis vector from all other generators and
    drop both (:func:`prune_unit_pivots`); the surviving basis vectors
    map onto a minimal generating set of the quotient.
    """
    GradedContext(L.algebra).require()
    _require_homogeneous(inputs)
    return QuotientMinimization(L, *prune_unit_pivots(L, inputs))


def prune_unit_pivots(L: FreeModule, gens: Sequence[Vect]) -> Tuple[
    List[int], FreeModule, List[Vect], List[Tuple[int, Vect]], List[int],
]:
    """Eliminate basis vectors of L through unit pivots of the gens.

    A pivot is a coordinate that is a nonzero scalar and whose component
    shift equals the shifted degree of its generator (on homogeneous
    input every unit coordinate qualifies).  While one exists, the first
    in generator order, then component order, eliminates its basis
    vector from every other generator, and both are dropped.  Returns
    ``(kept, new_module, gens, eliminations, pivots)``: the surviving
    components of L, the pruned free module (of rank 0 when nothing
    survives: the quotient is zero), the transformed generators inside
    it (zero ones dropped), per dropped component the pivot generator in
    original coordinates, and the index in ``gens`` of each pivot
    generator.

    The rows stay vectors of L: eliminating with the pivot at component
    i subtracts ``(f * c^-1) * pivot`` from each other row, f its entry
    and c the pivot's at i, which cancels component i exactly.  At the
    end the rows move onto the pruned module by renumbering components.
    """
    A = L.algebra
    unit = zero_exp(A.n)
    work = [(k, v) for k, v in enumerate(gens) if v]
    alive = list(range(L.rank))
    eliminations: List[Tuple[int, Vect]] = []
    pivots: List[int] = []

    def find_pivot() -> Optional[Tuple[int, int]]:
        for j, (_, v) in enumerate(work):
            qj = max(L.mono_degree(m) for m in v.data)
            count = Counter(c for _, c in v.data)
            for i in sorted(count):
                if (
                    count[i] == 1
                    and (unit, i) in v.data
                    and L.shifts[i] == qj
                ):
                    return i, j
        return None

    while True:
        hit = find_pivot()
        if hit is None:
            break
        i, j = hit
        k, pivot = work.pop(j)
        inv = A.field.inverse(pivot.data[(unit, i)])
        eliminations.append((i, pivot))
        pivots.append(k)
        work = [
            (k, v - pivot.lmul(v.component(i).scale(inv))) for k, v in work
        ]
        work = [(k, v) for k, v in work if v]
        alive.remove(i)

    new_module = FreeModule(
        A, len(alive), shifts=[L.shifts[c] for c in alive]
    )
    reindex = {c: pos for pos, c in enumerate(alive)}
    new_gens = [
        Vect._of(
            new_module, {(e, reindex[c]): x for (e, c), x in v.data.items()}
        )
        for _, v in work
    ]
    return alive, new_module, new_gens, eliminations, pivots


# ---------------------------------------------------------------------------
# minimal graded free resolutions
# ---------------------------------------------------------------------------


def _graded_order(module: FreeModule) -> ModOrder:
    """The shifted-degree-first TOP order on a graded or filtered free
    module."""
    return ModOrder(
        "top",
        module.algebra.order,
        module.rank,
        graded=True,
        shifts=module.shifts,
    )


def _cancel_scalar_entries(
    modules: List[FreeModule], maps: Sequence[PresentationMatrix]
) -> Tuple[List[FreeModule], List[PresentationMatrix]]:
    """Cancel the scalar entries of an exact graded or filtered chain,
    from the top map down.

    A unit u at (r, c) of map i splits off ``e_r -> u e_c + ..``:
    :func:`prune_unit_pivots` on the rows of map i subtracts
    ``(f * u^-1) * row r`` from each other row with entry f in column c
    and drops row r and column c; column r of map i+1 and row c of map
    i-1 go too.  Map i+1 is free of pivots by then, so no row of map i
    becomes zero.  A top module left with no basis vector is trimmed;
    the bottom one stays, of rank 0 when the quotient is zero.

    The chain is a Schreyer frame under the shifted-degree-first order,
    so on filtered (inhomogeneous) input every leading monomial lies in
    the top filtration degree of its element and every basis vector is
    shifted by the degree of the row it maps to: sigma of the frame is
    the Schreyer frame of sigma(standard basis) over gr A, and the frame
    is strict.  A pivot is a unit whose column shift equals its row's
    filtration degree, so each cancellation subtracts multiples of degree
    at most that of the row it changes and stays inside the filtration;
    units below the top filtration degree are not pivots and stay.
    """
    A = modules[0].algebra
    modules, rows = list(modules), [m.entries for m in maps]
    for i in reversed(range(len(rows))):
        vects = [modules[i].from_polys(row) for row in rows[i]]
        alive, modules[i], left, _, pivots = prune_unit_pivots(
            modules[i], vects
        )
        stay = [r for r in range(len(vects)) if r not in pivots]
        shifts = [modules[i + 1].shifts[r] for r in stay]
        modules[i + 1] = FreeModule(A, len(stay), shifts)
        rows[i] = [v.to_polys() for v in left]
        if i + 1 < len(rows):
            rows[i + 1] = [[row[r] for r in stay] for row in rows[i + 1]]
        if i:
            rows[i - 1] = [rows[i - 1][c] for c in alive]
    while len(modules) > 1 and not modules[-1].rank:
        modules.pop()
        rows.pop()
    return modules, [
        PresentationMatrix(A, r, modules[i].rank) for i, r in enumerate(rows)
    ]


def _schreyer_frame(qm: QuotientMinimization) -> Resolution:
    """The Schreyer resolution of a pruned presentation under the graded
    order (:func:`solvpoly.syzres.free_resolution`)."""
    L = qm.new_module
    return free_resolution(L, qm.gens, _graded_order(L))


def _minimal_resolution(frame: Resolution, flavor: str) -> Resolution:
    """A Schreyer frame with its scalar entries cancelled
    (:func:`_cancel_scalar_entries`)."""
    return Resolution(
        *_cancel_scalar_entries(frame.modules, frame.maps), flavor
    )


def minimal_graded_resolution(
    L0: FreeModule, N_gens: Sequence[Vect]
) -> Resolution:
    """Minimal graded free resolution of M = L0 / <N_gens>.

    The presentation is pruned of unit-coefficient relations
    (:func:`min_gens_quotient`), its Schreyer resolution under the
    graded order is built (:func:`_schreyer_frame`) and the scalar
    entries of that frame are cancelled (:func:`_minimal_resolution`).
    """
    return _minimal_resolution(
        _schreyer_frame(min_gens_quotient(L0, N_gens)), "Graded"
    )


def betti_table(R: Resolution) -> Dict[int, Dict[int, int]]:
    """Position -> (shift degree -> multiplicity) for a graded chain."""
    out: Dict[int, Dict[int, int]] = {}
    if R.zero_module:
        return out
    for pos, module in enumerate(R.modules):
        row: Dict[int, int] = {}
        for s in module.shifts:
            row[s] = row.get(s, 0) + 1
        out[pos] = row
    return out


def scalar_entry_positions(R: Resolution) -> List[Tuple[int, int, int]]:
    """Positions (map index, row, column) of nonzero scalar entries.

    A minimal chain has none: a scalar entry means a basis vector maps
    onto another one and both could be cancelled.
    """
    hits: List[Tuple[int, int, int]] = []
    for k, mat in enumerate(R.maps):
        for i, row in enumerate(mat.entries):
            for j, f in enumerate(row):
                if f.is_zero():
                    continue
                if len(f.terms) == 1 and all(x == 0 for x in f.terms[0][0]):
                    hits.append((k, i, j))
    return hits
