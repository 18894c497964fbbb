"""Graded layer: homogeneous bases, minimal generators, minimal
graded free resolutions.

An algebra is graded by a positive weight vector exactly when every
relation tail is homogeneous of the same weighted degree as the
leading product.  Free modules carry degree shifts, an element is
homogeneous when all of its monomials share the shifted degree, and
the completion loops then run degree by degree: this gives truncated
bases, minimal homogeneous generating sets (an input survives iff it
does not reduce to zero against everything of lower or equal degree
processed before it), and minimal graded resolutions where every
boundary matrix is free of scalar entries.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .coeff import SolvpolyError
from .algebra import DegreeFunction, Poly, SolvableAlgebra, zero_exp
from .modfree import FreeModule, ModOrder, Vect
from .groebner import GroebnerBasis, buchberger, degree_driven_completion
from .syzres import PresentationMatrix, Resolution, _lift_syzygies

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

    def require(self) -> None:
        if not self.graded_ok:
            raise NotGraded(
                "algebra is not graded: " + "; ".join(self.violations)
            )


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


def _require_graded_setup(
    inputs: Sequence[Vect], order: ModOrder
) -> GradedContext:
    if not inputs:
        raise ValueError("need at least one generator")
    A = inputs[0].module.algebra
    ctx = GradedContext(A)
    ctx.require()
    if order.base.degree is None:
        raise NotGraded("the module order carries no degree function")
    _require_homogeneous(inputs)
    return ctx


def truncated_gb(
    inputs: Sequence[Vect], order: ModOrder, n0: int
) -> GroebnerBasis:
    """Degree-truncated left Groebner basis of a graded submodule.

    Every homogeneous element of the submodule of degree <= n0 reduces
    to zero against the result; pairs and inputs above the bound are
    discarded.  A bound below the minimum input degree yields an
    empty basis.
    """
    _require_graded_setup(inputs, order)
    return buchberger(inputs, order, truncate=n0)


def min_homogeneous_gens(
    inputs: Sequence[Vect], order: ModOrder, early_stop: bool = True
) -> Tuple[List[Vect], GroebnerBasis]:
    """Minimal homogeneous generating subset plus a Groebner basis.

    Inputs are consumed in nondecreasing degree, S-vectors of each
    degree first; an input is kept exactly when it fails to reduce to
    zero at its turn.  With ``early_stop`` (default) the completion
    stops after the maximal input degree, which still certifies
    minimality and leaves a basis truncated at that degree, so its
    ``U`` is None; without it the returned basis is a full Groebner
    basis.
    """
    _require_graded_setup(inputs, order)
    n0 = max(
        (order.degree_of(m) for v in inputs for m in v.data), default=None
    )
    basis, V, kept = degree_driven_completion(
        inputs, order, cap=None, early_stop=n0 if early_stop else None
    )
    return [inputs[j] for j in kept], GroebnerBasis(
        inputs[0].module,
        order,
        basis,
        list(inputs),
        V,
        truncation_degree=n0 if early_stop else None,
    )


class QuotientMinimization:
    """Result of eliminating unit-coefficient relations from L/N.

    ``kept`` are the surviving components of the original module,
    ``new_module`` is the pruned free module (None when the quotient is
    zero), ``gens`` the transformed generators inside it, and
    ``eliminations`` records, per dropped component, the relation (in
    original coordinates) that defined it.
    """

    def __init__(
        self,
        module: FreeModule,
        kept: List[int],
        new_module: Optional[FreeModule],
        gens: List[Vect],
        eliminations: List[Tuple[int, Vect]],
    ):
        self.module = module
        self.kept = kept
        self.new_module = new_module
        self.gens = gens
        self.eliminations = eliminations

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
    List[int], Optional[FreeModule], List[Vect], List[Tuple[int, Vect]]
]:
    """Eliminate basis vectors of L through unit pivots of the gens.

    A pivot is a coordinate that is a nonzero scalar and whose component
    shift equals the shifted degree of its generator (on homogeneous
    input every unit coordinate qualifies).  While one exists, the first
    in generator order, then component order, eliminates its basis
    vector from every other generator, and both are dropped.  Returns
    ``(kept, new_module, gens, eliminations)``: the surviving components
    of L, the pruned free module (None when nothing survives), the
    transformed generators inside it, and per dropped component the
    pivot generator in original coordinates.

    The rows stay vectors of L: eliminating with the pivot at component
    i subtracts ``(f * c^-1) * pivot`` from each other row, f its entry
    and c the pivot's at i, which cancels component i exactly.  At the
    end the rows move onto the pruned module by renumbering components.
    """
    A = L.algebra
    unit = zero_exp(A.n)
    work = [v for v in gens if v]
    alive = list(range(L.rank))
    eliminations: List[Tuple[int, Vect]] = []

    def find_pivot() -> Optional[Tuple[int, int]]:
        for j, v in enumerate(work):
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
        pivot = work.pop(j)
        inv = A.field.inverse(pivot.data[(unit, i)])
        eliminations.append((i, pivot))
        work = [
            w
            for w in (v - pivot.lmul(v.component(i).scale(inv)) for v in work)
            if w
        ]
        alive.remove(i)

    if not alive:
        # every basis vector was eliminated: the quotient is zero
        return [], None, [], eliminations
    new_module = FreeModule(
        A, len(alive), shifts=[L.shifts[c] for c in alive]
    )
    reindex = {c: pos for pos, c in enumerate(alive)}
    new_gens = [
        Vect._of(
            new_module, {(e, reindex[c]): x for (e, c), x in v.data.items()}
        )
        for v in work
    ]
    return alive, new_module, new_gens, eliminations


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


def _syzygy_generators_tracked(
    U: Sequence[Vect], order: ModOrder
) -> Tuple[List[Vect], List[Vect], FreeModule]:
    """Minimal generators step: returns (U_min, syzygy generators of
    U_min, the syzygy coordinate module with matching shifts)."""
    basis, (trace, steps), kept = degree_driven_completion(U, order)
    u_min = [U[j] for j in kept]
    # inputs that were not kept reduced to zero, so no step copies them
    trace.select_inputs(kept)
    G = GroebnerBasis(U[0].module, order, basis, u_min, (trace, steps))
    shifts = [vect_degree_if_homogeneous(x) for x in u_min]
    syz_module = FreeModule(
        U[0].module.algebra, max(len(u_min), 1), shifts=shifts or None
    )
    return u_min, _lift_syzygies(G, syz_module), syz_module


def minimal_graded_resolution(
    L0: FreeModule, N_gens: Sequence[Vect]
) -> Resolution:
    """Minimal graded free resolution of M = L0 / <N_gens>.

    First the presentation is pruned of unit-coefficient relations,
    then each stage keeps a minimal homogeneous generating set of the
    current kernel and passes its syzygy generators down; shifts
    propagate as the degrees of the chosen generators.
    """
    A = L0.algebra
    GradedContext(A).require()
    gens = [v for v in N_gens if not v.is_zero()]
    _require_homogeneous(gens)
    provenance = ["minimal homogeneous generators of the quotient"]
    if not gens:
        return Resolution([L0], [], "Graded", provenance, list(N_gens))
    qm = min_gens_quotient(L0, gens)
    if not qm.kept:
        return Resolution(
            [], [], "Graded", provenance, list(N_gens), zero_module=True
        )
    cur_module = qm.new_module
    U = [v for v in qm.gens if not v.is_zero()]
    modules = [cur_module]
    maps: List[PresentationMatrix] = []
    if not U:
        return Resolution(modules, maps, "Graded", provenance, list(N_gens))
    for _ in range(A.n + 2):
        order = _graded_order(cur_module)
        u_min, syz, syz_module = _syzygy_generators_tracked(U, order)
        maps.append(PresentationMatrix.from_vects(u_min, cur_module))
        modules.append(syz_module)
        provenance.append("minimal homogeneous generating set")
        if not syz:
            break
        U = syz
        cur_module = syz_module
    else:
        raise RuntimeError(
            "graded resolution exceeded the generator-count bound"
        )
    return Resolution(modules, maps, "Graded", provenance, list(N_gens))


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
