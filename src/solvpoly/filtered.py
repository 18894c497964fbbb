"""Filtration layer: associated graded and Rees transfers.

The base algebra must carry a weighted-degree (grlex) order, so the
filtration degree of an element can be read off its leading monomial.
Two companion algebras are materialized as ordinary solvable algebras:
the associated graded algebra keeps only the top-degree tail terms of
each commutation relation, and the Rees algebra pads every tail with a
central degree-one homogenizing generator, making all relations
homogeneous.  The maps between the three worlds (top-degree part,
homogenization, the two dehomogenizations) are plain exponent
rewrites, so Groebner computations transfer back and forth exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .coeff import SolvpolyError
from .algebra import (
    DegreeFunction,
    ExpVec,
    MonomialOrder,
    Poly,
    SolvableAlgebra,
    exp_divides,
    exps_within,
)
from .modfree import (
    FreeModule,
    IncompatibleModules,
    ModMonomial,
    ModOrder,
    Vect,
    _Divisors,
    _IntVect,
    left_divide_module,
    mono_divides,
)
from .groebner import NonGradedOrder, buchberger
from .graded import (
    QuotientMinimization,
    _graded_order,
    _minimal_resolution,
    _schreyer_frame,
    check_graded,
    prune_unit_pivots,
)
from .syzres import PresentationMatrix, Resolution

__all__ = [
    "NotGradedOrder",
    "ZeroElement",
    "DegreeTooSmall",
    "FiltrationContext",
    "AssociatedGraded",
    "ReesAlgebra",
    "ReesModOrder",
    "fil_degree",
    "associated_graded",
    "rees",
    "sigma",
    "tilde",
    "homogenize_to",
    "dehomogenize",
    "z_zero_image",
    "TransferReport",
    "transfer_check",
    "minimal_F_basis",
    "minimal_filtered_resolution",
    "sigma_resolution",
]

Element = Union[Poly, Vect]


class NotGradedOrder(NonGradedOrder):
    """Filtration machinery requires a weighted-degree ring order."""


class ZeroElement(SolvpolyError):
    """The zero element has no filtration degree or top part."""


class DegreeTooSmall(SolvpolyError):
    """Homogenization target degree below the filtration degree."""


# ---------------------------------------------------------------------------
# context and degree bookkeeping
# ---------------------------------------------------------------------------


class FiltrationContext:
    """Filtration of an algebra by its weighted-degree function.

    F_p A is the span of monomials of weighted degree at most p; free
    modules carry the shifted variant through their ``shifts``.  The
    context caches the associated graded algebra and the Rees algebra
    so module elements mapped over land in compatible parents.
    """

    def __init__(self, algebra: SolvableAlgebra):
        if algebra.order.kind != "grlex" or algebra.degree_function is None:
            raise NotGradedOrder(
                "filtration requires a weighted-degree (grlex) ring order"
            )
        self.algebra = algebra
        self.degree = algebra.degree_function
        self._graded: Optional[AssociatedGraded] = None
        self._rees: Optional[ReesAlgebra] = None

    def graded(self) -> "AssociatedGraded":
        if self._graded is None:
            self._graded = _build_associated_graded(self)
        return self._graded

    def rees(self) -> "ReesAlgebra":
        if self._rees is None:
            self._rees = _build_rees(self)
        return self._rees

    def graded_module(self, module: FreeModule) -> FreeModule:
        """The free module over the associated graded algebra with the
        same rank and shifts."""
        return FreeModule(self.graded().algebra, module.rank, module.shifts)

    def rees_module(self, module: FreeModule) -> FreeModule:
        return FreeModule(self.rees().algebra, module.rank, module.shifts)

    def __repr__(self):
        return "FiltrationContext(%r)" % (list(self.degree.weights),)


def _require_context_algebra(ctx: FiltrationContext, module: FreeModule):
    """Refuse a free module over another algebra than the context's."""
    if module.algebra is not ctx.algebra:
        raise IncompatibleModules(
            "module lives over a different algebra than the context"
        )


def fil_degree(ctx: FiltrationContext, xi: Element) -> int:
    """Filtration degree: the largest shifted weighted degree of a
    monomial occurring in a nonzero element."""
    if isinstance(xi, Poly):
        if xi.is_zero():
            raise ZeroElement("the zero element has no filtration degree")
        return max(ctx.degree(exp) for exp, _c in xi.terms)
    if xi.is_zero():
        raise ZeroElement("the zero element has no filtration degree")
    return xi.module.degree(xi)


# ---------------------------------------------------------------------------
# the two companion algebras
# ---------------------------------------------------------------------------


class AssociatedGraded:
    """The associated graded algebra of a filtered solvable algebra.

    Generators mirror the source generators; each relation keeps only
    the tail terms of full degree d(a_i) + d(a_j).
    """

    def __init__(self, algebra: SolvableAlgebra, source: SolvableAlgebra):
        self.algebra = algebra
        self.source = source

    def __repr__(self):
        return "AssociatedGraded(%s)" % (", ".join(self.algebra.names),)


class ReesAlgebra:
    """The Rees algebra: one extra central generator of degree one.

    Relation tails are padded with powers of the homogenizing
    generator so every relation becomes homogeneous under the extended
    degree function.
    """

    def __init__(
        self, algebra: SolvableAlgebra, source: SolvableAlgebra, z_name: str
    ):
        self.algebra = algebra
        self.source = source
        self.z_name = z_name
        self.z_index = algebra.n - 1

    def z(self) -> Poly:
        """The central homogenizing generator as a ring element."""
        return self.algebra.gen(self.z_index)

    def __repr__(self):
        return "ReesAlgebra(%s)" % (", ".join(self.algebra.names),)


def associated_graded(ctx: FiltrationContext) -> AssociatedGraded:
    """The associated graded algebra of the context's filtration.

    Cached on the context: repeated calls return the same companion,
    so elements produced by the symbol maps stay comparable.
    """
    return ctx.graded()


def rees(ctx: FiltrationContext) -> ReesAlgebra:
    """The Rees algebra of the context's filtration (cached alike)."""
    return ctx.rees()


def _build_associated_graded(ctx: FiltrationContext) -> AssociatedGraded:
    A = ctx.algebra
    d = ctx.degree
    rels = []
    for (j, i), rel in sorted(A.relations.items()):
        q = d.weights[i] + d.weights[j]
        top = [(exp, c) for exp, c in rel.tail.terms if d(exp) == q]
        rels.append((j, i, rel.lam, top))
    G = SolvableAlgebra(A.field, A.names, A.order, rels, A.degree_function)
    ok, violations = check_graded(G)
    if not ok:
        raise SolvpolyError(
            "internal: associated graded algebra is not graded: %r"
            % (violations,)
        )
    return AssociatedGraded(G, A)


def _build_rees(ctx: FiltrationContext) -> ReesAlgebra:
    A = ctx.algebra
    d = ctx.degree
    n = A.n
    z_name = "Z"
    while z_name in A.names:
        z_name = z_name + "_"
    names = tuple(A.names) + (z_name,)
    order = MonomialOrder(
        "grlexz", n + 1, priority=tuple(A.order.priority) + (n,), degree=d
    )
    extended = DegreeFunction(tuple(d.weights) + (1,))
    rels = []
    for (j, i), rel in sorted(A.relations.items()):
        q = d.weights[i] + d.weights[j]
        tail = [(exp + (q - d(exp),), c) for exp, c in rel.tail.terms]
        rels.append((j, i, rel.lam, tail))
    # the homogenizing generator commutes with everything (constructor
    # default for the unlisted pairs)
    R = SolvableAlgebra(A.field, names, order, rels, extended)
    ok, violations = check_graded(R)
    if not ok:
        raise SolvpolyError(
            "internal: Rees algebra is not graded: %r" % (violations,)
        )
    return ReesAlgebra(R, A, z_name)


# ---------------------------------------------------------------------------
# the maps between the three worlds
# ---------------------------------------------------------------------------


def sigma(ctx: FiltrationContext, xi: Element) -> Element:
    """Top filtration-degree part, as an element over the associated
    graded algebra (or its free module)."""
    G = ctx.graded().algebra
    if isinstance(xi, Poly):
        p = fil_degree(ctx, xi)
        return Poly(G, [(exp, c) for exp, c in xi.terms if ctx.degree(exp) == p])
    if xi.is_zero():
        raise ZeroElement("the zero element has no top part")
    module = xi.module
    p = module.degree(xi)
    target = ctx.graded_module(module)
    data = {
        m: c for m, c in xi.data.items() if module.mono_degree(m) == p
    }
    return Vect(target, data)


def _homogenized(ctx: FiltrationContext, xi: Element, q: int) -> Element:
    R = ctx.rees().algebra
    if isinstance(xi, Poly):
        return Poly(
            R, [(exp + (q - ctx.degree(exp),), c) for exp, c in xi.terms]
        )
    module = xi.module
    target = ctx.rees_module(module)
    data = {}
    for (exp, comp), c in xi.data.items():
        data[(exp + (q - module.mono_degree((exp, comp)),), comp)] = c
    return Vect(target, data)


def tilde(ctx: FiltrationContext, xi: Element) -> Element:
    """Homogenization into the Rees algebra at the element's own
    filtration degree; setting the homogenizing generator to one
    recovers the element exactly."""
    return _homogenized(ctx, xi, fil_degree(ctx, xi))


def homogenize_to(ctx: FiltrationContext, xi: Element, q: int) -> Element:
    """Homogenization into degree q >= fil_degree(xi)."""
    p = fil_degree(ctx, xi)
    if q < p:
        raise DegreeTooSmall(
            "target degree %d below filtration degree %d" % (q, p)
        )
    return _homogenized(ctx, xi, q)


def dehomogenize(ctx: FiltrationContext, h: Element) -> Element:
    """Set the homogenizing generator to one, landing back in the
    filtered algebra (or its free module)."""
    A = ctx.algebra
    if isinstance(h, Poly):
        return Poly(A, [(exp[:-1], c) for exp, c in h.terms])
    target = FreeModule(A, h.module.rank, h.module.shifts)
    items = [((exp[:-1], comp), c) for (exp, comp), c in h.data.items()]
    return Vect(target, items)


def z_zero_image(ctx: FiltrationContext, h: Element) -> Element:
    """Set the homogenizing generator to zero: the canonical image in
    the associated graded world."""
    G = ctx.graded().algebra
    if isinstance(h, Poly):
        return Poly(
            G, [(exp[:-1], c) for exp, c in h.terms if exp[-1] == 0]
        )
    target = FreeModule(G, h.module.rank, h.module.shifts)
    items = [
        ((exp[:-1], comp), c)
        for (exp, comp), c in h.data.items()
        if exp[-1] == 0
    ]
    return Vect(target, items)


# ---------------------------------------------------------------------------
# module orders
# ---------------------------------------------------------------------------


class ReesModOrder(ModOrder):
    """Module order on a Rees free module.

    Compares the dehomogenized bodies first (shifted degree, then the
    ring order, then the component) and breaks remaining ties by the
    homogenizing exponent, smaller power smaller.  Not a graded order,
    but a left monomial order compatible with homogenization: the
    leading monomial of a homogenized element is the homogenized
    leading monomial.
    """

    def __init__(
        self,
        base: MonomialOrder,
        rank: int,
        shifts: Optional[Sequence[int]] = None,
        component_priority: Optional[Sequence[int]] = None,
    ):
        if base.kind != "grlexz":
            raise ValueError("ReesModOrder needs a homogenized ring order")
        ModOrder.__init__(
            self,
            "top",
            base,
            rank,
            component_priority=component_priority,
            shifts=shifts,
        )

    def _key(self, mono: ModMonomial):
        exp, comp = mono
        body_degree, *body_sig, z = self.base.key(exp)
        return (
            body_degree + self.shifts[comp],
            body_degree,
            *body_sig,
            self._comp_rank[comp],
            z,
        )


def _rees_order(ctx: FiltrationContext, module: FreeModule) -> ReesModOrder:
    return ReesModOrder(
        ctx.rees().algebra.order, module.rank, shifts=module.shifts
    )


# ---------------------------------------------------------------------------
# transfer of the Groebner property
# ---------------------------------------------------------------------------


class TransferReport:
    """Verdicts of the three-world Groebner-basis test."""

    def __init__(self, in_algebra: bool, in_graded: bool, in_rees: bool):
        self.in_algebra = in_algebra
        self.in_graded = in_graded
        self.in_rees = in_rees

    def as_tuple(self) -> Tuple[bool, bool, bool]:
        return (self.in_algebra, self.in_graded, self.in_rees)

    def agree(self) -> bool:
        return self.in_algebra == self.in_graded == self.in_rees

    def __repr__(self):
        return "TransferReport%r" % (self.as_tuple(),)


def _covered(lms, elements: Sequence[Vect], order: ModOrder) -> bool:
    """Every element's leading monomial is a multiple of an input's."""
    for g in elements:
        m = g.lm(order)
        if not any(mono_divides(lead, m) for lead in lms):
            return False
    return True


def _all_reduce_to_zero(
    members: Sequence[Vect], basis: Sequence[Vect], order: ModOrder
) -> bool:
    basis = _Divisors.of(basis, order)
    for xi in members:
        _q, rem = left_divide_module(xi, basis, order)
        if not rem.is_zero():
            return False
    return True


def transfer_check(
    ctx: FiltrationContext, gens: Sequence[Vect]
) -> TransferReport:
    """Test the Groebner property in the algebra, in its associated
    graded algebra, and in its Rees algebra.

    The three runs are independent completions.  The submodule on the
    graded (resp. Rees) side is generated by the top parts (resp.
    homogenizations) of a completed basis from the filtered side, so
    each verdict asserts the basis property against the full
    associated module, not merely the span of the mapped generators.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return TransferReport(True, True, True)
    module = gens[0].module
    _require_context_algebra(ctx, module)
    order = _graded_order(module)
    completed = buchberger(gens, order)
    lms = [g.lm(order) for g in gens]
    in_algebra = _covered(lms, completed.elements, order)

    graded_gens = [sigma(ctx, g) for g in gens]
    graded_full = [sigma(ctx, h) for h in completed.elements]
    gorder = _graded_order(graded_gens[0].module)
    graded_completed = buchberger(graded_gens, gorder)
    glms = [g.lm(gorder) for g in graded_gens]
    in_graded = _covered(
        glms, graded_completed.elements, gorder
    ) and _all_reduce_to_zero(graded_full, graded_completed.elements, gorder)

    rees_gens = [tilde(ctx, g) for g in gens]
    rees_full = [tilde(ctx, h) for h in completed.elements]
    rorder = _rees_order(ctx, module)
    rees_completed = buchberger(rees_gens, rorder)
    rlms = [g.lm(rorder) for g in rees_gens]
    in_rees = _covered(
        rlms, rees_completed.elements, rorder
    ) and _all_reduce_to_zero(rees_full, rees_completed.elements, rorder)

    return TransferReport(in_algebra, in_graded, in_rees)


# ---------------------------------------------------------------------------
# standard bases
# ---------------------------------------------------------------------------


def _monomials_within(
    module: FreeModule, q: int, cap: int = 20000
) -> Optional[List[ModMonomial]]:
    """All module monomials of shifted degree <= q; None if more than
    the cap would have to be enumerated."""
    weights = module.algebra.degree_function.weights
    out: List[ModMonomial] = []
    total = 0
    for comp in range(module.rank):
        budget = q - module.shifts[comp]
        if budget < 0:
            continue
        box = 1
        for w in weights:
            box *= budget // w + 1
            if box > cap:
                return None
        total += box
        if total > cap:
            return None
        out.extend((exp, comp) for exp in exps_within(weights, budget))
    return out


def _normal_degrees(
    module: FreeModule,
    lms: Sequence[ModMonomial],
    top: int,
    cap: int = 20000,
) -> Optional[List[int]]:
    """Sorted shifted degrees of the monomials of degree <= top that no
    leading monomial of N divides, or None past the cap.  Two quotients
    have the same dim_K F_q for every q <= top exactly when these lists
    agree (valid because the order is graded)."""
    monos = _monomials_within(module, top, cap)
    if monos is None:
        return None
    by_comp: List[List[ExpVec]] = [[] for _ in range(module.rank)]
    for exp, comp in lms:
        by_comp[comp].append(exp)
    return sorted(
        module.mono_degree((exp, comp))
        for exp, comp in monos
        if not any(exp_divides(s, exp) for s in by_comp[comp])
    )


# ---------------------------------------------------------------------------
# minimal F-bases
# ---------------------------------------------------------------------------


def minimal_F_basis(
    ctx: FiltrationContext, L: FreeModule, U: Sequence[Vect]
) -> QuotientMinimization:
    """Prune basis vectors reachable through unit pivots of a standard
    basis, keeping the quotient strictly filtered-isomorphic.

    A pivot qualifies only when its coordinate is a nonzero scalar
    whose component shift equals the element's filtration degree; a
    unit sitting strictly below the filtration degree does not allow
    elimination.  ``U`` must be a standard basis of the submodule it
    generates, for instance a left Groebner basis under the
    shifted-degree-first order; it is not checked here, and
    :func:`minimal_filtered_resolution` certifies the pruning by the
    filtration dimensions (:func:`_certify_strict_iso`).
    """
    _require_context_algebra(ctx, L)
    gens = [v for v in U if not v.is_zero()]
    return QuotientMinimization(L, *prune_unit_pivots(L, gens))


def _certify_strict_iso(
    L: FreeModule,
    gens: List[Vect],
    new_module: FreeModule,
    new_lms: Sequence[ModMonomial],
) -> Optional[bool]:
    """Compare dim_K F_q(L/N) with dim_K F_q(L'/N') on a window.

    L'/N' is ``new_module`` (of rank 0 for the zero module) modulo a
    submodule whose leading monomials under the graded order are
    generated by ``new_lms``.
    """
    order = _graded_order(L)
    lms = [g.lm(order) for g in gens]
    # under the shifted-degree-first order a lead has the top degree
    top = max(list(L.shifts) + [L.mono_degree(m) for m in lms] + [0]) + 1
    left = _normal_degrees(L, lms, top)
    if left is None:
        return None
    right = _normal_degrees(new_module, new_lms, top)
    if right is None:
        return None
    if left != right:
        raise SolvpolyError(
            "internal: unit-pivot pruning changed filtration dimensions "
            "below degree %d: normal degrees %r -> %r" % (top, left, right)
        )
    return True


# ---------------------------------------------------------------------------
# minimal filtered free resolutions
# ---------------------------------------------------------------------------


def minimal_filtered_resolution(
    ctx: FiltrationContext, L0: FreeModule, N_gens: Sequence[Vect]
) -> Resolution:
    """Minimal filtered free resolution of M = L0 / <N_gens>.

    Stage zero completes the generators to a standard basis and prunes
    the presentation through its unit pivots (:func:`minimal_F_basis`).
    The rest is the graded engine: the Schreyer frame of the pruned
    presentation under the shifted-degree-first order
    (:func:`solvpoly.graded._schreyer_frame`), each basis vector
    shifted by the filtration degree of the row it maps to, with the
    units at the top filtration degree cancelled from the top map down
    (:func:`solvpoly.graded._minimal_resolution`).  The pruning is
    certified by the filtration dimensions read off the leading
    monomials of the frame's first map, a Groebner basis of the pruned
    relations under that order; a frame that split off a free module
    has no relations left.
    """
    _require_context_algebra(ctx, L0)
    gens = [v for v in N_gens if not v.is_zero()]
    if not gens:
        return Resolution([L0], [], "Filtered")
    completed = buchberger(gens, _graded_order(L0))
    pruned = minimal_F_basis(ctx, L0, completed.elements)
    frame = _schreyer_frame(pruned)
    L = frame.modules[0]
    lms: List[ModMonomial] = []
    if frame.maps:
        order = _graded_order(L)
        lms = [v.lm(order) for v in frame.maps[0].int_rows()]
    _certify_strict_iso(L0, completed.elements, L, lms)
    return _minimal_resolution(frame, "Filtered")


def sigma_resolution(ctx: FiltrationContext, R: Resolution) -> Resolution:
    """Apply the top-degree-part map to a filtered chain, giving the
    induced chain of associated graded modules."""
    graded_modules = [ctx.graded_module(m) for m in R.modules]
    graded_maps = []
    for i, mat in enumerate(R.maps):
        target = R.modules[i]
        rows = [sigma(ctx, _IntVect(target, v.order, v.codes, v.den))
                for v in mat.int_rows()]
        graded_maps.append(
            PresentationMatrix.from_vects(rows, graded_modules[i])
        )
    return Resolution(graded_modules, graded_maps, "Graded")
