"""Free left modules over a solvable algebra and left division.

A free module L = A e_1 + ... + A e_s carries optional degree shifts
b_i on its basis vectors.  Elements (:class:`Vect`) are sparse maps
from module monomials ``(exponent, component)`` to field payloads
(see :mod:`solvpoly.coeff`).  Monomial
orders on L come in TOP ("term over position"), POT ("position over
term"), graded variants of both, and Schreyer orders induced by a
list of module elements.

Each order gives every module monomial one int code
(:meth:`ModOrder.key`, packed by :class:`solvpoly.codes._Codec` from
the order's tuple key): codes sort in the order, and multiplying a
monomial by a^alpha adds ``step(alpha)`` to its code.  The division
works on codes only.

Division is left-sided and reduces in place on plain ints, as
fraction-free elimination does (Bareiss, Math. Comp. 22, 1968).  What
is left of the dividend is one dict from codes to integer numerators
over one positive denominator, with a sorted list of its codes; each
divisor is a primitive integer row on codes, converted once per
divisor list (:class:`_Divisors`, which the completion grows with its
basis).  A step's product a^alpha * m comes from the order's table of
products on codes (:class:`solvpoly.codes._Products`), filled from the
algebra's monomial product.  Over Q a step multiplies what is left by
the least integer that lets it subtract an integer multiple of the
divisor's row, and divides the content out only once the denominator
has doubled in size; over GF(p) nothing is reduced mod p until a term
is popped.  The remainder stays in that dict, so one rescaling covers it
too, and each quotient term is kept as an integer pair.  Every
dividend gets the same result: the nonzero quotients as integer pairs
keyed by exponent and the remainder on the division's codes.

Every integer row in the package is one type, :class:`_IntVect`:
numerators on the codes of one order over one positive denominator,
whose payloads are built only on the first read of its ``data``.
Rows with no order of their own (the rows of V, U and of matrix
products) are on the TOP order of their free module
(:attr:`FreeModule.top`).  :func:`_coded` puts a vector on the codes
of an order, and is the one conversion.  Codes are memoised per order
object, so memory grows with the distinct monomials seen and is freed
with the order.
A right-sided question is a left one over the opposite algebra
``A.opposite()``, under :func:`opposite_order` (see
:func:`solvpoly.syzres.is_projective`).

Left combinations of integer rows (the rows of a transition matrix and
of a product of matrices over the algebra, S-vectors and left
multiples) are summed by :class:`_IntSum` on the codes of one order, on
plain ints.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, le, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coeff import SolvpolyError, _Terms, _add_scaled, _from_ints, _to_ints
from .algebra import (
    ExpVec,
    LengthMismatch,
    MonomialOrder,
    Poly,
    SolvableAlgebra,
    ZeroPolynomial,
    _exp_mask,
    exp_divides,
    zero_exp,
)
from .codes import ModMonomial, _Codec, _Products

__all__ = [
    "IncompatibleModules",
    "NotAGroebnerBasis",
    "FreeModule",
    "ModMonomial",
    "Vect",
    "ModOrder",
    "left_divide_module",
    "opposite_order",
]

class IncompatibleModules(SolvpolyError):
    """Elements of different free modules were combined."""


class NotAGroebnerBasis(SolvpolyError):
    """An operation requiring a certified Groebner basis got raw data."""


class FreeModule:
    """A free left module over a solvable algebra, with degree shifts.

    Rank 0 is the zero module.
    """

    def __init__(
        self,
        algebra: SolvableAlgebra,
        rank: int,
        shifts: Optional[Sequence[int]] = None,
    ):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        if shifts is None:
            shifts = (0,) * rank
        shifts = tuple(int(b) for b in shifts)
        if len(shifts) != rank:
            raise LengthMismatch(
                "%d shifts for rank %d" % (len(shifts), rank)
            )
        if any(b < 0 for b in shifts):
            raise ValueError("shifts must be natural numbers")
        self.algebra = algebra
        self.rank = rank
        self.shifts = shifts

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.algebra is other.algebra
            and self.rank == other.rank
            and self.shifts == other.shifts
        )

    def __repr__(self):
        return "FreeModule(rank=%d, shifts=%r)" % (self.rank, list(self.shifts))

    # -- constructors ---------------------------------------------------------

    def zero(self) -> "Vect":
        return Vect(self, {})

    def basis(self, i: int) -> "Vect":
        """The basis vector e_i (0-based component index)."""
        if not 0 <= i < self.rank:
            raise IndexError("component %d out of range" % i)
        return Vect(
            self, {(zero_exp(self.algebra.n), i): self.algebra.field.one.value}
        )

    def from_polys(self, polys: Sequence[Poly]) -> "Vect":
        """Assemble a vector from one polynomial per component."""
        if len(polys) != self.rank:
            raise IncompatibleModules(
                "%d component polynomials for rank %d" % (len(polys), self.rank)
            )
        data = {}
        for comp, f in enumerate(polys):
            for exp, c in f.terms:
                data[(exp, comp)] = c
        return Vect(self, data)

    def parse(self, strings: Sequence[str]) -> "Vect":
        """Parse a JSON-style array of polynomial strings, one per slot."""
        return self.from_polys([self.algebra.parse(s) for s in strings])

    @cached_property
    def top(self) -> "ModOrder":
        """The TOP order on this module that integer rows with no order
        of their own are coded on (:class:`_IntVect`)."""
        return ModOrder("top", self.algebra.order, self.rank)

    def mono_degree(self, m: ModMonomial) -> int:
        """Shifted weighted degree d(exp) + b_comp of a module monomial."""
        d = self.algebra.degree_function
        if d is None:
            return sum(m[0]) + self.shifts[m[1]]
        return d(m[0]) + self.shifts[m[1]]

    def degree(self, v: "Vect") -> int:
        """Max shifted degree over the terms of a nonzero vector."""
        if v.is_zero():
            raise ZeroPolynomial("zero vector has no degree")
        return max(self.mono_degree(m) for m in v.data)


class Vect(_Terms):
    """An immutable sparse element of a free module."""

    __slots__ = ("module",)
    _Mixed = IncompatibleModules

    def __init__(self, module: FreeModule, data):
        # data: a dict or pairs (module monomial, payload); merged, zeros
        # dropped.
        items = data.items() if isinstance(data, dict) else data
        p = module.algebra.field.characteristic
        clean: Dict[ModMonomial, object] = _add_scaled({}, items, 1, p)
        for _, comp in clean:
            if not 0 <= comp < module.rank:
                raise IncompatibleModules("component %d out of range" % comp)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "data", clean)

    @classmethod
    def _of(cls, module: FreeModule, data: Dict[ModMonomial, object]) -> "Vect":
        """The vector of a dict the kernel already cleaned, on components
        of ``module``; it takes ownership of ``data``."""
        v = object.__new__(cls)
        object.__setattr__(v, "module", module)
        object.__setattr__(v, "data", data)
        return v

    def _like(self, data: Dict[ModMonomial, object]) -> "Vect":
        # a payload vector, also for an _IntVect
        return Vect._of(self.module, data)

    parent = property(lambda self: self.module)
    field = property(lambda self: self.module.algebra.field)

    # -- queries ---------------------------------------------------------------

    def component(self, comp: int) -> Poly:
        return Poly._of(
            self.module.algebra,
            {exp: c for (exp, cc), c in self.data.items() if cc == comp},
        )

    def to_polys(self) -> List[Poly]:
        """The coordinates, split from the data in one pass; the zero
        coordinates are one shared (immutable) zero."""
        cols: List[Dict[ExpVec, object]] = [{} for _ in range(self.module.rank)]
        for (exp, comp), c in self.data.items():
            cols[comp][exp] = c
        A = self.module.algebra
        zero = A.zero()
        return [Poly._of(A, col) if col else zero for col in cols]

    def lm(self, order: "ModOrder") -> ModMonomial:
        if not self.data:
            raise ZeroPolynomial("zero vector has no leading monomial")
        return max(self.data, key=order.key)

    def lc(self, order: "ModOrder"):
        return self.data[self.lm(order)]

    # -- arithmetic --------------------------------------------------------------

    # named here: the benchmark's tracer wraps them from the class dict
    __add__, __sub__, __neg__, scale, monic = (
        _Terms.__add__, _Terms.__sub__, _Terms.__neg__, _Terms.scale,
        _Terms.monic)

    def lmul(self, f: Poly) -> "Vect":
        """Left multiplication by a ring element, summed in one
        :class:`_IntSum` on the codes of the vector's order (an
        :class:`_IntVect`'s own, else its module's TOP order)."""
        order = self.order if isinstance(self, _IntVect) else self.module.top
        v = _coded(self, order)
        acc = _IntSum(self.module.algebra, order)
        acc.add(1, *_to_ints(f.terms), v.codes, v.den)
        return _IntVect(self.module, order, *acc.finish())

    def rmul(self, f: Poly) -> "Vect":
        """Right multiplication by a ring element (right-module view).

        No caller in the package; kept because the benchmark's tracer
        (``perfbench/tracer.py``, ``HOT_METHODS``) wraps it by name
        from the class dictionary."""
        A = self.module.algebra
        return self.module.from_polys(
            [A.multiply(p, f) for p in self.to_polys()]
        )

    # -- display -------------------------------------------------------------------

    def __str__(self):
        return "[" + ", ".join(str(p) for p in self.to_polys()) + "]"

    def __repr__(self):
        return "Vect(%s)" % (self,)


class _IntVect(Vect):
    """A vector held on the codes of ``order`` (:meth:`ModOrder.key`):
    ``codes`` maps each code to an integer numerator over one positive
    denominator ``den`` (over GF(p) the nonzero residues over 1), no
    zero kept; its payloads are built on the first read of ``data``.
    Every integer row in the package is of this kind: remainders, the
    completion's S-vectors, basis elements and normal forms, Schreyer
    rows, the rows of V and U and of matrix products, so a row that is
    never printed or compared never becomes payloads.  Its sums and
    multiples are payload :class:`Vect` objects."""

    __slots__ = ("order", "codes", "den")

    def __init__(self, module: FreeModule, order: "ModOrder",
                 codes: Dict[int, int], den: int):
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "den", den)

    def __getattr__(self, name):
        # called only while the ``data`` slot is unset
        if name != "data":
            raise AttributeError(name)
        monos = self.order._codec.monos
        codes = self.codes
        data = _from_ints(zip(map(monos.__getitem__, codes), codes.values()),
                          self.den, self.module.algebra.field.characteristic)
        object.__setattr__(self, "data", data)
        return data

    def is_zero(self) -> bool:
        return not self.codes

    def __bool__(self):
        return bool(self.codes)

    def lm(self, order: "ModOrder") -> ModMonomial:
        if not self.codes:
            raise ZeroPolynomial("zero vector has no leading monomial")
        monos = self.order._codec.monos
        if order is self.order:
            return monos[max(self.codes)]
        return max(map(monos.__getitem__, self.codes), key=order.key)


def _coded(v: Vect, order: "ModOrder") -> _IntVect:
    """``v`` on the codes of ``order``: itself when it is an
    :class:`_IntVect` on ``order`` (its dict shared, not to be changed),
    else its terms encoded afresh."""
    if isinstance(v, _IntVect):
        if v.order is order:
            return v
        monos, held = v.order._codec.monos, v.codes
        items = zip(map(monos.__getitem__, held), held.values())
        den = v.den
    else:
        nums, den = _to_ints(v.data.items())
        items = nums.items()
    codec = order._codec
    known, encode = codec.codes, codec.encode
    codes = {}
    for (e, c), n in items:
        k = known[c].get(e)
        codes[encode(e, c) if k is None else k] = n
    return _IntVect(v.module, order, codes, den)


def _terms_to_ints(terms: Dict[object, Tuple[int, int]]) -> Tuple[dict, int]:
    """A sum of terms given as ``key -> (n, d)``, d > 0, as numerators
    over the least common denominator of the values n/d.  Over GF(p)
    every d is 1 and the numerators are the residues."""
    den = 1
    for _, d in terms.values():
        if den % d:
            den = lcm(den, d)
    nums = {m: n * (den // d) for m, (n, d) in terms.items()}
    if den == 1:
        return nums, 1
    return nums, _remove_content(nums, den)


def _top_row(L: FreeModule, terms: Dict[ModMonomial, Tuple[int, int]]
             ) -> _IntVect:
    """The row of L on its TOP order with the terms ``(exponent,
    component) -> (n, d)``, over their least common denominator."""
    key = L.top.key
    return _IntVect(L, L.top, *_terms_to_ints(
        {key(m): c for m, c in terms.items()}))


def _monic_row(v: Vect, order: "ModOrder") -> Tuple[_IntVect, object]:
    """``v`` made monic on the codes of ``order``, and the payload inv
    with ``monic = inv * v`` (None for one).  Over Q the monic vector is
    the primitive row with a positive lead L over L; over GF(p) its
    residues over 1."""
    w = _coded(v, order)
    codes = w.codes
    lead = codes[max(codes)]
    p = v.module.algebra.field.characteristic
    if p:
        if lead == 1:
            return _IntVect(v.module, order, codes, 1), None
        inv = pow(lead, -1, p)
        row = {c: n * inv % p for c, n in codes.items()}
        return _IntVect(v.module, order, row, 1), inv
    g = gcd(*codes.values())
    if lead < 0:
        g = -g
    row = {c: n // g for c, n in codes.items()} if g != 1 else codes
    inv = None if lead == w.den else Fraction(w.den, lead)
    return _IntVect(v.module, order, row, lead // g), inv


class _IntSum:
    """A left combination ``sum sign * f * v`` of integer rows on the
    codes of one order, summed on plain ints.

    The sum is held as integer numerators over one positive denominator,
    and so is each row v and each ring element f (see
    :func:`solvpoly.coeff._to_ints`).  A term is added over the least
    common multiple of the running denominator and its own (f's times
    v's, times that of a monomial product's coefficient where it has
    one, as lambda = 1/2 gives); the numerators are rescaled only when
    that multiple grows, so a caller that starts the sum over a multiple
    of every term's denominator (:meth:`start`) has it never rescaled on
    an integral table.  Over GF(p) the denominator stays 1 and nothing
    is reduced mod p before :meth:`finish`.  Each product a^alpha * m
    with alpha nonzero comes from the order's table
    (:class:`solvpoly.codes._Products`); a^0 * m is m.
    """

    def __init__(self, A: SolvableAlgebra, order: "ModOrder"):
        self.p = A.field.characteristic
        # every product coefficient is an int (see SolvableAlgebra._fractional)
        self.integral = self.p or not A._fractional
        self.products = order._products(A)
        self.step = order._codec.step
        self.start()

    def start(self, codes: Optional[Dict[int, int]] = None,
              den: int = 1) -> None:
        """Begin a new sum at ``codes`` over ``den`` (zero when None)."""
        self.codes = {} if codes is None else codes
        self.den = den

    def _rescale(self, den: int) -> None:
        """Raise the denominator to a multiple of ``den``."""
        new = lcm(self.den, den)
        _scale(self.codes, new // self.den)
        self.den = new

    def add(self, sign: int, f: Dict[ExpVec, int], fden: int,
            row: Dict[int, int], rden: int) -> None:
        """Add ``sign * (f / fden) * (row / rden)``, ``sign`` 1 or -1,
        for a ring element's numerators f keyed by exponent and a row's
        keyed by code.  The outer loop runs over the terms a^alpha of f,
        each reading its products from the table by its step."""
        fv = fden * rden
        if self.den % fv:
            self._rescale(fv)
        acc = self.codes
        get = acc.get
        products = self.products
        table, fill = products.table, products.fill
        scale = sign * (self.den // fv)
        for alpha, fa in f.items():
            step = self.step(alpha)
            if not step:
                fs = fa * scale
                for code, c in row.items():
                    acc[code] = get(code, 0) + fs * c
                continue
            got = table.get(step)
            if got is None:
                got = products.row(step, alpha)
            known = got[1]
            fs = fa * scale
            if self.integral:
                for code, c in row.items():
                    terms = known.get(code)
                    if terms is None:
                        terms = fill(known, alpha, step, code)
                    s = fs * c
                    for m, x in terms:
                        acc[m] = get(m, 0) + s * x
                continue
            for code, c in row.items():
                terms = known.get(code)
                if terms is None:
                    terms = fill(known, alpha, step, code)
                s = fs * c
                for m, x in terms:
                    xd = x.denominator
                    if xd == 1:
                        n = s * x.numerator
                    else:
                        if self.den % (fv * xd):
                            self._rescale(fv * xd)
                            scale = sign * (self.den // fv)
                            fs = fa * scale
                            s = fs * c
                        n = s // xd * x.numerator
                    acc[m] = get(m, 0) + n

    def finish(self, s=1) -> Tuple[Dict[int, int], int]:
        """The sum times the payload ``s`` as ``(codes, den)``, zeros
        dropped: over GF(p) the residues over 1, over Q with the content
        (the gcd of the numerators and den) divided out."""
        codes, p = self.codes, self.p
        if p:
            out = {}
            for m, n in codes.items():
                n = n * s % p
                if n:
                    out[m] = n
            return out, 1
        a = s.numerator
        out = {m: n * a for m, n in codes.items() if n}
        return out, _remove_content(out, self.den * s.denominator)


# Over Q, division divides the content out of what is left of the
# dividend once its denominator has more than twice the bits it had
# after the last time, plus this many.
_CONTENT_BITS = 64


def _scale(nums: dict, r: int) -> None:
    """Multiply the numerators by ``r`` in place."""
    for m in nums:
        nums[m] *= r


def _remove_content(nums: dict, den: int) -> int:
    """Divide the gcd of ``den`` and the numerators out of the
    numerators in place; returns ``den`` divided by it."""
    g = gcd(den, *nums.values())
    if g != 1:
        for m in nums:
            nums[m] //= g
    return den // g


def _row_to_ints(L: FreeModule, row: Sequence[Poly]) -> _IntVect:
    """A row of ring elements as an integer row of L on its TOP order,
    entry j on component j."""
    key = L.top.key
    return _IntVect(L, L.top, *_to_ints(
        (key((e, j)), c) for j, f in enumerate(row) for e, c in f.terms))


class ModOrder:
    """A left monomial order on a free module.

    kind 'top'      : ring order first, component index breaks ties;
    kind 'pot'      : component index first, then ring order;
    kind 'schreyer' : induced by module elements g_1..g_t sitting in a
                      target module with its own order -- compares the
                      leading monomials of a^alpha * g_i, ties broken
                      by the epsilon-index.

    With ``graded=True`` (top/pot only) the shifted weighted degree
    d(a^alpha) + b_i is compared before everything else.

    Subclasses define their order in :meth:`_key`, a flat int tuple
    whose every coordinate is affine in the exponent with nonnegative
    coefficients, the same on every component.  :meth:`key` packs it
    into one int code (:class:`solvpoly.codes._Codec`).  Immutable once
    built, so the memoised codes stay valid.
    """

    KINDS = ("top", "pot", "schreyer")

    def __init__(
        self,
        kind: str,
        base: MonomialOrder,
        rank: int,
        component_priority: Optional[Sequence[int]] = None,
        graded: bool = False,
        shifts: Optional[Sequence[int]] = None,
        schreyer_images: Optional[Sequence[Vect]] = None,
        schreyer_target: Optional["ModOrder"] = None,
    ):
        kind = kind.lower()
        if kind not in self.KINDS:
            raise ValueError("unknown module order kind %r" % (kind,))
        if component_priority is None:
            prio = tuple(range(rank))
        else:
            prio = tuple(int(x) for x in component_priority)
            if sorted(prio) != list(range(rank)):
                raise ValueError("component priority must permute 0..rank-1")
        self.kind = kind
        self.base = base
        self.rank = rank
        self.component_priority = prio
        self._comp_rank = {comp: pos for pos, comp in enumerate(prio)}
        self.graded = bool(graded)
        self.shifts = tuple(shifts) if shifts is not None else (0,) * rank
        if self.graded:
            if kind == "schreyer":
                raise ValueError("the graded variant applies to top/pot only")
            if base.degree is None:
                raise ValueError("a graded module order needs degree weights")
        self.schreyer_lms: Optional[List[ModMonomial]] = None
        self.schreyer_target = schreyer_target
        if kind == "schreyer":
            if not schreyer_images or schreyer_target is None:
                raise ValueError(
                    "schreyer orders need inducing images and a target order"
                )
            if len(schreyer_images) != rank:
                raise LengthMismatch(
                    "%d inducing images for rank %d"
                    % (len(schreyer_images), rank)
                )
            self.schreyer_lms = [
                g if isinstance(g, tuple) else g.lm(schreyer_target)
                for g in schreyer_images
            ]
        # the products on codes, one table per algebra (see _products)
        self._tables: Dict[SolvableAlgebra, _Products] = {}
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError("ModOrder is immutable")
        object.__setattr__(self, name, value)

    @cached_property
    def _codec(self) -> _Codec:
        """The codes of this order, packed on first use."""
        return _Codec(self._key, self.base.n, self.rank)

    def degree_of(self, mono: ModMonomial) -> int:
        """Shifted weighted degree of a module monomial."""
        exp, comp = mono
        if self.base.kind == "grlexz":
            # the homogenizing generator carries weight 1
            return self.base.degree(exp[:-1]) + exp[-1] + self.shifts[comp]
        if self.base.degree is not None:
            return self.base.degree(exp) + self.shifts[comp]
        return sum(exp) + self.shifts[comp]

    def key(self, mono: ModMonomial) -> int:
        """The int code of a module monomial: ``key(m1) < key(m2)``
        exactly when m1 is below m2, and ``key((a + e, c))`` is
        ``key((e, c))`` plus the step of a
        (:class:`solvpoly.codes._Codec`).  Memoised per order object,
        like :meth:`MonomialOrder.key`; exponents must stay below
        ``EXP_LIMIT``."""
        exp, comp = mono
        codec = self._codec
        k = codec.codes[comp].get(exp)
        if k is None:
            k = codec.encode(exp, comp)
        return k

    def _key(self, mono: ModMonomial) -> tuple:
        exp, comp = mono
        if self.kind == "schreyer":
            # the code of the image monomial, which the target checks
            delta, target_comp = self.schreyer_lms[comp]
            body = (self.schreyer_target.key(
                (tuple(map(add, exp, delta)), target_comp)),)
            rank_last = True
        else:
            body = self.base.key(exp)
            rank_last = self.kind == "top"
        if self.rank > 1:  # one component adds nothing to compare
            r = (self._comp_rank[comp],)
            body = body + r if rank_last else r + body
        if self.graded:
            return (self.degree_of(mono),) + body
        return body

    def _products(self, A: SolvableAlgebra) -> "_Products":
        """The table of products on this order's codes for algebra A."""
        table = self._tables.get(A)
        if table is None:
            table = self._tables[A] = _Products(A, self._codec)
        return table

    def compare(self, m1: ModMonomial, m2: ModMonomial) -> int:
        k1, k2 = self.key(m1), self.key(m2)
        if k1 < k2:
            return -1
        if k1 > k2:
            return 1
        return 0

    def __repr__(self):
        tags = [self.kind]
        if self.graded:
            tags.append("graded")
        return "ModOrder(%s, rank=%d)" % ("+".join(tags), self.rank)


def mono_divides(a: ModMonomial, b: ModMonomial) -> bool:
    """Left (equivalently right) divisibility of module monomials."""
    return a[1] == b[1] and exp_divides(a[0], b[0])


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


class _Divisors(list):
    """A divisor list for :func:`left_divide_module`, prepared once.

    A list of nonzero vectors that also keeps, for the order it was
    made for, each element's lead and its terms in the integer form the
    division works on: ``entries[i]`` is ``[i, lead exponent, lead
    numerator, row, den, content]``, the element being ``content / den``
    times the row (a dict from codes, :meth:`ModOrder.key`, to ints),
    and ``by_comp`` groups the entries by the component their element
    leads in, least index first.  Over Q the row is primitive (a monic
    element's is ``[i, lexp, L, row, L, 1]``, L > 0); over GF(p) it
    holds the residues and den and content are 1.  ``leads`` holds the
    lead monomials and ``codes`` their codes.  Beside each lead it keeps
    the lead exponent's divisibility mask
    (:func:`solvpoly.algebra._exp_mask`): ``masks`` by element index
    and ``comp_masks`` aligned with ``by_comp``.  :meth:`append` extends
    the list and :meth:`replace` swaps an element for one with the same
    lead; it is not to be changed otherwise.  :meth:`find` remembers,
    per code, the entry that divides its monomial, or how many entries
    of its component it has checked in vain; it remembers at most as
    many codes as the algebra's ``cache_limit`` (SOLVPOLY_CACHE_LIMIT)
    and looks up the others afresh.
    """

    @classmethod
    def of(cls, divisors: Sequence[Vect], order: ModOrder) -> "_Divisors":
        """``divisors`` prepared for ``order``: itself if it already is."""
        if isinstance(divisors, cls) and divisors.order is order:
            return divisors
        return cls(order, divisors)

    def __init__(self, order: ModOrder, divisors: Iterable[Vect] = ()):
        super().__init__()
        self.order = order
        self.leads: List[ModMonomial] = []
        self.codes: List[int] = []
        self.masks: List[int] = []
        self.entries: List[list] = []
        self.by_comp: List[list] = [[] for _ in range(order.rank)]
        self.comp_masks: List[List[int]] = [[] for _ in range(order.rank)]
        # code -> the entry that divides its monomial, or the number of
        # entries of its component checked in vain
        self._found: Dict[int, object] = {}
        self._found_limit = 0
        self._monos = order._codec.monos
        for d in divisors:
            self.append(d)

    def find(self, code: int) -> Optional[list]:
        """The entry of the least-index element whose lead divides the
        monomial of ``code``, or None.  An entry found stays the answer,
        as :meth:`append` adds only greater indices; after a miss a
        later call checks only the entries appended since.  An entry
        whose mask rules out that its lead divides the monomial is
        passed over before the exact test, and the mask is made only
        when there is an entry to check."""
        memo = self._found
        found = memo.get(code)
        if found is None:
            start = 0
        elif found.__class__ is int:
            start = found
        else:
            return found
        wexp, wcomp = self._monos[code]
        entries = self.by_comp[wcomp]
        entry = None
        if start < len(entries):
            miss = ~_exp_mask(wexp)
            for mask, e in zip(self.comp_masks[wcomp][start:],
                               entries[start:]):
                if not mask & miss and all(map(le, e[1], wexp)):
                    entry = e
                    break
        if len(memo) < self._found_limit or found is not None:
            memo[code] = len(entries) if entry is None else entry
        return entry

    def _prepare(self, d: Vect) -> Tuple[ModMonomial, list]:
        """d's lead and the tail ``[lead numerator, row, den, content]``
        of its entry."""
        v = _coded(d, self.order)
        if not v.codes:
            raise ZeroPolynomial("zero divisor in division")
        row = v.codes
        g = 1 if d.module.algebra.field.characteristic else gcd(
            *row.values())
        if g != 1:
            row = {k: n // g for k, n in row.items()}
        lead = max(row)
        return self._monos[lead], [row[lead], row, v.den, g]

    def _add(self, d: Vect, lm: ModMonomial, prepared: list) -> None:
        entry = [len(self), lm[0]] + prepared
        mask = _exp_mask(lm[0])
        self.entries.append(entry)
        self.by_comp[lm[1]].append(entry)
        self.comp_masks[lm[1]].append(mask)
        self.leads.append(lm)
        self.codes.append(self.order.key(lm))
        self.masks.append(mask)
        self._found_limit = d.module.algebra.cache_limit
        super().append(d)

    def append(self, d: Vect) -> None:
        self._add(d, *self._prepare(d))

    def picked(self, idxs: Iterable[int]) -> "_Divisors":
        """A new list of the elements ``idxs``, in that order, on the
        rows already prepared."""
        out = _Divisors(self.order)
        for i in idxs:
            out._add(self[i], self.leads[i], self.entries[i][2:])
        return out

    def replace(self, i: int, d: Vect) -> None:
        """Put d, whose lead is element i's, in place of element i.  The
        entry is changed in place, so :meth:`find` hands back the new
        row wherever it remembers the old one."""
        lm, prepared = self._prepare(d)
        if lm != self.leads[i]:
            raise ValueError("a replacement must keep the lead")
        self.entries[i][2:] = prepared
        list.__setitem__(self, i, d)


def left_divide_module(
    xi: Vect, divisors: Sequence[Vect], order: ModOrder
) -> Tuple[Dict[int, Dict[ExpVec, tuple]], Vect]:
    """Left division of xi by an ordered divisor list.

    Returns (quotients, remainder) with
    ``xi = sum_i q_i * divisors[i] + remainder``; no monomial of the
    remainder is left-divisible by any divisor's leading monomial.  Ties
    go to the least divisor index.  ``divisors`` is prepared
    (:class:`_Divisors`) unless it already is, for ``order``.

    Nothing becomes a payload: the quotients are a dict from divisor
    index i to the nonzero quotient q_i, ``{exponent: (n, d)}`` with
    each term n/d, d > 0, and the remainder is an :class:`_IntVect`
    whose terms come greatest first.  An empty list leaves xi as the
    remainder.  The division itself is :func:`_divide`, on the codes of
    ``order`` (:func:`_coded`), and the remainder stays on them.
    """
    if not divisors:
        return {}, xi
    divisors = _Divisors.of(divisors, order)
    v = _coded(xi, order)
    quotients, rem, den = _divide(dict(v.codes), v.den, divisors, order)
    return quotients, _IntVect(xi.module, order, rem, den)


def _divide(work: Dict[int, int], den: int, divisors: _Divisors,
            order: ModOrder) -> Tuple[Dict[int, Dict[ExpVec, tuple]],
                                      Dict[int, int], int]:
    """The division loop of :func:`left_divide_module` on ``work``, a
    dict from codes (:meth:`ModOrder.key`) to numerators over ``den``
    (module docstring), in place.  Returns the quotients (as
    :func:`left_divide_module` gives them), the remainder as a dict from
    codes to numerators in the order they were popped, greatest first,
    and the denominator they are over.

    ``pending`` holds the codes of the terms of ``work`` not yet
    popped, ascending; a popped term no divisor divides stays in
    ``work`` as a remainder term.  A step for the term at code w with
    the divisor that leads at code l multiplies the divisor's row by
    a^alpha, whose step is ``w - l``; each product a^alpha * m comes
    from the order's table (:class:`solvpoly.codes._Products`).
    ``order`` must restrict to the algebra's order on each component, so
    that a^alpha * g leads with a^alpha times the lead of g.
    """
    A = divisors[0].module.algebra
    p = A.field.characteristic
    # every product coefficient is an int (see SolvableAlgebra._fractional)
    integral = p or not A._fractional
    products = order._products(A)
    table, row_of, fill = products.table, products.row, products.fill
    monos = order._codec.monos
    find = divisors.find
    codes = divisors.codes
    quotients: Dict[int, Dict[ExpVec, tuple]] = {}
    get = work.get
    pending = sorted(work)
    rem = []
    cap = 2 * den.bit_length() + _CONTENT_BITS
    while pending:
        wc = pending.pop()
        a = work[wc]
        if p:
            a %= p
        if not a:
            del work[wc]
            continue
        entry = find(wc)
        if entry is None:
            if p:
                work[wc] = a
            rem.append(wc)
            continue
        i, lexp, lead, row, row_den, content = entry
        lc = codes[i]
        step = wc - lc
        got = table.get(step)
        if got is None:
            got = row_of(step, tuple(map(sub, monos[wc][0], lexp)))
        alpha, known = got
        q = quotients.get(i)
        if q is None:
            q = quotients[i] = {}
        terms = known.get(lc)
        if terms is None:
            terms = fill(known, alpha, step, lc)
        mu = terms[0][1]
        t = lead * mu.numerator
        # subtract c * a^alpha * row, c = a / (den * t / mu.denominator)
        if p:
            s = a * pow(t, -1, p) % p
            q[alpha] = (s, 1)
        else:
            # work * b over den * b, minus s * a^alpha * row: b is the
            # least multiplier that keeps the numerators integral
            a *= mu.denominator
            g = gcd(a, t)
            s, b = a // g, t // g
            if b < 0:
                s, b = -s, -b
            if b != 1:
                _scale(work, b)
                den *= b
            q[alpha] = (s * row_den, den * content)
        s = -s
        if integral:
            for c, ce in row.items():
                sc = s * ce
                terms = known.get(c)
                if terms is None:
                    terms = fill(known, alpha, step, c)
                for m, x in terms:
                    cur = get(m)
                    if cur is None:
                        work[m] = sc * x
                        insort(pending, m)
                    else:
                        work[m] = cur + sc * x
        else:
            for c, ce in row.items():
                sc = s * ce
                terms = known.get(c)
                if terms is None:
                    terms = fill(known, alpha, step, c)
                for m, x in terms:
                    xd = x.denominator
                    if xd == 1:
                        n = sc * x.numerator
                    else:
                        if sc % xd:
                            r = xd // gcd(sc, xd)
                            _scale(work, r)
                            den *= r
                            s *= r
                            sc *= r
                        n = sc // xd * x.numerator
                    cur = get(m)
                    if cur is None:
                        work[m] = n
                        insort(pending, m)
                    else:
                        work[m] = cur + n
        del work[wc]
        if den.bit_length() > cap:
            den = _remove_content(work, den)
            cap = 2 * den.bit_length() + _CONTENT_BITS
    return quotients, {c: work[c] for c in rem}, den


def opposite_order(order: ModOrder) -> ModOrder:
    """A TOP or POT order on reversed module monomials."""
    return ModOrder(
        order.kind,
        order.base.opposite(),
        order.rank,
        component_priority=order.component_priority,
        graded=order.graded,
        shifts=order.shifts,
    )

