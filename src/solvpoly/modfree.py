"""Free left modules over a solvable algebra and left division.

A free module L = A e_1 + ... + A e_s carries optional degree shifts
b_i on its basis vectors.  Elements (:class:`Vect`) are sparse maps
from module monomials ``(exponent, component)`` to field payloads
(see :mod:`solvpoly.coeff`).  Monomial
orders on L come in TOP ("term over position"), POT ("position over
term"), graded variants of both, and Schreyer orders induced by a
list of module elements.

Division is left-sided and reduces in place on plain ints, as
fraction-free elimination does (Bareiss, Math. Comp. 22, 1968).  What
is left of the dividend is one dict of integer numerators over one
positive denominator, with a sorted list of the order keys of its
monomials; each divisor is a primitive integer row, converted once per
divisor list (:class:`_Divisors`, which the completion grows with its
basis).  Over Q a step multiplies what is left by the least integer
that lets it subtract an integer multiple of the divisor's row, and
divides the content out only once the denominator has doubled in size;
over GF(p) nothing is reduced mod p until a term is popped.  Each
quotient and remainder term becomes a payload once.  Order keys are
memoised per order object (:meth:`ModOrder.key`,
:meth:`MonomialOrder.key`), so memory grows with the distinct monomials
seen and is freed with the order.
A right-sided question is a left one over the opposite algebra
``A.opposite()``, under :func:`opposite_order` (see
:func:`solvpoly.syzres.is_projective`).

Left combinations of vectors whose payloads are not needed term by
term (the rows of a transition matrix, the rows of a product of
matrices over the algebra, S-vectors and left multiples) are summed by
:class:`_IntSum` on plain ints; :func:`_row_to_ints` and
:func:`_row_from_ints` convert a row of ring elements to that form and
back.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coeff import SolvpolyError, _add_scaled, _from_ints, _to_ints
from .algebra import (
    ExpVec,
    LengthMismatch,
    MonomialOrder,
    Poly,
    SolvableAlgebra,
    ZeroPolynomial,
    exp_add,
    exp_divides,
    exps_within,
    zero_exp,
)

__all__ = [
    "IncompatibleModules",
    "EmptyDivisorList",
    "NotAGroebnerBasis",
    "InfiniteMarker",
    "FreeModule",
    "ModMonomial",
    "Vect",
    "ModOrder",
    "left_divide_module",
    "opposite_order",
    "normal_monomials",
]

ModMonomial = Tuple[ExpVec, int]


class IncompatibleModules(SolvpolyError):
    """Elements of different free modules were combined."""


class EmptyDivisorList(SolvpolyError):
    """Division requested against an empty divisor list."""


class NotAGroebnerBasis(SolvpolyError):
    """An operation requiring a certified Groebner basis got raw data."""


class InfiniteMarker:
    """Returned when the set of normal monomials is infinite."""

    def __repr__(self):
        return "InfiniteMarker()"

    def __eq__(self, other):
        return isinstance(other, InfiniteMarker)

    def __hash__(self):
        return hash("InfiniteMarker")


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


class Vect:
    """A sparse element of a free module; immutable by convention."""

    __slots__ = ("module", "data")

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

    def __setattr__(self, name, value):
        raise AttributeError("Vect is immutable")

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.data

    def __bool__(self):
        return bool(self.data)

    def coeff(self, mono: ModMonomial):
        """The payload at ``mono``; 0 when the monomial is absent."""
        return self.data.get(mono, 0)

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

    def _check(self, other: "Vect") -> None:
        if other.module != self.module:
            raise IncompatibleModules("vectors from different modules")

    def __add__(self, other: "Vect") -> "Vect":
        return self._combined(other, 1)

    def __sub__(self, other: "Vect") -> "Vect":
        return self._combined(other, -1)

    def _combined(self, other: "Vect", s) -> "Vect":
        """self + s * other."""
        self._check(other)
        p = self.module.algebra.field.characteristic
        acc = _add_scaled(dict(self.data), other.data.items(), s, p)
        return Vect._of(self.module, acc)

    def __neg__(self) -> "Vect":
        return self.scale(-1)

    def scale(self, c) -> "Vect":
        """c * self for a payload c (or -1)."""
        p = self.module.algebra.field.characteristic
        return Vect._of(self.module, _add_scaled({}, self.data.items(), c, p))

    def monic(self, order: "ModOrder") -> "Vect":
        c = self.lc(order)
        if c == 1:
            return self
        return self.scale(self.module.algebra.field.inverse(c))

    def lmul(self, f: Poly) -> "Vect":
        """Left multiplication by a ring element, summed in one
        :class:`_IntSum`."""
        A = self.module.algebra
        acc = _IntSum(A)
        acc.add_lmul(1, f, _to_ints(self.data.items()))
        return Vect._of(
            self.module, _from_ints(*acc.finish(), A.field.characteristic)
        )

    def rmul(self, f: Poly) -> "Vect":
        """Right multiplication by a ring element (right-module view).

        No caller in the package; kept because the benchmark's tracer
        (``perfbench/tracer.py``, ``HOT_METHODS``) wraps it by name
        from the class dictionary."""
        A = self.module.algebra
        return self.module.from_polys(
            [A.multiply(p, f) for p in self.to_polys()]
        )

    # -- comparison / display -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Vect):
            return NotImplemented
        return self.module == other.module and self.data == other.data

    def __hash__(self):
        return hash(frozenset(self.data.items()))

    def __str__(self):
        return "[" + ", ".join(str(p) for p in self.to_polys()) + "]"

    def __repr__(self):
        return "Vect(%s)" % (self,)


class _IntSum:
    """A left combination ``sum sign * f * v`` of module vectors, summed
    on plain ints.

    The sum is held as integer numerators over one positive denominator,
    and so is each vector ``v``, given as ``(nums, den)`` (see
    :func:`solvpoly.coeff._to_ints`).  A term is added over the least
    common multiple of the running denominator and its own (f's times
    v's, times that of a monomial product's coefficient where it has
    one, as lambda = 1/2 gives); the numerators are rescaled only when
    that multiple grows.  Over GF(p) the denominator stays 1 and nothing
    is reduced mod p before :meth:`finish`.
    """

    def __init__(self, A: SolvableAlgebra):
        self.A = A
        self.p = A.field.characteristic
        self.start()

    def start(self, nums: Optional[Dict[ModMonomial, int]] = None) -> None:
        """Begin a new sum at ``nums`` over 1 (zero when None)."""
        self.nums = {} if nums is None else nums
        self.den = 1

    def _rescale(self, den: int) -> None:
        """Raise the denominator to a multiple of ``den``."""
        new = lcm(self.den, den)
        _scale(self.nums, new // self.den)
        self.den = new

    def add_lmul(self, sign: int, f: Poly, v: Tuple[dict, int]) -> None:
        """Add ``sign * f * v``; ``sign`` is 1 or -1."""
        fnums, fden = _to_ints(f.terms)
        vnums, vden = v
        fv = fden * vden
        if self.den % fv:
            self._rescale(fv)
        acc = self.nums
        get = acc.get
        mono_mul = self.A.mono_mul
        scale = sign * (self.den // fv)
        for ea, fa in fnums.items():
            fs = fa * scale
            for (exp, comp), c in vnums.items():
                s = fs * c
                for e, x in mono_mul(ea, exp):
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
                    m = (e, comp)
                    acc[m] = get(m, 0) + n

    def finish(self, s=1) -> Tuple[Dict[ModMonomial, int], int]:
        """The sum times the payload ``s`` as ``(nums, den)``, zeros
        dropped: over GF(p) the residues over 1, over Q with the content
        (the gcd of the numerators and den) divided out."""
        nums, p = self.nums, self.p
        if p:
            out = {}
            for m, n in nums.items():
                n = n * s % p
                if n:
                    out[m] = n
            return out, 1
        a = s.numerator
        out = {m: n * a for m, n in nums.items() if n}
        return out, _remove_content(out, self.den * s.denominator)


# Over Q, division divides the content out of what is left of the
# dividend once its denominator has more than twice the bits it had
# after the last time, plus this many.
_CONTENT_BITS = 64


def _scale(nums: Dict[ModMonomial, int], r: int) -> None:
    """Multiply the numerators by ``r`` in place."""
    for m in nums:
        nums[m] *= r


def _remove_content(nums: Dict[ModMonomial, int], den: int) -> int:
    """Divide the gcd of ``den`` and the numerators out of the
    numerators in place; returns ``den`` divided by it."""
    g = gcd(den, *nums.values())
    if g != 1:
        for m in nums:
            nums[m] //= g
    return den // g


def _row_to_ints(row: Sequence[Poly]) -> Tuple[Dict[ModMonomial, int], int]:
    """A row of ring elements in the ``(nums, den)`` form of
    :class:`_IntSum`, entry j on component j."""
    return _to_ints(((e, j), c) for j, f in enumerate(row) for e, c in f.terms)


def _row_from_ints(
    A: SolvableAlgebra, nums: Dict[ModMonomial, int], den: int, width: int
) -> List[Poly]:
    """The row of ``width`` ring elements held as ``(nums, den)``, its
    zero entries one shared zero."""
    cols: List[Dict[ExpVec, object]] = [{} for _ in range(width)]
    for (e, j), c in _from_ints(nums, den, A.field.characteristic).items():
        cols[j][e] = c
    zero = A.zero()
    return [Poly._of(A, col) if col else zero for col in cols]


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

    Immutable once built, so the memoised keys (see :meth:`key`) stay
    valid; subclasses define their order in :meth:`_key`.
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
        # one memo per component, keyed by exponent vector
        self._keys: List[Dict[ExpVec, tuple]] = [{} for _ in range(rank)]
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError("ModOrder is immutable")
        object.__setattr__(self, name, value)

    def degree_of(self, mono: ModMonomial) -> int:
        """Shifted weighted degree of a module monomial."""
        exp, comp = mono
        if self.base.kind == "grlexz":
            # the homogenizing generator carries weight 1
            return self.base.degree(exp[:-1]) + exp[-1] + self.shifts[comp]
        if self.base.degree is not None:
            return self.base.degree(exp) + self.shifts[comp]
        return sum(exp) + self.shifts[comp]

    def key(self, mono: ModMonomial):
        """A flat int tuple, memoised like :meth:`MonomialOrder.key`."""
        exp, comp = mono
        memo = self._keys[comp]
        k = memo.get(exp)
        if k is None:
            k = memo[exp] = self._key(mono)
        return k

    def _key(self, mono: ModMonomial):
        exp, comp = mono
        if self.kind == "schreyer":
            delta, target_comp = self.schreyer_lms[comp]
            body = self.schreyer_target.key((exp_add(exp, delta), target_comp))
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
    division works on, grouped by the component the element leads in,
    least index first: ``(index, lead exponent, lead numerator, row,
    den, content)``, the element being ``content / den`` times the row.
    Over Q the row is primitive; over GF(p) it holds the residues and
    den and content are 1.  :meth:`append` extends both; the list is
    not to be changed otherwise.  :meth:`find` remembers, per module
    monomial, the entry that divides it, or how many entries of its
    component it has checked in vain; it remembers at most as many
    monomials as the algebra's ``cache_limit`` (SOLVPOLY_CACHE_LIMIT)
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
        self.by_comp: List[list] = [[] for _ in range(order.rank)]
        # module monomial -> the entry that divides it, or the number of
        # entries of its component checked in vain
        self._found: Dict[ModMonomial, object] = {}
        self._found_limit = 0
        for d in divisors:
            self.append(d)

    def find(self, m: ModMonomial) -> Optional[tuple]:
        """The entry of the least-index element whose lead divides ``m``,
        or None.  An entry found stays the answer, as :meth:`append`
        adds only greater indices; after a miss a later call checks only
        the entries appended since."""
        memo = self._found
        found = memo.get(m)
        if found is None:
            start = 0
        elif found.__class__ is int:
            start = found
        else:
            return found
        wexp, wcomp = m
        entries = self.by_comp[wcomp]
        for entry in entries[start:]:
            if all(x <= y for x, y in zip(entry[1], wexp)):
                break
        else:
            entry = None
        if len(memo) < self._found_limit or found is not None:
            memo[m] = len(entries) if entry is None else entry
        return entry

    def append(self, d: Vect) -> None:
        if d.is_zero():
            raise ZeroPolynomial("zero divisor in division")
        lexp, lcomp = lm = d.lm(self.order)
        nums, den = _to_ints(d.data.items())
        p = d.module.algebra.field.characteristic
        g = 1 if p else gcd(*nums.values())
        if g != 1:
            nums = {m: n // g for m, n in nums.items()}
        self.by_comp[lcomp].append(
            (len(self), lexp, nums[lm], list(nums.items()), den, g)
        )
        self.leads.append(lm)
        self._found_limit = d.module.algebra.cache_limit
        super().append(d)


def left_divide_module(
    xi: Vect, divisors: Sequence[Vect], order: ModOrder
) -> Tuple[List[Poly], Vect]:
    """Left division of xi by an ordered divisor list.

    Returns (quotients, remainder) with
    ``xi = sum_i quotients[i] * divisors[i] + remainder``; no monomial
    of the remainder is left-divisible by any divisor's leading
    monomial.  Ties go to the least divisor index.  ``divisors`` is
    prepared (:class:`_Divisors`) unless it already is, for ``order``.

    What is left of xi is held as integer numerators over one positive
    denominator (module docstring).  ``pending`` holds the (key,
    monomial) pairs of ``work`` in ascending order, one per monomial.
    ``order`` must restrict to the algebra's order on each component,
    so that a^alpha * g leads with a^alpha times the lead of g.
    """
    if not divisors:
        raise EmptyDivisorList("no divisors given")
    divisors = _Divisors.of(divisors, order)
    module = xi.module
    A = module.algebra
    p = A.field.characteristic
    mono_mul = A.mono_mul
    key = order.key
    find = divisors.find
    quotients: Dict[int, Dict[ExpVec, object]] = {}
    remainder: Dict[ModMonomial, object] = {}
    work, den = _to_ints(xi.data.items())
    get = work.get
    pending = sorted((key(m), m) for m in work)
    cap = 2 * den.bit_length() + _CONTENT_BITS
    while pending:
        wm = pending.pop()[1]
        a = work[wm]
        if p:
            a %= p
        if not a:
            del work[wm]
            continue
        entry = find(wm)
        if entry is None:
            del work[wm]
            remainder[wm] = a if p else Fraction(a, den)
            continue
        i, lexp, lead, row, row_den, content = entry
        alpha = tuple(y - x for x, y in zip(lexp, wm[0]))
        q = quotients.get(i)
        if q is None:
            q = quotients[i] = {}
        mu = mono_mul(alpha, lexp)[0][1]
        t = lead * mu.numerator
        # subtract c * a^alpha * row, c = a / (den * t / mu.denominator)
        if p:
            s = a * pow(t, -1, p) % p
            q[alpha] = s
        else:
            # work * b over den * b, minus s * a^alpha * row: b is the
            # least multiplier that keeps the numerators integral
            a *= mu.denominator
            g = gcd(a, t)
            s, b = a // g, t // g
            if b < 0:
                s, b = -s, -b
            q[alpha] = Fraction(s * row_den, den * b * content)
            if b != 1:
                _scale(work, b)
                den *= b
        s = -s
        for (e, comp), ce in row:
            sc = s * ce
            for e2, x in mono_mul(alpha, e):
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
                m = (e2, comp)
                cur = get(m)
                if cur is None:
                    work[m] = n
                    insort(pending, (key(m), m))
                else:
                    work[m] = cur + n
        del work[wm]
        if den.bit_length() > cap:
            den = _remove_content(work, den)
            cap = 2 * den.bit_length() + _CONTENT_BITS
    zero = A.zero()
    return (
        [Poly._of(A, quotients[i]) if i in quotients else zero
         for i in range(len(divisors))],
        Vect._of(module, remainder),
    )


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


# ---------------------------------------------------------------------------
# normal monomials
# ---------------------------------------------------------------------------


def _component_staircase(lms: Iterable[ModMonomial], rank: int):
    by_comp: List[List[ExpVec]] = [[] for _ in range(rank)]
    for exp, comp in lms:
        by_comp[comp].append(exp)
    return by_comp


def normal_monomials(G, bound: Optional[int] = None):
    """Monomials of the free module not led by the submodule.

    ``G`` must be a certified Groebner basis object (with ``elements``,
    ``order`` and ``module`` attributes, as produced by the groebner
    module).  When every component's staircase contains a pure power
    of every generator the list is finite and returned in full
    (ascending order); otherwise an :class:`InfiniteMarker` is
    returned, or the list capped at shifted degree ``bound`` when a
    bound is given.
    """
    elements = getattr(G, "elements", None)
    order = getattr(G, "order", None)
    module = getattr(G, "module", None)
    if elements is None or order is None or module is None:
        raise NotAGroebnerBasis(
            "normal_monomials needs a GroebnerBasis object"
        )
    n = module.algebra.n
    zero = zero_exp(n)
    lms = [g.lm(order) for g in elements]
    by_comp = _component_staircase(lms, module.rank)

    # caps[comp] is None when the whole component lies in the
    # submodule; caps[comp][j] is the least exponent m with a pure
    # power a_j^m in the component's staircase, or None if there is
    # none (which makes the set of normal monomials infinite).
    finite = True
    caps: List[Optional[List[Optional[int]]]] = []
    for comp in range(module.rank):
        if any(exp == zero for exp in by_comp[comp]):
            caps.append(None)
            continue
        comp_caps: List[Optional[int]] = []
        for j in range(n):
            pures = [
                exp[j]
                for exp in by_comp[comp]
                if exp[j] > 0
                and all(v == 0 for k, v in enumerate(exp) if k != j)
            ]
            if pures:
                comp_caps.append(min(pures))
            else:
                comp_caps.append(None)
                finite = False
        caps.append(comp_caps)

    def is_normal(exp: ExpVec, comp: int) -> bool:
        return not any(exp_divides(s, exp) for s in by_comp[comp])

    out: List[ModMonomial] = []
    if finite:
        for comp in range(module.rank):
            if caps[comp] is None:
                continue
            stack: List[tuple] = [()]
            for j in range(n):
                stack = [
                    pre + (v,) for pre in stack for v in range(caps[comp][j])
                ]
            for exp in stack:
                if is_normal(exp, comp):
                    out.append((exp, comp))
        out.sort(key=order.key)
        return out
    if bound is None:
        return InfiniteMarker()
    # capped enumeration by shifted degree
    d = module.algebra.degree_function
    weights = d.weights if d is not None else (1,) * n
    for comp in range(module.rank):
        budget = bound - module.shifts[comp]
        if budget < 0:
            continue
        for exp in exps_within(weights, budget):
            if is_normal(exp, comp):
                out.append((exp, comp))
    out.sort(key=order.key)
    return out
