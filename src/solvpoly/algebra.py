"""PBW monomials, monomial orders, and solvable polynomial algebras.

An algebra here is K<a_1,...,a_n> subject to relations

    a_j * a_i = lambda_ji * a_i a_j + f_ji        (i < j)

with lambda_ji a nonzero scalar and, when f_ji is nonzero,
LM(f_ji) strictly below the monomial a_i a_j in the chosen order.
Under these conditions the ordered monomials a_1^k1 ... a_n^kn form a
K-basis and every product normalizes onto that basis.
:class:`SolvableAlgebra` performs that normalization with a memoized
monomial-product cache: by closed forms on tables whose tails are
scalars, by a rewriting walk on the others.  Over Q the kernel holds
integral relation constants, and so integral products, as plain ints.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import re
from fractions import Fraction
from itertools import compress
from typing import Iterable, List, Optional, Sequence, Tuple

from .coeff import (BadScalarLiteral, FieldSpec, SolvpolyError, _add_scaled,
                    _Terms)

__all__ = [
    "ExpVec",
    "LengthMismatch",
    "ExponentOverflow",
    "ZeroPolynomial",
    "ZeroLambda",
    "TailOrderViolation",
    "NonAssociative",
    "MalformedRelation",
    "UnknownGenerator",
    "ExprSyntaxError",
    "DegreeFunction",
    "MonomialOrder",
    "Relation",
    "Poly",
    "SolvableAlgebra",
    "build_algebra",
    "check_associative",
    "reversed_poly",
    "exp_add",
    "exp_sub",
    "exp_max",
    "exp_divides",
    "exps_within",
]

ExpVec = Tuple[int, ...]
# (ExpVec, coefficient) pairs of a monomial product, lead first (see
# SolvableAlgebra.mono_mul)
Terms = Tuple[Tuple[ExpVec, object], ...]

EXP_LIMIT = 2 ** 32


class LengthMismatch(SolvpolyError):
    """Exponent vectors of different lengths were combined."""


class ExponentOverflow(SolvpolyError):
    """An exponent reached the 2^32 hard limit."""


class ZeroPolynomial(SolvpolyError):
    """Leading data of the zero polynomial was requested."""


class ZeroLambda(SolvpolyError):
    """A relation has a vanishing leading scalar."""


class TailOrderViolation(SolvpolyError):
    """A relation tail is not strictly below a_i*a_j in the order."""


class NonAssociative(SolvpolyError):
    """Products of three generators depend on how they are grouped."""


class MalformedRelation(SolvpolyError):
    """A relation equation does not have the solvable shape."""


class UnknownGenerator(SolvpolyError):
    """An expression uses an identifier that is not a generator."""


class ExprSyntaxError(SolvpolyError):
    """A polynomial expression does not match the grammar."""

    def __init__(self, message: str, column: int = 0):
        super().__init__(message)
        self.column = column


# ---------------------------------------------------------------------------
# exponent-vector helpers
# ---------------------------------------------------------------------------


def exp_add(a: ExpVec, b: ExpVec) -> ExpVec:
    if len(a) != len(b):
        raise LengthMismatch("exponent lengths %d and %d" % (len(a), len(b)))
    out = tuple(map(operator.add, a, b))
    if out and max(out) >= EXP_LIMIT:
        raise ExponentOverflow("exponent exceeds 2^32")
    return out


def exp_sub(a: ExpVec, b: ExpVec) -> ExpVec:
    if len(a) != len(b):
        raise LengthMismatch("exponent lengths %d and %d" % (len(a), len(b)))
    out = tuple(map(operator.sub, a, b))
    if out and min(out) < 0:
        raise ValueError("negative exponent in subtraction")
    return out


def exp_max(a: ExpVec, b: ExpVec) -> ExpVec:
    if len(a) != len(b):
        raise LengthMismatch("exponent lengths %d and %d" % (len(a), len(b)))
    return tuple(map(max, a, b))


def exp_divides(a: ExpVec, b: ExpVec) -> bool:
    """True when a^a left-divides a^b, i.e. a <= b componentwise."""
    if len(a) != len(b):
        raise LengthMismatch("exponent lengths %d and %d" % (len(a), len(b)))
    return all(x <= y for x, y in zip(a, b))


# Divisibility masks, the short exponent vectors of Bachmann and
# Schoenemann (ISSAC 1998): each of the n variables owns
# max(1, _MASK_BITS // n) bits, and its bit t is set when its exponent
# is greater than t.  So mask(a) & ~mask(b) != 0 proves that a does not
# divide b, and mask(lcm(a, b)) == mask(a) | mask(b).  An exponent at or
# above the width sets all of its variable's bits: the test stays sound
# but can no longer tell that exponent from a greater one.
_MASK_BITS = 64


@functools.lru_cache(maxsize=None)
def _mask_bits(n: int) -> tuple:
    """Per variable k of a length-n vector, the mask bits of its
    exponents 0, 1, ..., w: entry t holds bits k*w to k*w + t - 1."""
    w = max(1, _MASK_BITS // max(1, n))
    return tuple(tuple(((1 << t) - 1) << (k * w) for t in range(w + 1))
                 for k in range(n))


def _exp_mask(e: ExpVec) -> int:
    """The divisibility mask of e (see ``_MASK_BITS``)."""
    mask = 0
    for bits, x in zip(_mask_bits(len(e)), e):
        if x:
            mask |= bits[x] if x < len(bits) else bits[-1]
    return mask


def exps_within(weights: Sequence[int], budget: int) -> List[ExpVec]:
    """Exponent vectors of weighted degree at most ``budget`` under the
    positive ``weights``, in lexicographic order (first slot slowest)."""
    out = [((), budget)]
    for w in weights:
        out = [(pre + (v,), left - v * w)
               for pre, left in out for v in range(left // w + 1)]
    return [exp for exp, _ in out]


def zero_exp(n: int) -> ExpVec:
    return (0,) * n


def unit_exp(n: int, i: int, power: int = 1) -> ExpVec:
    return tuple(power if k == i else 0 for k in range(n))


# ---------------------------------------------------------------------------
# degree functions and monomial orders
# ---------------------------------------------------------------------------


class DegreeFunction:
    """Positive weights (m_1,...,m_n); d(a^alpha) = sum alpha_i * m_i."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[int]):
        w = tuple(int(x) for x in weights)
        if not w or any(x < 1 for x in w):
            raise ValueError("degree weights must be positive integers")
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("DegreeFunction is immutable")

    def __call__(self, exp: ExpVec) -> int:
        if len(exp) != len(self.weights):
            raise LengthMismatch(
                "exponent length %d, weight length %d"
                % (len(exp), len(self.weights))
            )
        return sum(e * w for e, w in zip(exp, self.weights))

    def __eq__(self, other):
        return isinstance(other, DegreeFunction) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return "DegreeFunction(%r)" % (list(self.weights),)


class MonomialOrder:
    """A monomial order on PBW monomials.

    kind 'lex'    : lexicographic along the priority permutation;
    kind 'grlex'  : weighted total degree first, then lex tiebreak;
    kind 'grlexz' : internal order used on Rees rings -- compares the
                    exponents of the first n-1 generators by grlex and
                    breaks ties with the final (central homogenizing)
                    generator's exponent.

    ``priority`` lists 0-based generator indices from least to
    greatest; the default is the input sequence, so the last generator
    dominates lex ties.
    """

    __slots__ = ("kind", "priority", "degree", "_significance", "_keys")

    KINDS = ("lex", "grlex", "grlexz")

    def __init__(
        self,
        kind: str,
        n: int,
        priority: Optional[Sequence[int]] = None,
        degree: Optional[DegreeFunction] = None,
    ):
        kind = kind.lower()
        if kind not in self.KINDS:
            raise ValueError("unknown order kind %r" % (kind,))
        if priority is None:
            prio = tuple(range(n))
        else:
            prio = tuple(int(x) for x in priority)
        if sorted(prio) != list(range(n)):
            raise ValueError("priority must be a permutation of 0..n-1")
        if kind in ("grlex", "grlexz"):
            if degree is None:
                raise ValueError("%s requires a degree function" % kind)
            want = n - 1 if kind == "grlexz" else n
            if len(degree.weights) != want:
                raise LengthMismatch(
                    "degree function has %d weights, expected %d"
                    % (len(degree.weights), want)
                )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "priority", prio)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_significance", tuple(reversed(prio)))
        object.__setattr__(self, "_keys", {})

    def __setattr__(self, name, value):
        raise AttributeError("MonomialOrder is immutable")

    @property
    def n(self) -> int:
        return len(self.priority)

    @property
    def is_graded(self) -> bool:
        """True for plain weighted-degree-first orders on the algebra."""
        return self.kind == "grlex"

    def key(self, exp: ExpVec):
        """A flat int tuple: exp a < exp b in the order iff key(a) < key(b).

        Memoised per order object, so the memo grows with the distinct
        monomials seen and is freed with the order."""
        k = self._keys.get(exp)
        if k is None:
            k = self._keys[exp] = self._key(exp)
        return k

    def _key(self, exp: ExpVec):
        if len(exp) != self.n:
            raise LengthMismatch(
                "exponent length %d under an order on %d generators"
                % (len(exp), self.n)
            )
        sig = tuple(exp[i] for i in self._significance)
        if self.kind == "lex":
            return sig
        if self.kind == "grlex":
            return (self.degree(exp),) + sig
        # grlexz: the last exponent slot belongs to the homogenizing
        # generator; the leading block is compared by grlex first.
        body = tuple(exp[i] for i in self._significance if i != self.n - 1)
        return (self.degree(exp[:-1]),) + body + (exp[-1],)

    def opposite(self) -> "MonomialOrder":
        """The order on reversed exponent vectors: ``key(e)`` equals
        ``opposite().key(e[::-1])``.  Rees orders (grlexz) have none."""
        if self.kind == "grlexz":
            raise ValueError("a grlexz order has no opposite")
        n = self.n
        degree = self.degree and DegreeFunction(self.degree.weights[::-1])
        return MonomialOrder(
            self.kind, n, [n - 1 - p for p in self.priority], degree
        )

    def compare(self, a: ExpVec, b: ExpVec) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.priority == other.priority
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash((self.kind, self.priority, self.degree))

    def __repr__(self):
        return "MonomialOrder(%r, n=%d, priority=%r, degree=%r)" % (
            self.kind,
            self.n,
            list(self.priority),
            self.degree,
        )


# ---------------------------------------------------------------------------
# relations and polynomials
# ---------------------------------------------------------------------------


class Relation:
    """a_j * a_i = lam * a_i a_j + tail, for generator indices i < j.

    ``lam`` is a nonzero field payload (see :mod:`solvpoly.coeff`) and
    ``tail`` a :class:`Poly` of the algebra the relation belongs to.
    """

    __slots__ = ("j", "i", "lam", "tail")

    def __init__(self, j: int, i: int, lam, tail: "Poly"):
        if not i < j:
            raise MalformedRelation("relation indices need i < j")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "tail", tail)

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")


class Poly(_Terms):
    """An immutable element of a solvable polynomial algebra.

    Terms are (ExpVec, payload) pairs, the payloads raw field values
    (see :mod:`solvpoly.coeff`), held sorted descending in the
    algebra's order, so the leading term is ``terms[0]``.
    """

    __slots__ = ("algebra", "terms")
    _Mixed = SolvpolyError

    def __init__(self, algebra: "SolvableAlgebra", terms):
        # terms: iterable of (ExpVec, payload); merged, zeros dropped,
        # sorted here.
        self._fill(algebra, _add_scaled({}, terms, 1,
                                        algebra.field.characteristic))

    @classmethod
    def _of(cls, algebra: "SolvableAlgebra", data: dict) -> "Poly":
        """The polynomial of a dict the kernel already cleaned (no zero
        payloads, canonical residues); it takes ownership of ``data``."""
        f = object.__new__(cls)
        f._fill(algebra, data)
        return f

    def _fill(self, algebra: "SolvableAlgebra", data: dict) -> None:
        if len(data) < 2:
            ordered = tuple(data.items())
        else:
            key = algebra.order.key
            ordered = tuple(
                sorted(data.items(), key=lambda t: key(t[0]), reverse=True)
            )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", ordered)
        object.__setattr__(self, "data", data)

    def _like(self, data: dict) -> "Poly":
        return Poly._of(self.algebra, data)

    parent = property(lambda self: self.algebra)
    field = property(lambda self: self.algebra.field)

    def coeff(self, exp: ExpVec):
        """The payload at ``exp``; 0 when the monomial is absent."""
        return self.data.get(exp, 0)

    def lm(self) -> ExpVec:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self):
        return self.data[self.lm()]

    # named here: the benchmark's tracer wraps them from the class dict
    __add__, __sub__, __neg__, scale, monic = (
        _Terms.__add__, _Terms.__sub__, _Terms.__neg__, _Terms.scale,
        _Terms.monic)

    def __mul__(self, other: "Poly") -> "Poly":
        return self.algebra.multiply(self, other)

    def __str__(self):
        return self.algebra.poly_str(self)

    def __repr__(self):
        return "Poly(%s)" % (self,)


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------

_CACHE_ENV = "SOLVPOLY_CACHE_LIMIT"


class SolvableAlgebra:
    """K<a_1,...,a_n> with a solvable-type relation table.

    Construct through :func:`build_algebra` for textual relations, or
    directly with ``(j, i, lam, tail_terms)`` records, ``lam`` and the
    tail's (ExpVec, payload) pairs holding field payloads.  The product
    cache, ``product_cache``, maps a pair of exponent vectors (a, b) to
    :meth:`mono_mul` of them; its size is capped by ``cache_limit``, read
    from the SOLVPOLY_CACHE_LIMIT environment variable.

    The kernel (:meth:`mono_mul` and the methods it calls) reads only
    ``_table``, a copy of ``relations`` as ``{(j, i): (lam, tail)}``
    whose integral constants are ints; over Q a constant with a
    denominator stays a Fraction.  :meth:`_poly` makes Fractions of the
    ints in a product.

    The relation table alone picks how :meth:`mono_mul` forms a
    monomial product: closed forms when every relation is tail-free or
    a Weyl pair (skew polynomial rings, quantum planes, Weyl algebras,
    GKZ systems), else the suffix walk.  On a closed-form table with a
    Weyl pair the engine's products on module codes
    (:class:`solvpoly.codes._Products`) do not call :meth:`mono_mul`:
    they form the same closed form on codes, from the same factor lists
    (:func:`_weyl_factors`) and lead (:meth:`_skew_lead`).
    """

    def __init__(
        self,
        field: FieldSpec,
        names: Sequence[str],
        order: MonomialOrder,
        relations: Iterable[tuple] = (),
        degree_function: Optional[DegreeFunction] = None,
    ):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        if order.n != len(names):
            raise LengthMismatch(
                "order on %d generators, %d names" % (order.n, len(names))
            )
        self.field = field
        self.names = names
        self.order = order
        self.degree_function = degree_function or (
            order.degree if order.kind == "grlex" else None
        )
        self.n = len(names)
        self._units = tuple(unit_exp(self.n, k) for k in range(self.n))
        self.relations = {}
        self.product_cache = {}
        self._mono_text = {}  # exponent -> text, of monomials printed
        self._opposite: Optional[SolvableAlgebra] = None
        try:
            self.cache_limit = int(os.environ.get(_CACHE_ENV, "1000000"))
        except ValueError:
            self.cache_limit = 1000000
        for j, i, lam, tail in relations:
            self._install_relation(j, i, lam, tail)
        # default all unspecified pairs to commuting
        one = field.one.value
        for j in range(self.n):
            for i in range(j):
                if (j, i) not in self.relations:
                    self.relations[(j, i)] = Relation(j, i, one, self.zero())
        self._validate_relations()
        self._table = {
            ji: (_integral(rel.lam),
                 tuple((e, _integral(c)) for e, c in rel.tail.terms))
            for ji, rel in self.relations.items()
        }
        # a constant with a denominator can leave a product coefficient
        # that is a Fraction of integral value (see _terms)
        self._fractional = any(
            type(c) is Fraction for lam, tail in self._table.values()
            for c in (lam, *(tc for _, tc in tail)))
        self._indices = range(self.n)

    def _install_relation(self, j: int, i: int, lam, tail) -> None:
        if not (0 <= i < j < self.n):
            raise MalformedRelation(
                "relation indices (%d,%d) out of range" % (j, i)
            )
        if (j, i) in self.relations:
            raise MalformedRelation(
                "duplicate relation for pair (%s,%s)"
                % (self.names[j], self.names[i])
            )
        self.relations[(j, i)] = Relation(j, i, lam, Poly(self, tail))

    def _validate_relations(self) -> None:
        for (j, i), rel in self.relations.items():
            if not rel.lam:
                raise ZeroLambda(
                    "relation %s*%s has zero leading scalar"
                    % (self.names[j], self.names[i])
                )
            if not rel.tail.is_zero():
                lead = exp_add(unit_exp(self.n, i), unit_exp(self.n, j))
                if self.order.compare(rel.tail.lm(), lead) >= 0:
                    raise TailOrderViolation(
                        "tail of %s*%s relation is not below %s*%s"
                        % (
                            self.names[j],
                            self.names[i],
                            self.names[i],
                            self.names[j],
                        )
                    )

    # -- polynomial constructors ------------------------------------------------

    def zero(self) -> Poly:
        return Poly(self, [])

    def one(self) -> Poly:
        return self.monomial(zero_exp(self.n))

    def monomial(self, exp: ExpVec, coeff=None) -> Poly:
        """coeff * a^exp, the payload ``coeff`` defaulting to one."""
        if coeff is None:
            coeff = self.field.one.value
        return Poly(self, [(tuple(exp), coeff)])

    def gen(self, i: int, power: int = 1) -> Poly:
        return self.monomial(unit_exp(self.n, i, power))

    def from_terms(self, terms) -> Poly:
        return Poly(self, terms)

    def relation(self, j: int, i: int) -> Relation:
        return self.relations[(j, i)]

    def opposite(self) -> "SolvableAlgebra":
        """The opposite algebra, on the generators in reverse order.

        Reversing exponent vectors (:func:`reversed_poly`) maps each PBW
        monomial of this algebra onto one of the opposite algebra and
        turns f*g into phi(g)*phi(f), so right-sided computations run as
        left-sided ones there.  The relation (j, i, lam, f) becomes
        (n-1-i, n-1-j, lam, phi(f)).  Built on first use and kept.
        """
        if self._opposite is None:
            n = self.n
            d = self.degree_function
            self._opposite = SolvableAlgebra(
                self.field,
                self.names[::-1],
                self.order.opposite(),
                [
                    (n - 1 - r.i, n - 1 - r.j, r.lam,
                     [(e[::-1], c) for e, c in r.tail.terms])
                    for r in self.relations.values()
                ],
                d and DegreeFunction(d.weights[::-1]),
            )
        return self._opposite

    # -- the product --------------------------------------------------------

    def mono_mul(self, a: ExpVec, b: ExpVec) -> Terms:
        """PBW normal form of a^a * a^b as a tuple of (ExpVec, coefficient)
        pairs, memoised in ``product_cache``.  a and b are tuples, as
        they key the cache.  Over Q an integral coefficient may be an
        ``int`` (on an integral table, always): read it through
        ``numerator`` and ``denominator``.

        The lead a^(a+b) comes first, the other terms unsorted.  The
        exponent sum is checked against 2^32 first.  When no generator of
        a comes after the least generator of b, the product is that
        monomial alone.  On a table of scalar tails (:attr:`_scalar_table`)
        it is one pass of closed forms (:meth:`_closed_product`); on any
        other table the suffix walk below builds it.

        Core and shift: with u the least and v the greatest generator,
        a^a = u^k a^a' and a^b = a^b' v^m, so a^a a^b = u^k (a^a' a^b')
        v^m, and the outer powers only raise the exponents of u and v in
        every term of the core product a^a' a^b'.  On a walked table a
        product with k or m nonzero is the core's, asked for (and so
        cached) under its own key, then shifted: the walk never steps
        through those powers.

        The walk: with l the least generator of a, a^a = a_l a^s, so the
        product is a_l times a^s a^b.  The suffixes s are walked down to
        one whose product is cached (or to 1), then back up, each product
        built from the one below it: the depth of the call stack does
        not grow with the exponents.
        """
        cache = self.product_cache
        key = (a, b)
        out = cache.get(key)
        if out is not None:
            return out
        if len(a) != len(b):
            raise LengthMismatch(
                "exponent lengths %d and %d" % (len(a), len(b)))
        ab = tuple(map(operator.add, a, b))
        if ab and max(ab) >= EXP_LIMIT:
            raise ExponentOverflow("exponent exceeds 2^32")
        if not any(a[next(compress(self._indices, b), self.n) + 1:]):
            # a^a a^b is already ordered
            out = ((ab, 1),)
        elif self._scalar_table is not None:
            out = self._closed_product(a, b, ab)
        elif a[0] or b[-1]:
            out = self._shifted(a, b)
        else:
            return self._walk(a, b)
        if len(cache) < self.cache_limit:
            cache[key] = out
        return out

    def _shifted(self, a: ExpVec, b: ExpVec) -> Terms:
        """a^a * a^b as its core product, shifted (see :meth:`mono_mul`)."""
        n = self.n
        core = self.mono_mul((0,) + a[1:], b[:-1] + (0,))
        shift = (a[0],) + (0,) * (n - 2) + (b[-1],)
        return tuple((tuple(map(operator.add, e, shift)), c) for e, c in core)

    @functools.cached_property
    def _scalar_table(self):
        """``(skews, weyls)`` when every relation tail is a scalar in the
        closed-form shapes, else None; read at the first cache miss.

        A relation is either tail-free, a_j a_i = lam a_i a_j, or a Weyl
        pair, a_j a_i = a_i a_j + c with c a nonzero scalar.  No generator
        lies in two Weyl pairs, and the generators of a Weyl pair commute
        with every other generator.  ``skews`` lists the (j, i, lam) with
        lam != 1 and ``weyls`` the (j, i, c).
        """
        skews, weyls, paired = [], [], set()
        for (j, i), (lam, tail) in self._table.items():
            if not tail:
                if lam != 1:
                    skews.append((j, i, lam))
            elif (lam == 1 and len(tail) == 1 and not any(tail[0][0])
                  and i not in paired and j not in paired):
                paired.update((i, j))
                weyls.append((j, i, tail[0][1]))
            else:
                return None
        if any(i in paired or j in paired for j, i, _ in skews):
            return None
        return skews, weyls

    def _skew_lead(self, a: ExpVec, b: ExpVec):
        """The coefficient of a^(a+b) in a^a * a^b on a table of scalar
        tails: the product of lam_ji^(a_j b_i) over its skew pairs."""
        p = self.field.characteristic
        lead = 1
        for j, i, lam in self._scalar_table[0]:
            e = a[j] * b[i]
            if e:
                lead = lead * pow(lam, e, p) % p if p else lead * lam ** e
        return lead

    def _closed_product(self, a: ExpVec, b: ExpVec, ab: ExpVec) -> Terms:
        """a^a * a^b on a table of scalar tails, in one pass, lead first:
        the lead a^(a+b) with its skew factor (:meth:`_skew_lead`), then
        the factors of each Weyl pair that meets (:func:`_weyl_factors`),
        term k lowering both exponents of the pair by k."""
        p = self.field.characteristic
        lead = self._skew_lead(a, b)
        terms = None
        for j, i, c in self._scalar_table[1]:
            if not (a[j] and b[i]):
                continue
            if terms is None:
                terms = {ab: lead}
            factors = _weyl_factors(c, a[j], b[i], p)
            expanded = {}
            for e, v in terms.items():
                for k, f in factors:
                    lowered = list(e)
                    lowered[i] -= k
                    lowered[j] -= k
                    expanded[tuple(lowered)] = v * f % p if p else v * f
            terms = expanded
        if terms is None:
            # no Weyl pair meets: the lead alone
            return ((ab, _integral(lead) if self._fractional else lead),)
        return self._terms(terms)

    def _walk(self, a: ExpVec, b: ExpVec) -> Terms:
        """a^a * a^b by the suffix walk of :meth:`mono_mul`, remembering
        every suffix product it builds."""
        chain = []
        s = a
        out = None
        while out is None and any(s):
            l = next(compress(self._indices, s))
            chain.append((l, s))
            s = exp_sub(s, self._units[l])
            out = self.product_cache.get((s, b))
        if out is None:
            out = ((b, 1),)
        for l, s in reversed(chain):
            out = self._terms(self._add_gen_times({}, l, out, 1))
            self._remember(s, b, out)
        return out

    def _terms(self, acc: dict) -> Terms:
        """The product summed in ``acc`` as a tuple; on a table with a
        fractional constant, its integral coefficients made ints."""
        if self._fractional:
            return tuple((e, _integral(c)) for e, c in acc.items())
        return tuple(acc.items())

    def _remember(self, a: ExpVec, b: ExpVec, out: Terms) -> None:
        if len(self.product_cache) < self.cache_limit:
            self.product_cache[(a, b)] = out

    def _add_gen_times(self, acc: dict, k: int, terms: Terms, s) -> dict:
        """acc += s * a_k * terms in place; returns acc.  When ``terms``
        lead first, so does what this adds to an empty ``acc``: the
        product of a_k and the lead is inserted first and, being the
        greatest, never touched again."""
        p = self.field.characteristic
        ek = self._units[k]
        for exp, c in terms:
            if not any(exp[:k]):
                # a_k a^exp is already ordered
                _add_scaled(acc, ((exp_add(ek, exp), c),), s, p)
                continue
            t = self.product_cache.get((ek, exp))
            if t is None:
                t = self._gen_times_mono(k, exp)
                self._remember(ek, exp, t)
            _add_scaled(acc, t, c if s == 1 else c * s, p)
        return acc

    def _gen_times_mono(self, k: int, b: ExpVec) -> Terms:
        """Normal form of a_k * a^b, lead first, for b with a generator
        below k.

        The generators of b from k on are split off first:
        a_k a^b = (a_k a^low) a^high.  Then, with i the least generator
        of low, a^low = a_i a^r and the relation
        a_k a_i = lam a_i a_k + tail give a_k a^low =
        lam a_i (a_k a^r) + tail a^r.  The suffixes r are walked down to
        one that a_k precedes (or whose product is cached), then back
        up, as in :meth:`mono_mul`.
        """
        p = self.field.characteristic
        ek = self._units[k]
        if any(b[k:]):
            low = b[:k] + (0,) * (self.n - k)
            high = (0,) * k + b[k:]
            t = self.product_cache.get((ek, low))
            if t is None:
                t = self._gen_times_mono(k, low)
                self._remember(ek, low, t)
            m = next(compress(self._indices, high))
            acc = {}
            for e, c in t:
                if not any(e[m + 1:]):
                    # a^e a^high is already ordered
                    _add_scaled(acc, ((exp_add(e, high), c),), 1, p)
                else:
                    _add_scaled(acc, self.mono_mul(e, high), c, p)
            return self._terms(acc)
        chain = []
        s = b
        out = None
        while out is None:
            i = next(compress(self._indices, s), self.n)
            if k <= i:
                out = ((exp_add(ek, s), 1),)
                break
            rest = exp_sub(s, self._units[i])
            chain.append((i, s, rest))
            s = rest
            out = self.product_cache.get((ek, s))
        for i, s, rest in reversed(chain):
            lam, tail = self._table[(k, i)]
            acc = self._add_gen_times({}, i, out, lam)
            for te, tc in tail:
                _add_scaled(acc, self.mono_mul(te, rest), tc, p)
            out = self._terms(acc)
            self._remember(ek, s, out)
        return out

    def multiply(self, f: Poly, g: Poly) -> Poly:
        """Product of two elements, normalized onto the PBW basis."""
        if f.algebra is not self or g.algebra is not self:
            raise SolvpolyError("operands built over a different algebra")
        p = self.field.characteristic
        acc = {}
        for ea, ca in f.terms:
            for eb, cb in g.terms:
                _add_scaled(acc, self.mono_mul(ea, eb), ca * cb, p)
        return self._poly(acc)

    def _poly(self, acc: dict) -> Poly:
        """The :class:`Poly` of a sum of kernel products, its int
        coefficients made Fractions over Q; it takes ``acc``."""
        if not self.field.characteristic:
            for m, c in acc.items():
                if type(c) is int:
                    acc[m] = Fraction(c)
        return Poly._of(self, acc)

    # -- parsing and printing -------------------------------------------------------

    def parse(self, text: str) -> Poly:
        """Parse an expression into PBW normal form.  Each term's factors
        multiply in written order on exponent vectors, by :meth:`mono_mul`
        (so an exponent at 2^32 raises ExponentOverflow); a term with a
        zero coefficient is dropped unmultiplied."""
        p, n = self.field.characteristic, self.n
        acc = {}
        for coeff, factors in _parse_expression(text, self.names, self.field):
            part = {zero_exp(n): coeff.value} if coeff.value else {}
            for gi, power in factors:
                g, prev = unit_exp(n, gi, power), part
                part = {}
                for e, c in prev.items():
                    _add_scaled(part, self.mono_mul(e, g), c, p)
            _add_scaled(acc, part.items(), 1, p)
        return self._poly(acc)

    def poly_str(self, f: Poly) -> str:
        """f as text, its terms descending, a coefficient c as str(c)."""
        return _joined([self._term(e, str(c)) for e, c in f.terms])

    def _term(self, exp: ExpVec, cs: str) -> str:
        """The sign, spaced, and the term of a^exp with coefficient text
        cs; the monomial's text is built once (``_mono_text``)."""
        body = self._mono_text.get(exp)
        if body is None:
            body = self._mono_text[exp] = "*".join([
                nm if e == 1 else "%s^%d" % (nm, e)
                for nm, e in zip(self.names, exp) if e])
        sign = " + "
        if cs[0] == "-":
            sign, cs = " - ", cs[1:]
        if not body:
            return sign + cs
        return sign + body if cs == "1" else sign + cs + "*" + body

    def __repr__(self):
        return "SolvableAlgebra(%s)" % (", ".join(self.names))


def _joined(parts: List[str]) -> str:
    """A sum of :meth:`SolvableAlgebra._term` texts; "0" for no term."""
    if not parts:
        return "0"
    text = "".join(parts)
    return text[3:] if text[1] == "+" else "-" + text[3:]


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[1-9][0-9]*)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprSyntaxError(
                "unexpected character %r" % rest[0], column=pos + 1
            )
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), pos))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    return tokens


def _parse_expression(text: str, names: Sequence[str], field: FieldSpec):
    """Parse into a list of (Scalar, [(gen index, power), ...])."""
    name_index = {nm: i for i, nm in enumerate(names)}
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression", column=1)
    out = []
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take_sign() -> int:
        """Consume an optional '+' or '-'; the sign it gives."""
        nonlocal pos
        tok = peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            pos += 1
            return -1 if tok[1] == "-" else 1
        return 1

    # one optional leading sign, and one after each binary '+'/'-'
    sign = take_sign()
    while True:
        coeff = field.one if sign > 0 else -field.one
        factors = []
        saw_factor = False
        expect_factor = True
        while expect_factor:
            tok = peek()
            if tok is None:
                break
            kind, val, col = tok
            if kind == "num":
                try:
                    coeff = coeff * field.from_literal(val)
                except BadScalarLiteral as exc:
                    raise ExprSyntaxError(str(exc), column=col + 1)
                pos += 1
                saw_factor = True
            elif kind == "ident":
                if val not in name_index:
                    raise UnknownGenerator(
                        "unknown generator %r (declared: %s)"
                        % (val, ", ".join(names))
                    )
                gi = name_index[val]
                pos += 1
                power = 1
                nxt = peek()
                if nxt and nxt[0] == "op" and nxt[1] == "^":
                    pos += 1
                    ptok = peek()
                    if not ptok or ptok[0] != "num" or not ptok[1].isdigit():
                        raise ExprSyntaxError(
                            "expected a natural number after '^'",
                            column=(ptok[2] + 1 if ptok else len(tokens)),
                        )
                    power = int(ptok[1])
                    pos += 1
                factors.append((gi, power))
                saw_factor = True
            else:
                raise ExprSyntaxError(
                    "unexpected operator %r" % val, column=col + 1
                )
            nxt = peek()
            if nxt and nxt[0] == "op" and nxt[1] == "*":
                pos += 1
                expect_factor = True
            else:
                expect_factor = False
        if not saw_factor:
            raise ExprSyntaxError("expected a term", column=1)
        out.append((coeff, factors))
        tok = peek()
        if tok is None:
            break
        if tok[0] == "op" and tok[1] in "+-":
            sign = take_sign() * take_sign()
        else:
            raise ExprSyntaxError(
                "expected '+' or '-' between terms", column=tok[2] + 1
            )
    return out


def _parse_normal_form(
    text: str, names: Sequence[str], field: FieldSpec, n: int
):
    """Parse an expression whose terms must already be PBW-ordered.

    Used for relation right-hand sides, where no product rewriting is
    available yet.  Returns a dict ExpVec -> nonzero payload.
    """
    terms = []
    for coeff, factors in _parse_expression(text, names, field):
        exp = [0] * n
        last = -1
        for gi, power in factors:
            if gi < last:
                raise MalformedRelation(
                    "term factors must appear in nondecreasing generator "
                    "order inside relation right-hand sides"
                )
            last = gi
            exp[gi] += power
        terms.append((tuple(exp), coeff.value))
    return _add_scaled({}, terms, 1, field.characteristic)


_REL_LHS_RE = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\*\s*([A-Za-z_][A-Za-z0-9_]*)\s*\Z"
)


def build_algebra(
    field: FieldSpec,
    names: Sequence[str],
    order: MonomialOrder,
    relations: Iterable[str] = (),
    degree_function: Optional[DegreeFunction] = None,
) -> SolvableAlgebra:
    """Build and validate a solvable polynomial algebra.

    Each relation equation must read ``gen_j * gen_i = rhs`` with j
    after i in the declared generator sequence; the right-hand side
    must contain the monomial gen_i*gen_j with a nonzero scalar, and
    everything else must sit strictly below it in the order.
    Unspecified pairs commute.  The table is not checked for
    associativity here; see :func:`check_associative`.
    """
    names = tuple(names)
    n = len(names)
    name_index = {nm: i for i, nm in enumerate(names)}

    parsed = {}
    for eq in relations:
        if "=" not in eq:
            raise MalformedRelation("relation %r lacks '='" % (eq,))
        lhs_text, rhs_text = eq.split("=", 1)
        m = _REL_LHS_RE.match(lhs_text)
        if not m:
            raise MalformedRelation(
                "left side of %r must be a product of two generators" % (eq,)
            )
        left_name, right_name = m.group(1), m.group(2)
        for nm in (left_name, right_name):
            if nm not in name_index:
                raise UnknownGenerator("unknown generator %r" % (nm,))
        j, i = name_index[left_name], name_index[right_name]
        if not i < j:
            raise MalformedRelation(
                "relation %r must rewrite a later generator past an "
                "earlier one (got %s*%s)" % (eq, left_name, right_name)
            )
        if (j, i) in parsed:
            raise MalformedRelation(
                "duplicate relation for pair %s*%s" % (left_name, right_name)
            )
        try:
            rhs = _parse_normal_form(rhs_text, names, field, n)
        except ExprSyntaxError as exc:
            raise MalformedRelation(
                "bad right-hand side in %r: %s" % (eq, exc)
            )
        lead = exp_add(unit_exp(n, i), unit_exp(n, j))
        lam = rhs.pop(lead, 0)
        if not lam:
            raise ZeroLambda(
                "relation %r needs a nonzero multiple of %s*%s"
                % (eq, names[i], names[j])
            )
        parsed[(j, i)] = (j, i, lam, rhs.items())

    return SolvableAlgebra(
        field, names, order, parsed.values(), degree_function
    )


def check_associative(A: SolvableAlgebra) -> None:
    """Refuse a relation table whose products do not associate.

    For every generator triple i < j < k, ``(a_k a_j) a_i`` must equal
    ``a_k (a_j a_i)``, both summed on exponent vectors: these are the
    nondegeneracy conditions under which the ordered monomials form a
    basis (Levandovskyy and Schoenemann, "Plural", ISSAC 2003).  Raises
    NonAssociative naming the first triple that fails.  A triple whose
    three relations have no tail is skipped: both sides are then
    ``lam_kj * lam_ki * lam_ji * a_i a_j a_k``.  So is a table of
    closed-form products (:attr:`SolvableAlgebra._scalar_table`), a
    quantum affine space tensored with Weyl algebras.
    """
    if A._scalar_table is not None:
        return
    p, mul, units = A.field.characteristic, A.mono_mul, A._units
    rels = A.relations
    for i, j, k in itertools.combinations(range(A.n), 3):
        if not (rels[(k, j)].tail or rels[(k, i)].tail or rels[(j, i)].tail):
            continue
        ei, ej, ek = units[i], units[j], units[k]
        diff = {}
        for e, c in mul(ek, ej):
            _add_scaled(diff, mul(e, ei), c, p)
        for e, c in mul(ej, ei):
            _add_scaled(diff, mul(ek, e), -c, p)
        if diff:
            a, b, c = A.names[k], A.names[j], A.names[i]
            raise NonAssociative(
                "(%s*%s)*%s - %s*(%s*%s) = %s"
                % (a, b, c, a, b, c, A.poly_str(A._poly(diff)))
            )


@functools.lru_cache(maxsize=4096)
def _weyl_factors(c, aj: int, bi: int, p: int) -> tuple:
    """The nonzero (k, k! C(aj, k) C(bi, k) c^k), k ascending, over
    GF(p) for p > 0: the terms of a_j^aj a_i^bi for a Weyl pair
    a_j a_i = a_i a_j + c, term k lowering both exponents by k
    (Levandovskyy and Schoenemann, "Plural", ISSAC 2003).  From k = p
    on they vanish with k!."""
    out = []
    t = ck = 1  # k! C(aj, k) C(bi, k) and c^k
    top = min(aj, bi, p - 1) if p else min(aj, bi)
    for k in range(top + 1):
        f = t * ck % p if p else t * ck
        if f:
            out.append((k, f))
        t = t * (aj - k) * (bi - k) // (k + 1)
        ck = ck * c % p if p else ck * c
    return tuple(out)


def _integral(c):
    """The payload c as the product kernel holds it: an int if integral."""
    return c.numerator if c.denominator == 1 else c


def reversed_poly(f: Poly, target: SolvableAlgebra) -> Poly:
    """phi(f): the terms of f with reversed exponent vectors, in
    ``target`` -- ``A.opposite()`` to go over, ``A`` to come back."""
    return Poly(target, [(e[::-1], c) for e, c in f.terms])
