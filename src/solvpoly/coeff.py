"""Exact coefficient arithmetic over the rationals or a prime field.

Coefficients are stored as raw payloads: a ``fractions.Fraction`` over
Q, or a canonical residue ``int`` in ``[0, p)`` over GF(p).  Inside
polynomials, module vectors and free-algebra elements every merge,
cancel and scale step runs through one sparse-term kernel,
:func:`_add_scaled`; :meth:`FieldSpec.inverse` gives the one payload
operation it cannot write with operators.  Beside the kernel,
:func:`_to_ints` and :func:`_from_ints` convert payloads to integer
numerators over one positive denominator and back: sums of many
products (the rows of a transition matrix, a syzygy's evaluation) run
on plain ints, with no gcd per term over Q and no reduction per term
over GF(p) (see :class:`solvpoly.modfree._IntSum`).

:class:`Scalar` is the field-checked value of the parse edge: literals
are read and multiplied as Scalars, which are immutable, kept in
canonical form, and refuse to mix with scalars of a different field.
The containers store their ``value``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Union

__all__ = [
    "SolvpolyError",
    "DivisionByZero",
    "MixedFields",
    "BadScalarLiteral",
    "FieldSpec",
    "Scalar",
]


class SolvpolyError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(SolvpolyError):
    """Division by the zero scalar."""


class MixedFields(SolvpolyError):
    """Arithmetic attempted between scalars of different fields."""


class BadScalarLiteral(SolvpolyError):
    """A scalar literal does not match the accepted grammar."""


_INT_RE = re.compile(r"-?[0-9]+\Z")
_RAT_RE = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)\Z")


def _is_prime(p: int) -> bool:
    """Trial division up to the square root."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class FieldSpec:
    """The ground field: rationals (characteristic 0) or GF(p).

    The prime is verified by trial division at construction time and
    must fit in a signed 32-bit word.
    """

    __slots__ = ("kind", "characteristic")

    def __init__(self, kind: str = "Rationals", characteristic: int = 0):
        if kind not in ("Rationals", "PrimeField"):
            raise ValueError("kind must be 'Rationals' or 'PrimeField'")
        if kind == "Rationals":
            if characteristic != 0:
                raise ValueError("rationals have characteristic 0")
        else:
            if characteristic >= 2 ** 31:
                raise ValueError("prime characteristic must be < 2^31")
            if not _is_prime(characteristic):
                raise ValueError(
                    "characteristic %r is not prime" % (characteristic,)
                )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "characteristic", characteristic)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        if self.kind == "Rationals":
            return "FieldSpec(Rationals)"
        return "FieldSpec(PrimeField, p=%d)" % self.characteristic

    # -- scalar construction -------------------------------------------------

    def scalar(self, numerator: Union[int, Fraction], denominator: int = 1) -> "Scalar":
        """Build the scalar numerator/denominator in this field."""
        if denominator == 0:
            raise DivisionByZero("zero denominator")
        if self.kind == "Rationals":
            return Scalar(self, Fraction(numerator, denominator))
        p = self.characteristic
        if isinstance(numerator, Fraction):
            q = Fraction(numerator, denominator)
            numerator, denominator = q.numerator, q.denominator
        den = int(denominator) % p
        if den == 0:
            raise DivisionByZero("denominator vanishes mod %d" % p)
        num = int(numerator) % p
        return Scalar(self, num * pow(den, -1, p) % p)

    def from_literal(self, text: str) -> "Scalar":
        """Parse an integer or fraction literal.

        Accepted forms: ``-?[0-9]+`` and ``-?[0-9]+/[1-9][0-9]*``.
        """
        text = text.strip()
        if _INT_RE.match(text):
            return self.scalar(int(text))
        m = _RAT_RE.match(text)
        if m:
            return self.scalar(int(m.group(1)), int(m.group(2)))
        raise BadScalarLiteral("bad scalar literal: %r" % (text,))

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    def inverse(self, c):
        """The inverse of a nonzero payload of this field."""
        if not c:
            raise DivisionByZero("zero scalar has no inverse")
        if self.characteristic:
            return pow(c, -1, self.characteristic)
        return Fraction(1) / c


def _add_scaled(acc: dict, items, s, p: int) -> dict:
    """The sparse-term kernel: ``acc += s * items`` in place; returns acc.

    ``items`` yields (monomial, payload) pairs; zero payloads are skipped
    and a monomial whose sum cancels leaves ``acc``.  Over GF(p)
    (``p > 0``) ``s`` may be any integer representative: it and every
    sum and product are reduced mod p.  With ``s == 1`` a new monomial
    keeps the payload object itself, and over Q ``s == -1`` negates with
    ``-c``: every Fraction product normalises by a gcd, which copying
    skips.
    """
    if p:
        s %= p
    if not s:
        return acc
    copy = s == 1
    neg = s == -1
    get = acc.get
    for m, c in items:
        if not copy:
            c = -c if neg else c * s
            if p:
                c %= p
        elif not c:
            continue
        cur = get(m)
        if cur is None:
            acc[m] = c
            continue
        cur += c
        if p:
            cur %= p
        if cur:
            acc[m] = cur
        else:
            del acc[m]
    return acc


def _to_ints(items) -> tuple:
    """``(nums, den)``: the (monomial, payload) pairs ``items`` as a dict
    of integer numerators over their least common denominator, den > 0.
    Over GF(p) the residues are the numerators and den is 1."""
    items = list(items)
    den = 1
    for _, c in items:
        if den % c.denominator:
            den = lcm(den, c.denominator)
    if den == 1:
        return {m: c.numerator for m, c in items}, 1
    return {m: c.numerator * (den // c.denominator) for m, c in items}, den


def _from_ints(items, den: int, p: int) -> dict:
    """The canonical payloads of the (monomial, numerator) pairs
    ``items`` over ``den``, zeros dropped: one Fraction per term over Q,
    the residues mod p over GF(p) (where den is 1)."""
    if p:
        return {m: n % p for m, n in items if n % p}
    return {m: Fraction(n, den) for m, n in items if n}


class Scalar:
    """An immutable element of a fixed :class:`FieldSpec`.

    The payload is a ``fractions.Fraction`` (rationals) or a canonical
    residue ``int`` in ``[0, p)`` (prime field).
    """

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self):
        return self.value != 0

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise MixedFields("expected a Scalar, got %r" % (other,))
        if other.field != self.field:
            raise MixedFields(
                "cannot combine %r with %r" % (self.field, other.field)
            )

    def __add__(self, other):
        self._check(other)
        if self.field.kind == "Rationals":
            return Scalar(self.field, self.value + other.value)
        return Scalar(self.field, (self.value + other.value) % self.field.characteristic)

    def __sub__(self, other):
        self._check(other)
        if self.field.kind == "Rationals":
            return Scalar(self.field, self.value - other.value)
        return Scalar(self.field, (self.value - other.value) % self.field.characteristic)

    def __mul__(self, other):
        self._check(other)
        if self.field.kind == "Rationals":
            return Scalar(self.field, self.value * other.value)
        return Scalar(self.field, (self.value * other.value) % self.field.characteristic)

    def __truediv__(self, other):
        self._check(other)
        if other.value == 0:
            raise DivisionByZero("division by zero scalar")
        if self.field.kind == "Rationals":
            return Scalar(self.field, self.value / other.value)
        p = self.field.characteristic
        return Scalar(self.field, self.value * pow(other.value, -1, p) % p)

    def __neg__(self):
        if self.field.kind == "Rationals":
            return Scalar(self.field, -self.value)
        return Scalar(self.field, (-self.value) % self.field.characteristic)

    def inverse(self) -> "Scalar":
        if self.value == 0:
            raise DivisionByZero("zero scalar has no inverse")
        return self.field.one / self

    # -- comparison / hashing ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    # -- display ---------------------------------------------------------------

    def __str__(self):
        v = self.value
        if isinstance(v, Fraction) and v.denominator != 1:
            return "%d/%d" % (v.numerator, v.denominator)
        return str(int(v))

    def __repr__(self):
        return "Scalar(%s)" % (self,)

