"""Int codes of module monomials and the products on them.

A module order compares monomials by a tuple key (see
:meth:`solvpoly.modfree.ModOrder._key`).  :class:`_Codec` packs that key
into one int, after the monomial representations of Bachmann and
Schoenemann ("Monomial representations for Groebner bases
computations", ISSAC 1998): codes compare as the keys do, and
multiplying a monomial by a^alpha adds the step of a^alpha to its
code.  :class:`_Products` keeps the products a^alpha * m of one
order's codes for one algebra, so the division and the S-vector sums
multiply monomials by adding ints.  On a table of scalar tails with a
Weyl pair it forms each product on codes, by the closed form of
Levandovskyy and Schoenemann ("Plural", ISSAC 2003): the term k of a
Weyl pair a_j a_i = a_i a_j + c lies k * (step(a_i) + step(a_j))
below the lead's code, so no exponent tuple is made for a term whose
code is known.
"""

from __future__ import annotations

from operator import add, lshift, mul, sub
from typing import Dict, List, Tuple

from .algebra import (
    EXP_LIMIT,
    ExpVec,
    ExponentOverflow,
    LengthMismatch,
    SolvableAlgebra,
    _integral,
    _weyl_factors,
    unit_exp,
    zero_exp,
)

ModMonomial = Tuple[ExpVec, int]


class _Codec:
    """The int codes of a module order's monomials, packed from its
    tuple keys.

    Each coordinate of the key must be affine in the exponent, with
    nonnegative coefficients that are the same on every component.  The
    key is probed at the zero exponent on every component and at the
    unit vectors on component 0.  Coordinate j of a key, less its least
    value at the zero exponent, fills a field of bits wide enough for
    any exponent below ``EXP_LIMIT``, the first coordinate in the
    highest bits.  So the code of (e, c) is ``bases[c] + step(e)``,
    codes compare as the keys do, and adding ``step(a)`` adds a to the
    exponent with no carry between fields.

    Every code is made by :meth:`encode` or, for the terms of a
    product, by :meth:`_Products.fill`; both remember it both ways: in
    ``codes``, one dict per component from exponents to codes, and in
    ``monos``, from codes to monomials, which decodes it.
    """

    __slots__ = ("n", "bases", "steps", "codes", "monos")

    def __init__(self, key, n: int, rank: int):
        self.n = n
        self.codes: List[Dict[ExpVec, int]] = [{} for _ in range(rank)]
        self.monos: Dict[int, ModMonomial] = {}
        if not rank:
            self.bases, self.steps = [], (0,) * n
            return
        zero = zero_exp(n)
        consts = [key((zero, c)) for c in range(rank)]
        # coefs[i][j]: the coefficient of exponent i in coordinate j
        coefs = [tuple(map(sub, key((unit_exp(n, i), 0)), consts[0]))
                 for i in range(n)]
        if min(map(min, coefs)) < 0:
            raise ValueError("a module order key must not fall as an "
                             "exponent grows")
        cols = list(zip(*consts))
        lows = list(map(min, cols))
        shifts, bits = [], 0
        for col, low, grow in reversed(list(zip(cols, lows, zip(*coefs)))):
            shifts.append(bits)
            bits += (max(col) - low + (EXP_LIMIT - 1) * sum(grow)).bit_length()
        shifts.reverse()
        self.bases = [sum(map(lshift, map(sub, k, lows), shifts))
                      for k in consts]
        self.steps = tuple(sum(map(lshift, col, shifts)) for col in coefs)

    def step(self, exp: ExpVec) -> int:
        """The step of a^exp: what multiplying by it adds to a code."""
        return sum(map(mul, exp, self.steps))

    def encode(self, exp: ExpVec, comp: int) -> int:
        """The code of (exp, comp), remembered both ways."""
        if len(exp) != self.n:
            raise LengthMismatch(
                "exponent length %d under an order on %d generators"
                % (len(exp), self.n)
            )
        if exp and max(exp) >= EXP_LIMIT:
            raise ExponentOverflow("exponent exceeds 2^32")
        k = self.codes[comp][exp] = self.bases[comp] + self.step(exp)
        self.monos[k] = (exp, comp)
        return k


class _Products:
    """The products a^alpha * m on one order's codes, for one algebra.

    ``table[step(alpha)]`` is ``(alpha, known)``, ``known`` mapping the
    code of m to the product as ``((code, coefficient), ...)``, lead
    first, as :meth:`solvpoly.algebra.SolvableAlgebra.mono_mul` gives
    it.  :meth:`fill` makes a product and remembers it while the table
    holds fewer products than the algebra's ``cache_limit``
    (SOLVPOLY_CACHE_LIMIT).

    The algebra's relation table picks, once, how :meth:`fill` makes a
    product.  On a table of scalar tails with a Weyl pair
    (:attr:`solvpoly.algebra.SolvableAlgebra._scalar_table`: Weyl
    algebras, GKZ systems) it is formed on codes by :meth:`_closed`;
    on any other it comes from ``mono_mul``.
    """

    __slots__ = ("mono_mul", "monos", "codes", "bases", "steps", "table",
                 "room", "weyls", "skew", "p", "fractional")

    def __init__(self, A: SolvableAlgebra, codec: _Codec):
        self.mono_mul = A.mono_mul
        self.monos, self.codes = codec.monos, codec.codes
        self.bases, self.steps = codec.bases, codec.steps
        self.table: Dict[int, Tuple[ExpVec, Dict[int, tuple]]] = {}
        self.room = A.cache_limit
        self.p, self.fractional = A.field.characteristic, A._fractional
        # the Weyl pairs (j, i, c, drop), the pair's term k lowering a
        # code by k * drop; None when the products come from mono_mul
        self.weyls = self.skew = None
        shape = A._scalar_table
        if shape is not None and shape[1]:
            steps = codec.steps
            self.weyls = [(j, i, c, steps[i] + steps[j])
                          for j, i, c in shape[1]]
            if shape[0]:
                self.skew = A._skew_lead

    def row(self, step: int, alpha: ExpVec) -> Tuple[ExpVec, Dict[int, tuple]]:
        """``(alpha, known)`` for a^alpha, of step ``step``."""
        got = self.table.get(step)
        if got is None:
            got = (alpha, {})
            if self.room > 0:
                self.table[step] = got
        return got

    def fill(self, known: Dict[int, tuple], alpha: ExpVec, step: int,
             code: int) -> tuple:
        """a^alpha times the monomial of ``code``, on codes, for the step
        ``step`` of a^alpha.  Each term takes the code remembered for
        its monomial, so equal codes are one int; a term not coded
        before is coded and remembered as :meth:`_Codec.encode` does,
        the lead as ``code + step``; ``mono_mul``, or :meth:`_closed`,
        has checked the exponents."""
        exp, comp = self.monos[code]
        if self.weyls is not None:
            out = self._closed(alpha, exp, comp, code + step)
        else:
            memo = self.codes[comp]
            terms = self.mono_mul(alpha, exp)
            e, x = terms[0]
            k = memo.get(e)
            if k is None:
                k = memo[e] = code + step
                self.monos[k] = (e, comp)
            if len(terms) == 1:
                out = ((k, x),)
            else:
                out = [(k, x)]
                monos, base, steps = self.monos, self.bases[comp], self.steps
                for e, x in terms[1:]:
                    k = memo.get(e)
                    if k is None:
                        k = memo[e] = base + sum(map(mul, e, steps))
                        monos[k] = (e, comp)
                    out.append((k, x))
                out = tuple(out)
        if self.room > 0:
            known[code] = out
            self.room -= 1
        return out

    def _closed(self, alpha: ExpVec, exp: ExpVec, comp: int,
                lead: int) -> tuple:
        """a^alpha * a^exp on component ``comp``, ``lead`` the code of
        a^(alpha+exp), by the closed form of
        :meth:`solvpoly.algebra.SolvableAlgebra._closed_product` on
        codes: the lead with its skew factor, then the factors of each
        Weyl pair that meets (:func:`solvpoly.algebra._weyl_factors`),
        in the same order.  A code not seen before is remembered with
        the exponent its term's lowering gives; the exponent sum is
        checked against ``EXP_LIMIT`` first, so no code aliases
        another monomial's."""
        if (max(alpha) + max(exp) >= EXP_LIMIT
                and max(map(add, alpha, exp)) >= EXP_LIMIT):
            raise ExponentOverflow("exponent exceeds 2^32")
        p = self.p
        out = [(lead, self.skew(alpha, exp) if self.skew else 1)]
        met = []
        for j, i, c, drop in self.weyls:
            aj, mi = alpha[j], exp[i]
            if not (aj and mi):
                continue
            factors = _weyl_factors(c, aj, mi, p)
            met.append((j, i, factors))
            out = [(m - k * drop, v * f % p if p else v * f)
                   for m, v in out for k, f in factors]
        if self.fractional:
            out = [(m, _integral(v)) for m, v in out]
        monos = self.monos
        for t, (m, _) in enumerate(out):
            if m in monos:
                continue
            # t in the mixed radix of the factor lists, the last pair's
            # digit lowest, picks the term's factor of each pair
            e = list(map(add, alpha, exp))
            for j, i, factors in reversed(met):
                t, r = divmod(t, len(factors))
                k = factors[r][0]
                e[i] -= k
                e[j] -= k
            e = tuple(e)
            monos[m] = (e, comp)
            self.codes[comp][e] = m
        return tuple(out)
