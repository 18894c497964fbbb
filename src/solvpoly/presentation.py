"""Free-algebra machinery for certifying solvable-type presentations.

Words over the generator alphabet multiply by concatenation, with no
rewriting.  A two-sided division algorithm, overlap (border ambiguity)
enumeration, and a bounded diamond-lemma completion let us decide
whether a set of quadratic relations of the shape

    X_j X_i  =  lambda_ji X_i X_j  +  (lower words),   i < j,

rewrites confluently, i.e. whether the presented algebra has the
ordered monomials as a vector-space basis.  That is exactly the
property the rest of the package assumes of a solvable polynomial
algebra, so the verdict here certifies that ``build_algebra`` input is
mathematically meaningful and multiplication is associative.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .coeff import FieldSpec, MixedFields, SolvpolyError
from .coeff import _add_scaled, _from_ints, _to_ints
from .algebra import DegreeFunction

__all__ = [
    "ShapeViolation",
    "OverlapFailure",
    "Word",
    "WordOrder",
    "FreePoly",
    "word_divides",
    "occurrences",
    "free_divide",
    "OverlapElement",
    "overlap_elements",
    "CertReport",
    "verify_presentation",
    "bounded_completion",
    "word_str",
    "free_poly_str",
]

Letters = Tuple[int, ...]


class ShapeViolation(SolvpolyError):
    """A relation does not have the required X_j X_i leading shape."""


class OverlapFailure(SolvpolyError):
    """An overlap element does not reduce to zero."""


class Word:
    """A monomial of the free algebra: a finite sequence of letters.

    Letters are 0-based generator indices; the empty word is the
    identity.  Multiplication is concatenation.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[int] = ()):
        object.__setattr__(self, "letters", tuple(int(x) for x in letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Word(%r)" % (list(self.letters),)


def word_divides(u: Letters, w: Letters) -> bool:
    """Does u occur in w as a contiguous factor?"""
    lu = len(u)
    if lu == 0:
        return False
    return any(w[k : k + lu] == u for k in range(len(w) - lu + 1))


def occurrences(u: Letters, w: Letters) -> List[int]:
    """All start positions at which u occurs in w."""
    lu = len(u)
    if lu == 0:
        return []
    return [k for k in range(len(w) - lu + 1) if w[k : k + lu] == u]


class WordOrder:
    """A graded lexicographic monomial ordering on words.

    Compares the weighted degree first; ties go to the left-to-right
    letter comparison under ``letter_priority`` (indices listed least
    significant first, as for the ring orders), with a proper prefix
    preceding its extensions.  Positive weights make this a genuine
    monomial ordering: compatible with concatenation on both sides and
    a well-ordering refining the factor relation.
    """

    KINDS = ("grlexword",)

    def __init__(
        self,
        degree: DegreeFunction,
        letter_priority: Optional[Sequence[int]] = None,
        kind: str = "grlexword",
    ):
        kind = kind.lower()
        if kind not in self.KINDS:
            raise ValueError("unknown word order kind %r" % (kind,))
        n = len(degree.weights)
        if letter_priority is None:
            prio = tuple(range(n))
        else:
            prio = tuple(int(x) for x in letter_priority)
            if sorted(prio) != list(range(n)):
                raise ValueError("letter priority must permute 0..n-1")
        self.kind = kind
        self.degree = degree
        self.letter_priority = prio
        self._rank = {letter: pos for pos, letter in enumerate(prio)}
        self._keys: Dict[Letters, tuple] = {}

    def key(self, word: Letters):
        """Memoised per order object, as ``MonomialOrder.key`` is."""
        k = self._keys.get(word)
        if k is None:
            k = self._keys[word] = (
                sum(map(self.degree.weights.__getitem__, word)),
                tuple(map(self._rank.__getitem__, word)),
            )
        return k

    def compare(self, a: Letters, b: Letters) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    def __repr__(self):
        return "WordOrder(%s, weights=%r, priority=%r)" % (
            self.kind,
            list(self.degree.weights),
            list(self.letter_priority),
        )


class FreePoly:
    """An element of the free algebra on n generators.

    Carries its field and letter count; terms map letter tuples to
    nonzero field payloads (see :mod:`solvpoly.coeff`).  Unlike ring
    elements, a free polynomial has no ambient order, so the leading
    data is order-parameterized.
    """

    __slots__ = ("field", "n", "data")

    def __init__(self, field: FieldSpec, n: int, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        pairs = []
        for w, c in items:
            letters = tuple(w.letters) if isinstance(w, Word) else tuple(w)
            if any(not 0 <= l < n for l in letters):
                raise ValueError("letter out of range in %r" % (letters,))
            pairs.append((letters, c))
        clean = _add_scaled({}, pairs, 1, field.characteristic)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "data", clean)

    @classmethod
    def _of(cls, field: FieldSpec, n: int, data: dict) -> "FreePoly":
        """The element of a dict the kernel already cleaned, on letters
        below n; it takes ownership of ``data``."""
        f = object.__new__(cls)
        object.__setattr__(f, "field", field)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "data", data)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("FreePoly is immutable")

    def is_zero(self) -> bool:
        return not self.data

    def __bool__(self):
        return bool(self.data)

    @property
    def terms(self) -> List[Tuple[Letters, object]]:
        return sorted(self.data.items())

    def coeff(self, w):
        """The payload at word ``w``; 0 when it is absent."""
        letters = tuple(w.letters) if isinstance(w, Word) else tuple(w)
        return self.data.get(letters, 0)

    def lm(self, order: WordOrder) -> Word:
        if not self.data:
            raise SolvpolyError("the zero element has no leading monomial")
        return Word(max(self.data, key=order.key))

    def lc(self, order: WordOrder):
        return self.data[self.lm(order).letters]

    def monic(self, order: WordOrder) -> "FreePoly":
        if not self.data:
            return self
        return self.scale(self.field.inverse(self.lc(order)))

    def scale(self, c) -> "FreePoly":
        """c * self for a payload c (or -1)."""
        return FreePoly._of(
            self.field,
            self.n,
            _add_scaled({}, self.data.items(), c, self.field.characteristic),
        )

    def __add__(self, other: "FreePoly") -> "FreePoly":
        return self._combined(other, 1)

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        return self._combined(other, -1)

    def _combined(self, other: "FreePoly", s) -> "FreePoly":
        """self + s * other; both must share the field and letter count."""
        if other.field != self.field or other.n != self.n:
            raise MixedFields(
                "cannot combine free polynomials over %r on %d letters "
                "with ones over %r on %d"
                % (self.field, self.n, other.field, other.n)
            )
        out = _add_scaled(
            dict(self.data), other.data.items(), s, self.field.characteristic
        )
        return FreePoly._of(self.field, self.n, out)

    def __neg__(self) -> "FreePoly":
        return self.scale(-1)

    def sandwich(self, u: Word, v: Word) -> "FreePoly":
        """The product u * self * v for words u, v."""
        lu, lv = tuple(u.letters), tuple(v.letters)
        return FreePoly(
            self.field,
            self.n,
            [(lu + w + lv, c) for w, c in self.data.items()],
        )

    def __eq__(self, other):
        return (
            isinstance(other, FreePoly)
            and self.field == other.field
            and self.n == other.n
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.n, tuple(self.terms)))

    def __repr__(self):
        return "FreePoly(%d terms over %d letters)" % (len(self.data), self.n)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


class _FreeDivisors:
    """The divisors of the division kernel, :func:`_reduce`, for one
    order.  Entry b is ``(lead, row, den)`` (see :func:`_monic`).
    ``first`` (the least index per leading word) and ``lengths`` (of the
    leading words) let a step look up the factors of a word; the empty
    word divides nothing, as in :func:`occurrences`.  Made only by
    :meth:`of` and :meth:`of_entries`.
    """

    def __init__(self, order: WordOrder, p: int, entries: list):
        self.order, self.p = order, p
        self.entries, self.first, self.lengths = [], {}, []
        for entry in entries:
            self.append(entry)

    @classmethod
    def of(cls, G: Sequence[FreePoly], order: WordOrder) -> "_FreeDivisors":
        """The free polynomials ``G``, each made a monic row once."""
        p = G[0].field.characteristic if G else 0
        if any(g.is_zero() for g in G):
            raise SolvpolyError("division by a zero element")
        return cls(order, p, [_monic(_to_ints(g.data.items())[0], order, p)
                              for g in G])

    @classmethod
    def of_entries(cls, entries: list, order: WordOrder,
                   p: int) -> "_FreeDivisors":
        """The entries ``entries``, already monic rows."""
        return cls(order, p, entries)

    def append(self, entry: tuple) -> None:
        lead = entry[0]
        self.first.setdefault(lead, len(self.entries))
        if lead and len(lead) not in self.lengths:
            insort(self.lengths, len(lead))
        self.entries.append(entry)


def _monic(row: Dict[Letters, int], order: WordOrder, p: int) -> tuple:
    """The nonzero integer row ``row``, of any scale, as an entry
    ``(lead, monic row, den)`` with ``row[lead] == den > 0``: over Q
    divided by its content, the lead's sign kept; over GF(p) residues
    over 1."""
    lead = max(row, key=order.key)
    c = row[lead]
    if p:
        inv = pow(c, -1, p)
        return lead, {w: v * inv % p for w, v in row.items()}, 1
    g = gcd(*row.values()) if c > 0 else -gcd(*row.values())
    return lead, {w: v // g for w, v in row.items()}, c // g


def _reduce(D: _FreeDivisors, work: Dict[Letters, int], den: int,
            steps: Optional[list] = None) -> Tuple[Dict[Letters, int], int]:
    """The division kernel: two-sided division of the integer row
    ``work`` over ``den`` (residues over 1 over GF(p)) by D, in place;
    the remainder as an integer row over its denominator.  The greatest
    word w left, with entry c, is cancelled by the least divisor j with
    a leading word in w, at its leftmost occurrence: the work and den
    are scaled by ``den_j / gcd(c, den_j)`` and a multiple of row j
    subtracted.  ``steps`` receives ``(c, den, j, w, k)`` per step,
    before the scaling, with k the place of the leading word in w.
    """
    first, lengths, entries = D.first, D.lengths, D.entries
    p, key = D.p, D.order.key
    rem = []  # (word, entry, den when it moved)
    # the (key, word) pairs of ``work`` ascending; a cancelled one is skipped
    pending = sorted((key(w), w) for w in work)
    while pending:
        w = pending.pop()[1]
        c = work.get(w)
        if c is None:
            continue
        j = k = None
        size = len(w)
        for pos in range(size):
            for length in lengths:
                if pos + length > size:
                    break
                i = first.get(w[pos : pos + length])
                if i is not None and (j is None or i < j):
                    j, k = i, pos
        if j is None:
            rem.append((w, work.pop(w), den))
            continue
        if steps is not None:
            steps.append((c, den, j, w, k))
        lead, row, d = entries[j]
        g = gcd(c, d)
        c, s = c // g, d // g
        if s != 1:
            den *= s
            for m in work:
                work[m] *= s
        U, V = w[:k], w[k + len(lead) :]
        for gw, gc in row.items():
            m = U + gw + V
            cur = work.get(m)
            if cur is None:
                cur = 0
                insort(pending, (key(m), m))
            cur = (cur - c * gc) % p if p else cur - c * gc
            if cur:
                work[m] = cur
            else:
                del work[m]
    return {w: n * (den // d) for w, n, d in rem}, den


def _free_poly(field: FieldSpec, n: int, row: Dict[Letters, int],
               den: int) -> FreePoly:
    """The free polynomial of the integer row ``row`` over ``den``."""
    return FreePoly._of(field, n,
                        _from_ints(row.items(), den, field.characteristic))


def free_divide(
    f: FreePoly, G: Sequence[FreePoly], order: WordOrder
) -> Tuple[List[Tuple[object, Word, int, Word]], FreePoly]:
    """Two-sided division of f by the list G.

    Returns a rewrite trace and the remainder: ``f`` equals the sum of
    ``lam * U * G[j] * V`` over the trace entries ``(lam, U, j, V)``
    plus the remainder, every rewritten word is bounded by the leading
    word of f, and no remainder word contains any leading word of G as
    a factor.  Divisor ties go to the least index, position ties to
    the leftmost occurrence.  The kernel (:func:`_reduce`) divides f
    and G as integer rows; the trace and remainder become payloads at
    the end.
    """
    D = _FreeDivisors.of(G, order)
    p = f.field.characteristic
    steps: list = []
    rem, den = _reduce(D, *_to_ints(f.data.items()), steps)
    trace: List[Tuple[object, Word, int, Word]] = []
    for c, d, j, w, k in steps:
        lead = D.entries[j][0]
        lc = G[j].data[lead]
        lam = c * pow(lc, -1, p) % p if p else Fraction(c, d) / lc
        trace.append((lam, Word(w[:k]), j, Word(w[k + len(lead) :])))
    return trace, _free_poly(f.field, f.n, rem, den)


# ---------------------------------------------------------------------------
# overlap elements
# ---------------------------------------------------------------------------


class OverlapElement:
    """A border ambiguity of two leading words.

    ``left * u`` and ``v * right`` share the word LM(left)*u and the
    value is their normalized difference; ``shift`` is the length of
    v, i.e. where the right leading word starts inside the shared
    word.
    """

    __slots__ = ("left", "right", "u", "v", "value", "shift")

    def __init__(self, left, right, u: Word, v: Word, value: FreePoly, shift: int):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "shift", shift)

    def __setattr__(self, name, value):
        raise AttributeError("OverlapElement is immutable")

    def __repr__(self):
        return "OverlapElement(shift=%d, u=%r, v=%r)" % (
            self.shift,
            list(self.u.letters),
            list(self.v.letters),
        )


def overlap_elements(
    f: FreePoly, g: FreePoly, order: WordOrder
) -> List[OverlapElement]:
    """All overlap elements of the ordered pair (f, g).

    Enumerates the ways LM(f)*u = v*LM(g) with neither leading word
    dividing the opposite cofactor; for f = g the trivial coincidence
    u = v = 1 is skipped.  The values are built on integer rows
    (:func:`_overlaps`).
    """
    if f.is_zero() or g.is_zero():
        raise SolvpolyError("overlap elements need nonzero inputs")
    if f.field != g.field or f.n != g.n:
        raise MixedFields("overlap elements need one field and letter count")
    p = f.field.characteristic
    entries = [_monic(_to_ints(h.data.items())[0], order, p)
               for h in ([f] if f == g else [f, g])]
    last = len(entries) - 1
    w1, w2 = entries[0][0], entries[last][0]
    return [OverlapElement(f, g, Word(w2[len(w1) - k :]), Word(w1[:k]),
                           _free_poly(f.field, f.n, row, den), k)
            for _, _, k, row, den in _overlaps(entries, 0, last, p)]


def _overlaps(entries: list, a: int, b: int, p: int) -> List[tuple]:
    """The overlap elements f*u - v*g of the monic rows f and g of
    entries a and b (see :func:`_monic`), as :func:`overlap_elements`
    finds them (whose cofactor test never holds: each cofactor is
    shorter than its lead), as items ``(a, b, shift, row, den)``.  Lead
    b must start with a letter of lead a from max(0, p - q) on, for
    leads of lengths p, q."""
    (w1, f, df), (w2, g, dg) = entries[a], entries[b]
    lp, low = len(w1), max(0, len(w1) - len(w2))
    if not w2 or w2[0] not in w1[low:]:
        return []
    den = lcm(df, dg)
    out = []
    for k in range(low, lp):
        if (k == 0 and a == b) or w1[k:] != w2[: lp - k]:
            continue
        v, u = w1[:k], w2[lp - k :]
        row = {w + u: c * (den // df) for w, c in f.items()}
        for w, c in g.items():
            cur = row.get(v + w, 0) - c * (den // dg)
            cur = cur % p if p else cur
            if cur:
                row[v + w] = cur
            else:
                del row[v + w]
        out.append((a, b, k, row, den))
    return out


# ---------------------------------------------------------------------------
# presentation certification
# ---------------------------------------------------------------------------


class CertReport:
    """Outcome of checking a quadratic presentation.

    ``verdict`` is "SolvableTypeCertified" when every overlap element
    reduces to zero, else "NotCertified" with the surviving residuals
    listed in ``failures`` as (left pair, right pair, shift,
    residual).  ``lambdas`` maps each generator pair (j, i) to the
    coefficient the presentation swaps X_i X_j with.  ``rows`` holds the
    relations as monic integer rows (see :func:`_monic`), in the order
    given, for :func:`bounded_completion`.
    """

    def __init__(
        self,
        verdict: str,
        overlaps_checked: int,
        failures: List[tuple],
        lambdas: Dict[Tuple[int, int], object],
        rows: List[tuple],
    ):
        self.verdict = verdict
        self.overlaps_checked = overlaps_checked
        self.failures = failures
        self.lambdas = lambdas
        self.rows = rows

    @property
    def certified(self) -> bool:
        return self.verdict == "SolvableTypeCertified"

    def require_certified(self) -> "CertReport":
        if not self.certified:
            pair_a, pair_b, shift, residual = self.failures[0]
            raise OverlapFailure(
                "overlap of relations %r and %r at shift %d leaves "
                "residual with %d terms"
                % (pair_a, pair_b, shift, len(residual.data))
            )
        return self

    def __repr__(self):
        return "CertReport(%s, %d overlaps, %d failures)" % (
            self.verdict,
            self.overlaps_checked,
            len(self.failures),
        )


def verify_presentation(
    relations: Sequence[FreePoly], order: WordOrder
) -> CertReport:
    """Certify that quadratic relations present a solvable-type algebra.

    Expects exactly one relation per generator pair.  Each leading
    word must be a product X_j X_i of two distinct generators carrying
    a nonzero coefficient on the swapped word X_i X_j; violations of
    that shape raise ShapeViolation.  (Which of the two orientations
    leads is decided by the word order's letter priority, so any
    relabeling of the intended basis sequence is accepted.)  The
    verdict is certified exactly when every overlap element of the
    relation set reduces to zero, which makes the set confluent and
    gives the quotient algebra the ordered monomials as a basis.
    The relations become monic integer rows once (kept as the report's
    ``rows``), and each overlap element an integer row for the kernel
    (:func:`_reduce`): payloads are made only for the lambdas and a
    failure's residual.
    """
    if not relations:
        raise ShapeViolation("no relations given")
    n = relations[0].n
    expected = n * (n - 1) // 2
    if len(relations) != expected:
        raise ShapeViolation(
            "%d relations for %d generators, expected %d"
            % (len(relations), n, expected)
        )
    by_lead: Dict[Letters, FreePoly] = {}
    seen_pairs = set()
    for g in relations:
        if g.is_zero():
            raise ShapeViolation("zero relation")
        w = max(g.data, key=order.key)
        if len(w) != 2 or w[0] == w[1]:
            raise ShapeViolation(
                "leading word %r is not a product of two distinct "
                "generators" % (list(w),)
            )
        j, i = w[0], w[1]
        unordered = (min(i, j), max(i, j))
        if unordered in seen_pairs:
            raise ShapeViolation(
                "duplicate relation for pair (%d, %d)" % (j, i)
            )
        seen_pairs.add(unordered)
        if (i, j) not in g.data:
            raise ShapeViolation(
                "relation with leading word X_%d*X_%d has zero "
                "coefficient on the swapped word" % (j + 1, i + 1)
            )
        by_lead[w] = g
    keys = sorted(by_lead)
    basis = _FreeDivisors.of([by_lead[w] for w in keys], order)
    field, p = relations[0].field, basis.p
    # the rows in the order given (by_lead's), each lead once
    place = {w: b for b, w in enumerate(keys)}
    rows = [basis.entries[place[w]] for w in by_lead]
    lambdas = {(j, i): _from_ints([(0, -row[(i, j)])], den, p)[0]
               for (j, i), row, den in basis.entries}
    # X_j X_i overlaps only a leading word X_i X_h, once, at shift 1:
    # the relations indexed by their first letter, ascending
    starting: Dict[int, List[int]] = {}
    for b, kb in enumerate(keys):
        starting.setdefault(kb[0], []).append(b)
    failures: List[tuple] = []
    checked = 0
    for a, ka in enumerate(keys):
        for b in starting.get(ka[1], ()):
            for _, _, k, row, den in _overlaps(basis.entries, a, b, p):
                checked += 1
                r, den = _reduce(basis, row, den)
                if r:
                    failures.append((ka, keys[b], k,
                                     _free_poly(field, n, r, den)))
    verdict = "SolvableTypeCertified" if not failures else "NotCertified"
    return CertReport(verdict, checked, failures, lambdas, rows)


# ---------------------------------------------------------------------------
# bounded completion
# ---------------------------------------------------------------------------


def bounded_completion(
    G: Sequence[FreePoly], order: WordOrder, max_new: int = 256,
    rows: Optional[Sequence[tuple]] = None,
) -> Tuple[List[FreePoly], bool]:
    """Diamond-lemma completion with a budget on added elements.

    Inter-reduces the input, then repeatedly reduces overlap elements
    and adjoins nonzero residuals, processing ambiguities in (left
    index, right index, shift) order.  Returns (basis, True) when no
    residual survives, or (partial basis, False) once more than
    ``max_new`` elements would be needed.  A nonzero constant, in the
    input or as a residual, generates the whole algebra: the basis is
    then ``[1]``, complete.  The elements stay monic integer rows (see
    :func:`_reduce`) until the basis is returned.  ``rows``, when given,
    are those of the nonzero elements of G, in order, as
    :attr:`CertReport.rows` holds them, and are not made again.
    """
    G = [g for g in G if not g.is_zero()]
    if not G:
        return [], True
    field, n = G[0].field, G[0].n
    p = field.characteristic
    entries = (list(rows) if rows is not None
               else _FreeDivisors.of(G, order).entries)
    unit = [_free_poly(field, n, {(): 1}, 1)], True
    # inter-reduction: the first element with another's leading word in
    # its own is replaced, in its place, by its remainder by all the
    # others, or left out when that is zero; until there is none
    while True:
        leads = [entry[0] for entry in entries]
        if () in leads:
            return unit
        have = set(leads)
        idx = next((a for a, w in enumerate(leads) if leads.count(w) > 1
                    or any(w[k : k + m] in have for m in range(1, len(w))
                           for k in range(len(w) - m + 1))), None)
        if idx is None:
            break
        _, row, den = entries.pop(idx)
        r, _ = _reduce(_FreeDivisors.of_entries(entries, order, p),
                       dict(row), den)
        if r:
            entries.insert(idx, _monic(r, order, p))
    basis = _FreeDivisors.of_entries(entries, order, p)
    entries = basis.entries
    # the queue in (left index, right index, shift) order, as made
    queue = [item for a in range(len(entries)) for b in range(len(entries))
             for item in _overlaps(entries, a, b, p)]
    start, complete = len(entries), True
    while queue:
        r, _ = _reduce(basis, *queue.pop(0)[3:])
        if not r:
            continue
        if len(entries) - start >= max_new:
            complete = False
            break
        basis.append(_monic(r, order, p))
        if not entries[-1][0]:
            return unit
        t = len(entries) - 1
        pairs = [(a, t) for a in range(t)] + [(t, b) for b in range(t + 1)]
        queue.extend(item for a, b in pairs
                     for item in _overlaps(entries, a, b, p))
    return [_free_poly(field, n, row, den)
            for _, row, den in entries], complete


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def word_str(w, names: Sequence[str]) -> str:
    """Readable form of a word, grouping adjacent repeated letters."""
    letters = tuple(w.letters) if isinstance(w, Word) else tuple(w)
    if not letters:
        return "1"
    parts: List[str] = []
    run_letter, run = letters[0], 1
    for l in letters[1:]:
        if l == run_letter:
            run += 1
        else:
            parts.append(
                names[run_letter] if run == 1 else "%s^%d" % (names[run_letter], run)
            )
            run_letter, run = l, 1
    parts.append(
        names[run_letter] if run == 1 else "%s^%d" % (names[run_letter], run)
    )
    return "*".join(parts)


def free_poly_str(f: FreePoly, names: Sequence[str]) -> str:
    if f.is_zero():
        return "0"
    parts: List[str] = []
    for w, c in f.terms:
        body = word_str(w, names)
        if body == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append("%s*%s" % (c, body))
    return " + ".join(parts)