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
from typing import Dict, List, Optional, Sequence, Tuple

from .coeff import FieldSpec, MixedFields, SolvpolyError, _add_scaled
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

    @property
    def n(self) -> int:
        return len(self.letter_priority)

    def word_degree(self, letters: Letters) -> int:
        w = self.degree.weights
        return sum(w[l] for l in letters)

    def key(self, word: Letters):
        """Memoised per order object, as ``MonomialOrder.key`` is."""
        k = self._keys.get(word)
        if k is None:
            rank = self._rank
            k = self._keys[word] = (
                self.word_degree(word), tuple(rank[l] for l in word)
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


class _FreeDivisors(list):
    """A divisor list for :func:`free_divide`, prepared once.

    A list of nonzero free polynomials that also keeps, for the order
    it was made for, each element's leading word (``leads``) and the
    inverse of its leading coefficient (``inverses``), the least index
    with each leading word (``first``) and the lengths the leading
    words take (``lengths``), so that a division step finds its divisor
    by looking up the factors of a word.  The empty word divides
    nothing here, as in :func:`occurrences`.  :meth:`append` extends
    all of them; the list is not to be changed otherwise.
    """

    @classmethod
    def of(cls, G: Sequence[FreePoly], order: WordOrder) -> "_FreeDivisors":
        """``G`` prepared for ``order``: itself if it already is."""
        if isinstance(G, cls) and G.order is order:
            return G
        return cls(order, G)

    def __init__(self, order: WordOrder, G: Sequence[FreePoly]):
        super().__init__()
        self.order = order
        self.leads: List[Letters] = []
        self.inverses: List[object] = []
        self.first: Dict[Letters, int] = {}
        self.lengths: List[int] = []
        for g in G:
            self.append(g)

    def append(self, g: FreePoly) -> None:
        if g.is_zero():
            raise SolvpolyError("division by a zero element")
        w = g.lm(self.order).letters
        self.first.setdefault(w, len(self))
        if w and len(w) not in self.lengths:
            insort(self.lengths, len(w))
        self.leads.append(w)
        self.inverses.append(g.field.inverse(g.data[w]))
        super().append(g)


def free_divide(
    f: FreePoly, G: Sequence[FreePoly], order: WordOrder
) -> Tuple[List[Tuple[object, Word, int, Word]], FreePoly]:
    """Two-sided division of f by the list G.

    Returns a rewrite trace and the remainder: ``f`` equals the sum of
    ``lam * U * G[j] * V`` over the trace entries ``(lam, U, j, V)``
    plus the remainder, every rewritten word is bounded by the leading
    word of f, and no remainder word contains any leading word of G as
    a factor.  Divisor ties go to the least index, position ties to
    the leftmost occurrence.  ``G`` is prepared
    (:class:`_FreeDivisors`) unless it already is, for ``order``.
    """
    G = _FreeDivisors.of(G, order)
    first, lengths, leads, inverses = G.first, G.lengths, G.leads, G.inverses
    field = f.field
    p = field.characteristic
    key = order.key
    trace: List[Tuple[object, Word, int, Word]] = []
    rem: Dict[Letters, object] = {}
    # reduced in place; ``pending`` holds the (key, word) pairs of
    # ``work`` ascending, a pair whose term has cancelled is skipped
    work = dict(f.data)
    pending = sorted((key(w), w) for w in work)
    while pending:
        w = pending.pop()[1]
        c = work.get(w)
        if c is None:
            continue
        # the least divisor index with a leading word in w, at its
        # leftmost occurrence
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
            rem[w] = work.pop(w)
            continue
        lam = c * inverses[j]
        if p:
            lam %= p
        U, V = w[:k], w[k + len(leads[j]) :]
        trace.append((lam, Word(U), j, Word(V)))
        terms = [(U + gw + V, gc) for gw, gc in G[j].data.items()]
        for m, _ in terms:
            if m not in work:
                insort(pending, (key(m), m))
        _add_scaled(work, terms, -lam, p)
    return trace, FreePoly._of(field, f.n, rem)


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
    u = v = 1 is skipped.
    """
    if f.is_zero() or g.is_zero():
        raise SolvpolyError("overlap elements need nonzero inputs")
    w1 = f.lm(order).letters
    w2 = g.lm(order).letters
    p, q = len(w1), len(w2)
    inv_f = f.field.inverse(f.lc(order))
    inv_g = g.field.inverse(g.lc(order))
    out: List[OverlapElement] = []
    for k in range(max(0, p - q), p):
        if k == 0 and p == q and f == g:
            continue
        if w1[k:] != w2[: p - k]:
            continue
        v = Word(w1[:k])
        u = Word(w2[p - k :])
        if word_divides(w1, v.letters) or word_divides(w2, u.letters):
            continue
        value = f.sandwich(Word(), u).scale(inv_f) - g.sandwich(
            v, Word()
        ).scale(inv_g)
        out.append(OverlapElement(f, g, u, v, value, k))
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
    coefficient the presentation swaps X_i X_j with.
    """

    def __init__(
        self,
        verdict: str,
        overlaps_checked: int,
        failures: List[tuple],
        lambdas: Dict[Tuple[int, int], object],
    ):
        self.verdict = verdict
        self.overlaps_checked = overlaps_checked
        self.failures = failures
        self.lambdas = lambdas

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
    monic: Dict[Tuple[int, int], FreePoly] = {}
    lambdas: Dict[Tuple[int, int], object] = {}
    seen_pairs = set()
    for g in relations:
        if g.is_zero():
            raise ShapeViolation("zero relation")
        w = g.lm(order).letters
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
        gm = g.monic(order)
        lam = (-gm).coeff((i, j))
        if not lam:
            raise ShapeViolation(
                "relation with leading word X_%d*X_%d has zero "
                "coefficient on the swapped word" % (j + 1, i + 1)
            )
        monic[(j, i)] = gm
        lambdas[(j, i)] = lam
    keys = sorted(monic)
    basis = _FreeDivisors.of([monic[k] for k in keys], order)
    # X_j X_i can overlap only a leading word that starts with X_i:
    # the relations indexed by their first letter, ascending
    starting: Dict[int, List[int]] = {}
    for b, kb in enumerate(keys):
        starting.setdefault(kb[0], []).append(b)
    failures: List[tuple] = []
    checked = 0
    for a, ka in enumerate(keys):
        for b in starting.get(ka[1], ()):
            kb = keys[b]
            for o in overlap_elements(basis[a], basis[b], order):
                checked += 1
                _, r = free_divide(o.value, basis, order)
                if not r.is_zero():
                    failures.append((ka, kb, o.shift, r))
    verdict = "SolvableTypeCertified" if not failures else "NotCertified"
    return CertReport(verdict, checked, failures, lambdas)


# ---------------------------------------------------------------------------
# bounded completion
# ---------------------------------------------------------------------------


def _lm_reduce(G: List[FreePoly], order: WordOrder) -> List[FreePoly]:
    """Inter-reduce until no leading word divides another's."""
    basis = [g for g in G if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            others = basis[:idx] + basis[idx + 1 :]
            if not others:
                continue
            lw = basis[idx].lm(order).letters
            if not any(
                word_divides(o.lm(order).letters, lw) for o in others
            ):
                continue
            _, r = free_divide(basis[idx], others, order)
            if r.is_zero():
                basis.pop(idx)
            else:
                basis[idx] = r
            changed = True
            break
    return basis


def bounded_completion(
    G: Sequence[FreePoly], order: WordOrder, max_new: int = 256
) -> Tuple[List[FreePoly], bool]:
    """Diamond-lemma completion with a budget on added elements.

    Inter-reduces the input, then repeatedly reduces overlap elements
    and adjoins nonzero residuals, processing ambiguities in (left
    index, right index, shift) order.  Returns (basis, True) when no
    residual survives, or (partial basis, False) once more than
    ``max_new`` elements would be needed.  A nonzero constant, in the
    input or as a residual, generates the whole algebra: the basis is
    then ``[1]``, complete.
    """
    basis = _FreeDivisors.of(
        [g.monic(order) for g in _lm_reduce(list(G), order)], order
    )
    if not basis:
        return [], True
    for g in basis:
        if not g.lm(order).letters:
            return [g], True
    leads = basis.leads

    def overlaps(a: int, b: int) -> List[Tuple[int, int, int, FreePoly]]:
        """The queue items of the ordered pair (a, b).  An overlap at
        shift k needs lead a's letter k to start lead b, with k at least
        max(0, p - q) for leads of lengths p and q: a pair whose second
        lead's first letter is not among those letters of the first
        lead has none, and is not handed to ``overlap_elements``."""
        w1, w2 = leads[a], leads[b]
        if w2[0] not in w1[max(0, len(w1) - len(w2)):]:
            return []
        return [(a, b, o.shift, o.value)
                for o in overlap_elements(basis[a], basis[b], order)]

    queue: List[Tuple[int, int, int, FreePoly]] = []
    for a in range(len(basis)):
        for b in range(len(basis)):
            queue.extend(overlaps(a, b))
    queue.sort(key=lambda t: t[:3])
    added = 0
    while queue:
        _a, _b, _k, value = queue.pop(0)
        _, r = free_divide(value, basis, order)
        if r.is_zero():
            continue
        if added >= max_new:
            return list(basis), False
        r = r.monic(order)
        if not r.lm(order).letters:
            return [r], True
        basis.append(r)
        added += 1
        t = len(basis) - 1
        fresh: List[Tuple[int, int, int, FreePoly]] = []
        for a in range(len(basis)):
            fresh.extend(overlaps(a, t))
            if a != t:
                fresh.extend(overlaps(t, a))
        fresh.sort(key=lambda x: x[:3])
        queue.extend(fresh)
    return list(basis), True


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