"""Independent oracles for the test suite.

Everything here deliberately avoids the library's completion
machinery: the rank-one Weyl algebra acts on honest polynomials in
one variable, degree slices are enumerated by brute force, and kernel
dimensions come from exact row reduction over the coefficient field,
and products are rewritten word by word from the relation table.
Tests pit library answers against these.  The per-stage resolution
references (``reference_graded_betti``, ``reference_filtered_betti``
and ``minimal_standard_basis``) are the exception: they reuse the
library's completion, and avoid only the Schreyer frame and the
cancellation of its scalar entries.  The reference divisions
run term by term over whole immutable Vect, Poly and FreePoly
values, the reference overlaps are made from whole FreePoly values
too, the reference overlap check and the reference bounded completion
pair every two relations with neither the package's two-sided division
nor its overlaps, and
the reference associativity check multiplies out every generator
triple.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from solvpoly.algebra import Poly, SolvableAlgebra
from solvpoly.modfree import FreeModule, ModOrder, Vect, mono_divides
from solvpoly.presentation import FreePoly, Word, WordOrder


# ---------------------------------------------------------------------------
# the Weyl algebra acting on Q[t]
# ---------------------------------------------------------------------------

def differentiate(p: List[Fraction]) -> List[Fraction]:
    return [Fraction(k) * p[k] for k in range(1, len(p))]


def mult_t(p: List[Fraction]) -> List[Fraction]:
    return [Fraction(0)] + list(p)


def weyl_act(f: Poly, p: Sequence[Fraction]) -> List[Fraction]:
    """Apply an element of the rank-one Weyl algebra to p(t).

    The generators are read as x = multiplication by t and
    y = d/dt, so the basis monomial x^a y^b acts by
    p |-> t^a * p^(b).
    """
    acc: Dict[int, Fraction] = {}
    for (a, b), c in f.terms:
        q = [Fraction(v) for v in p]
        for _ in range(b):
            q = differentiate(q)
        for _ in range(a):
            q = mult_t(q)
        for k, v in enumerate(q):
            acc[k] = acc.get(k, Fraction(0)) + Fraction(c) * v
    top = max((k for k, v in acc.items() if v != 0), default=-1)
    return [acc.get(k, Fraction(0)) for k in range(top + 1)]


def t_power(k: int) -> List[Fraction]:
    return [Fraction(0)] * k + [Fraction(1)]


# ---------------------------------------------------------------------------
# products by rewriting words with the relation table
# ---------------------------------------------------------------------------

def _word(exp: Sequence[int]) -> Tuple[int, ...]:
    return tuple(i for i, k in enumerate(exp) for _ in range(k))


def reference_product(f: Poly, g: Poly) -> Poly:
    """f * g by rewriting words letter by letter: the first descent
    a_j a_i (j > i) of a word becomes lam a_i a_j + tail, until every
    word is ordered.  The normal form of each word met is kept, so a
    word reached along many rewriting paths is rewritten once.  Shares
    nothing with the library's monomial product or its cache;
    coefficients are field-checked Scalars."""
    A = f.algebra
    field = A.field
    forms: Dict[Tuple[int, ...], Dict[Tuple[int, ...], object]] = {}

    def rewrites(w):
        """[(word, Scalar)] one rewriting step gives w, or None when w
        is ordered."""
        k = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
        if k is None:
            return None
        rel = A.relations[(w[k], w[k + 1])]
        out = [(w[:k] + (w[k + 1], w[k]) + w[k + 2:], field.scalar(rel.lam))]
        for te, tc in rel.tail.terms:
            out.append((w[:k] + _word(te) + w[k + 2:], field.scalar(tc)))
        return out

    def normal_form(word):
        stack = [word]
        while stack:
            w = stack[-1]
            if w in forms:
                stack.pop()
                continue
            steps = rewrites(w)
            if steps is None:
                forms[w] = {tuple(w.count(i) for i in range(A.n)): field.one}
                stack.pop()
                continue
            missing = [v for v, _ in steps if v not in forms]
            if missing:
                stack.extend(missing)
                continue
            total: Dict[Tuple[int, ...], object] = {}
            for v, c in steps:
                for e, x in forms[v].items():
                    s = total.get(e)
                    total[e] = c * x if s is None else s + c * x
            forms[w] = total
            stack.pop()
        return forms[word]

    done: Dict[Tuple[int, ...], object] = {}
    for ea, ca in f.terms:
        for eb, cb in g.terms:
            c = field.scalar(ca) * field.scalar(cb)
            for e, x in normal_form(_word(ea) + _word(eb)).items():
                s = done.get(e)
                done[e] = c * x if s is None else s + c * x
    return A.from_terms((e, c.value) for e, c in done.items()
                        if not c.is_zero())


# ---------------------------------------------------------------------------
# degree slices by brute enumeration
# ---------------------------------------------------------------------------

def exponents_of_degree(weights: Sequence[int], q: int) -> List[Tuple[int, ...]]:
    """All exponent tuples with weighted degree exactly q."""
    n = len(weights)
    out: List[Tuple[int, ...]] = []

    def rec(i: int, left: int, prefix: Tuple[int, ...]) -> None:
        if i == n:
            if left == 0:
                out.append(prefix)
            return
        w = weights[i]
        for e in range(left // w + 1):
            rec(i + 1, left - e * w, prefix + (e,))

    rec(0, q, ())
    return out


def algebra_weights(A: SolvableAlgebra) -> Tuple[int, ...]:
    d = A.degree_function
    if d is None:
        raise ValueError("the oracle needs a positive degree function")
    return tuple(d(tuple(1 if j == i else 0 for j in range(A.n)))
                 for i in range(A.n))


def module_slice(L: FreeModule, q: int) -> List[Tuple[Tuple[int, ...], int]]:
    """Module monomials (exp, comp) of shifted degree exactly q."""
    weights = algebra_weights(L.algebra)
    out = []
    for comp in range(L.rank):
        rest = q - L.shifts[comp]
        if rest < 0:
            continue
        for exp in exponents_of_degree(weights, rest):
            out.append((exp, comp))
    return out


# ---------------------------------------------------------------------------
# exact linear algebra over the coefficient field
# ---------------------------------------------------------------------------

def echelon_rank(rows: Iterable[Dict]) -> int:
    """Rank of a family of sparse vectors keyed by sortable labels."""
    pivots: Dict = {}
    rank = 0
    for raw in rows:
        row = {k: c for k, c in raw.items() if not c.is_zero()}
        while row:
            key = max(row)
            if key not in pivots:
                inv = row[key].inverse()
                pivots[key] = {k: c * inv for k, c in row.items()}
                rank += 1
                break
            factor = row[key]
            for k, c in pivots[key].items():
                s = row.get(k)
                s = (-(factor * c)) if s is None else s - factor * c
                if s.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = s
        # an emptied row is dependent; move on
    return rank


def vect_row(v: Vect) -> Dict:
    field = v.module.algebra.field
    return {(comp, exp): field.scalar(c) for (exp, comp), c in v.data.items()}


def span_slice_rank(gens: Sequence[Vect], q: int) -> int:
    """Dimension of the degree-q slice of the left span of gens.

    Only meaningful when every generator is homogeneous; the slice is
    spanned by monomial multiples landing in degree q.
    """
    if not gens:
        return 0
    L = gens[0].module
    A = L.algebra
    weights = algebra_weights(A)
    rows = []
    for g in gens:
        d = L.degree(g)
        if d > q:
            continue
        for exp in exponents_of_degree(weights, q - d):
            rows.append(vect_row(g.lmul(A.monomial(exp))))
    return echelon_rank(rows)


def kernel_slice_dim(gens: Sequence[Vect], q: int) -> int:
    """dim of the degree-q slice of the syzygy module of gens.

    The source is the free module with one slot per generator,
    shifted by the generator degrees; the kernel dimension is the
    slice dimension of the source minus the rank of the image.
    """
    if not gens:
        return 0
    L = gens[0].module
    A = L.algebra
    weights = algebra_weights(A)
    degrees = [L.degree(g) for g in gens]
    source_dim = 0
    rows = []
    for i, g in enumerate(gens):
        rest = q - degrees[i]
        if rest < 0:
            continue
        for exp in exponents_of_degree(weights, rest):
            source_dim += 1
            rows.append(vect_row(g.lmul(A.monomial(exp))))
    return source_dim - echelon_rank(rows)


def quotient_slice_dim(L: FreeModule, gens: Sequence[Vect], q: int) -> int:
    """dim of the degree-q slice of L / <gens> for homogeneous gens."""
    return len(module_slice(L, q)) - span_slice_rank(list(gens), q)


def euler_characteristic_ok(ranks: Sequence[int],
                            shift_lists: Sequence[Sequence[int]],
                            L0: FreeModule,
                            gens: Sequence[Vect],
                            q_max: int) -> bool:
    """Degreewise alternating-sum check of a graded resolution.

    For an exact complex resolving L0/<gens>, the alternating sum of
    the slice dimensions of the free stages must equal the quotient
    slice dimension in every degree.
    """
    A = L0.algebra
    for q in range(q_max + 1):
        total = 0
        sign = 1
        for shifts in shift_lists:
            stage = FreeModule(A, max(1, len(shifts)),
                               tuple(shifts) if shifts else (0,))
            dim = len(module_slice(stage, q)) if shifts else 0
            total += sign * dim
            sign = -sign
        if total != quotient_slice_dim(L0, gens, q):
            return False
    return True


# ---------------------------------------------------------------------------
# reference left division over whole Vect and Poly values
# ---------------------------------------------------------------------------

def reference_left_divide(xi: Vect, divisors: Sequence[Vect],
                          order: ModOrder,
                          steps: Optional[List[frozenset]] = None
                          ) -> Tuple[List[Poly], Vect]:
    """Term-by-term left division: take the leading term of what is
    left, cancel it with the least-index divisor whose leading monomial
    divides it, or move it to the remainder.  ``steps``, when given,
    receives the monomials left after every step."""
    module = xi.module
    A = module.algebra
    lms = [d.lm(order) for d in divisors]
    quotients = [A.zero() for _ in divisors]
    remainder = module.zero()
    work = xi
    while not work.is_zero():
        wm = work.lm(order)
        hit = next((i for i, dm in enumerate(lms) if mono_divides(dm, wm)),
                   None)
        if hit is None:
            t = Vect(module, {wm: work.data[wm]})
            remainder = remainder + t
            work = work - t
            continue
        alpha = tuple(w - d for w, d in zip(wm[0], lms[hit][0]))
        prod = divisors[hit].lmul(A.monomial(alpha))
        field = A.field
        c = (field.scalar(work.data[wm]) / field.scalar(prod.data[wm])).value
        quotients[hit] = quotients[hit] + A.monomial(alpha, c)
        work = work - prod.scale(c)
        if steps is not None:
            steps.append(frozenset(work.data))
    return quotients, remainder


# ---------------------------------------------------------------------------
# reference two-sided division and the all-pairs overlap check
# ---------------------------------------------------------------------------

def reference_free_divide(f: FreePoly, G: Sequence[FreePoly],
                          order: WordOrder):
    """Term-by-term two-sided division: take the leading word of what
    is left, cancel it with the least-index divisor whose leading word
    occurs in it, at its leftmost occurrence, or move it to the
    remainder.  Returns (trace, remainder) as ``free_divide`` does."""
    field = f.field
    leads = [g.lm(order).letters for g in G]
    trace = []
    remainder = FreePoly(field, f.n)
    work = f
    while not work.is_zero():
        w = work.lm(order).letters
        hit = next(((j, k) for j, u in enumerate(leads) if u
                    for k in range(len(w) - len(u) + 1)
                    if w[k:k + len(u)] == u), None)
        if hit is None:
            t = FreePoly(field, f.n, {w: work.data[w]})
            remainder = remainder + t
            work = work - t
            continue
        j, k = hit
        U, V = Word(w[:k]), Word(w[k + len(leads[j]):])
        lam = (field.scalar(work.data[w])
               / field.scalar(G[j].data[leads[j]])).value
        trace.append((lam, U, j, V))
        work = work - G[j].sandwich(U, V).scale(lam)
    return trace, remainder


def reference_overlaps(f: FreePoly, g: FreePoly, order: WordOrder):
    """``(shift, u, v, value)`` for every overlap LM(f)*u = v*LM(g) with
    neither leading word a factor of the opposite cofactor, the trivial
    u = v = 1 skipped for f = g, shifts ascending: the value
    f*u/lc(f) - v*g/lc(g) made on whole FreePoly values."""
    w1, w2 = f.lm(order).letters, g.lm(order).letters
    p, q = len(w1), len(w2)
    out = []
    for k in range(max(0, p - q), p):
        v, u = w1[:k], w2[p - k:]
        if (k == 0 and p == q and f == g) or w1 + u != v + w2 or any(
                x[i:i + len(y)] == y for x, y in ((v, w1), (u, w2))
                for i in range(len(x) - len(y) + 1)):
            continue
        value = (f.sandwich(Word(), Word(u)).scale(f.field.inverse(
            f.lc(order))) - g.sandwich(Word(v), Word()).scale(
            g.field.inverse(g.lc(order))))
        out.append((k, Word(u), Word(v), value))
    return out


def reference_overlap_check(relations: Sequence[FreePoly],
                            order: WordOrder):
    """The diamond-lemma check over all ordered pairs of relations.

    The relations are made monic and sorted by leading word; every
    ordered pair goes through ``reference_overlaps`` and every overlap
    element through ``reference_free_divide``.  Returns (overlaps
    checked, failures), a failure being (left leading word, right
    leading word, shift, residual)."""
    basis = sorted((g.monic(order) for g in relations),
                   key=lambda g: g.lm(order).letters)
    leads = [g.lm(order).letters for g in basis]
    checked, failures = 0, []
    for a, f in enumerate(basis):
        for b, g in enumerate(basis):
            for k, _, _, value in reference_overlaps(f, g, order):
                checked += 1
                _, r = reference_free_divide(value, basis, order)
                if not r.is_zero():
                    failures.append((leads[a], leads[b], k, r))
    return checked, failures


def reference_lm_reduce(G: Sequence[FreePoly],
                        order: WordOrder) -> List[FreePoly]:
    """Inter-reduction, pass by pass: the first element that holds
    another element's leading word as a factor of its own is replaced,
    in its place, by its ``reference_free_divide`` remainder by all the
    others, or dropped when that is zero; until no element has one."""
    basis = [g for g in G if not g.is_zero()]
    while True:
        leads = [g.lm(order).letters for g in basis]
        idx = next((a for a, w in enumerate(leads)
                    if any(u and b != a and any(
                        w[k:k + len(u)] == u
                        for k in range(len(w) - len(u) + 1))
                        for b, u in enumerate(leads))), None)
        if idx is None:
            return basis
        _, r = reference_free_divide(basis[idx],
                                     basis[:idx] + basis[idx + 1:], order)
        basis[idx:idx + 1] = [r] if not r.is_zero() else []


def reference_bounded_completion(G: Sequence[FreePoly], order: WordOrder,
                                 max_new: int = 256):
    """``bounded_completion`` as it stood before it filtered its pairs:
    every ordered pair of elements goes through ``reference_overlaps``,
    and every overlap element through ``reference_free_divide``, after
    the inter-reduction of ``reference_lm_reduce``."""
    basis = [g.monic(order) for g in reference_lm_reduce(G, order)]
    if not basis:
        return [], True
    for g in basis:
        if not g.lm(order).letters:
            return [g], True

    def items(a, b):
        return [(a, b, k, value) for k, _, _, value
                in reference_overlaps(basis[a], basis[b], order)]

    queue = sorted((item for a in range(len(basis))
                    for b in range(len(basis)) for item in items(a, b)),
                   key=lambda t: t[:3])
    added = 0
    while queue:
        _, r = reference_free_divide(queue.pop(0)[3], basis, order)
        if r.is_zero():
            continue
        if added >= max_new:
            return basis, False
        r = r.monic(order)
        if not r.lm(order).letters:
            return [r], True
        basis.append(r)
        added += 1
        t = len(basis) - 1
        fresh = []
        for a in range(len(basis)):
            fresh += items(a, t)
            if a != t:
                fresh += items(t, a)
        queue.extend(sorted(fresh, key=lambda x: x[:3]))
    return basis, True


def reference_associativity(A: SolvableAlgebra) -> Optional[str]:
    """The message ``check_associative`` raises for the first generator
    triple i < j < k with ``(a_k a_j) a_i != a_k (a_j a_i)``, every
    triple checked, or None when all associate."""
    gens = [A.gen(i) for i in range(A.n)]
    for i, j, k in combinations(range(A.n), 3):
        xi, xj, xk = gens[i], gens[j], gens[k]
        diff = A.multiply(A.multiply(xk, xj), xi) - A.multiply(
            xk, A.multiply(xj, xi))
        if not diff.is_zero():
            a, b, c = A.names[k], A.names[j], A.names[i]
            return "(%s*%s)*%s - %s*(%s*%s) = %s" % (
                a, b, c, a, b, c, A.poly_str(diff))
    return None


# ---------------------------------------------------------------------------
# reference completion: the plain pair loop
# ---------------------------------------------------------------------------

def reference_buchberger(inputs: Sequence[Vect], order: ModOrder,
                         truncate: Optional[int] = None) -> List[Vect]:
    """Left Groebner basis by the plain pair loop, with no criterion.

    Every nonzero input joins the basis monic, and every pair of basis
    elements leading in the same component is reduced, first in first
    out, by :func:`reference_left_divide`; a nonzero remainder joins
    the basis monic and makes new pairs.  With ``truncate`` (a graded
    order and homogeneous inputs) the inputs and pairs of degree above
    it are dropped.
    """
    basis: List[Vect] = []
    pairs: List[Tuple[int, int]] = []

    def add(v: Vect) -> None:
        pairs.extend((i, len(basis)) for i in range(len(basis)))
        field = v.module.algebra.field
        basis.append(v.scale(field.scalar(v.lc(order)).inverse().value))

    for v in inputs:
        if v.is_zero():
            continue
        if truncate is None or max(map(order.degree_of, v.data)) <= truncate:
            add(v)
    while pairs:
        i, j = pairs.pop(0)
        (ei, ci), (ej, cj) = basis[i].lm(order), basis[j].lm(order)
        if ci != cj:
            continue
        gamma = tuple(max(a, b) for a, b in zip(ei, ej))
        if truncate is not None and order.degree_of((gamma, ci)) > truncate:
            continue
        A = basis[i].module.algebra
        monic = []
        for g, e in ((basis[i], ei), (basis[j], ej)):
            p = g.lmul(A.monomial(tuple(c - d for c, d in zip(gamma, e))))
            monic.append(
                p.scale(A.field.scalar(p.data[(gamma, ci)]).inverse().value))
        _, rem = reference_left_divide(monic[0] - monic[1], basis, order)
        if not rem.is_zero():
            add(rem)
    return basis


def reference_schreyer_rows(G) -> List[Vect]:
    """One Schreyer row per pair i < j of elements of the left Groebner
    basis ``G`` that lead in the same component, with no pair left out.

    The S-vector ``m_i g_i - m_j g_j``, each multiplier
    ``m = s a^(gamma-alpha)`` scaled so its product is monic at gamma,
    is divided by :func:`reference_left_divide`; the row is the
    quotients minus ``m_i e_i`` plus ``m_j e_j``, in the syzygy module
    shifted by the degrees of the leads, as
    :func:`solvpoly.syzres.syzygy_of_gb` shifts it.
    """
    order, elements = G.order, G.elements
    A = G.module.algebra
    lms = [g.lm(order) for g in elements]
    module = FreeModule(A, len(elements),
                        shifts=[order.degree_of(m) for m in lms])
    rows = []
    for j, (ej, cj) in enumerate(lms):
        for i, (ei, ci) in enumerate(lms[:j]):
            if ci != cj:
                continue
            gamma = tuple(max(a, b) for a, b in zip(ei, ej))
            multipliers = []
            for k, e in ((i, ei), (j, ej)):
                alpha = tuple(c - d for c, d in zip(gamma, e))
                p = elements[k].lmul(A.monomial(alpha))
                inv = A.field.scalar(p.data[(gamma, ci)]).inverse().value
                multipliers.append(A.monomial(alpha, inv))
            mi, mj = multipliers
            S = elements[i].lmul(mi) - elements[j].lmul(mj)
            quotients, rem = reference_left_divide(S, elements, order)
            assert rem.is_zero(), "an S-vector does not reduce to zero"
            quotients[i] = quotients[i] - mi
            quotients[j] = quotients[j] + mj
            rows.append(module.from_polys(quotients))
    return rows


# ---------------------------------------------------------------------------
# matrices over the algebra
# ---------------------------------------------------------------------------

def reference_matrix_product(A: SolvableAlgebra, left: Sequence[Sequence[Poly]],
                             right: Sequence[Sequence[Poly]],
                             cols: int) -> List[List[Poly]]:
    """left * right entry by entry, each product by
    :func:`reference_product`; ``cols`` is the width of ``right``, which
    a matrix with no rows cannot tell."""
    out = []
    for row in left:
        entries = [A.zero() for _ in range(cols)]
        for f, other in zip(row, right):
            for j, g in enumerate(other):
                entries[j] = entries[j] + reference_product(f, g)
        out.append(entries)
    return out


def chain_composes_to_zero(R) -> bool:
    """Consecutive maps of a resolution multiply to zero under
    :func:`reference_matrix_product`, not under ``compose_with``."""
    A = R.modules[0].algebra
    for upper, lower in zip(R.maps[1:], R.maps):
        product = reference_matrix_product(
            A, upper.entries, lower.entries, lower.cols)
        if not all(f.is_zero() for row in product for f in row):
            return False
    return True


def reference_prune_unit_pivots(L: FreeModule, gens: Sequence[Vect]):
    """Unit-pivot pruning as it ran with rows kept as ``{component:
    Poly}`` dicts and a per-component subtract-and-multiply loop, its
    products by :func:`reference_product`.  Same result tuple as
    ``solvpoly.graded.prune_unit_pivots``."""
    A = L.algebra
    d = A.degree_function
    work: List[Dict[int, Poly]] = []
    origin: List[int] = []
    for k, v in enumerate(gens):
        if not v.is_zero():
            work.append({c: v.component(c) for c in range(L.rank)
                         if not v.component(c).is_zero()})
            origin.append(k)
    alive = list(range(L.rank))
    eliminations: List[Tuple[int, Vect]] = []
    pivots: List[int] = []

    def find_pivot() -> Optional[Tuple[int, int]]:
        for j, coords in enumerate(work):
            qj = max(d(exp) + L.shifts[c]
                     for c, f in coords.items() for exp, _x in f.terms)
            for i in sorted(coords):
                f = coords[i]
                if (len(f.terms) == 1
                        and all(x == 0 for x in f.terms[0][0])
                        and L.shifts[i] == qj):
                    return i, j
        return None

    while True:
        hit = find_pivot()
        if hit is None:
            break
        i, j = hit
        pivot = work[j]
        inv = A.field.inverse(pivot[i].coeff(tuple([0] * A.n)))
        eliminations.append(
            (i, L.from_polys([pivot.get(c, A.zero()) for c in range(L.rank)])))
        pivots.append(origin[j])
        new_work: List[Dict[int, Poly]] = []
        new_origin: List[int] = []
        for l, coords in enumerate(work):
            if l == j:
                continue
            f_il = coords.get(i)
            if f_il is None:
                new_work.append(coords)
                new_origin.append(origin[l])
                continue
            factor = f_il.scale(inv)
            out: Dict[int, Poly] = {}
            for c in set(coords) | set(pivot):
                if c == i:
                    continue
                cur = coords.get(c, A.zero())
                sub = pivot.get(c)
                if sub is not None:
                    cur = cur - reference_product(factor, sub)
                if not cur.is_zero():
                    out[c] = cur
            if out:
                new_work.append(out)
                new_origin.append(origin[l])
        work, origin = new_work, new_origin
        alive.remove(i)

    if not alive:
        return [], None, [], eliminations, pivots
    new_module = FreeModule(A, len(alive), shifts=[L.shifts[c] for c in alive])
    reindex = {c: pos for pos, c in enumerate(alive)}
    new_gens: List[Vect] = []
    for coords in work:
        polys = [A.zero()] * len(alive)
        for c, f in coords.items():
            polys[reindex[c]] = f
        new_gens.append(new_module.from_polys(polys))
    return alive, new_module, new_gens, eliminations, pivots


# ---------------------------------------------------------------------------
# minimal graded resolutions stage by stage
# ---------------------------------------------------------------------------

def reference_graded_betti(L0: FreeModule,
                           gens: Sequence[Vect]) -> Dict[int, Dict[int, int]]:
    """Betti table of the minimal graded resolution of L0 / <gens>, in the
    form of ``solvpoly.graded.betti_table``, by the per-stage route:
    after pruning the unit relations of the presentation, every stage
    keeps a minimal homogeneous generating set of the current kernel
    (the inputs kept by a full ``degree_driven_completion``) and lifts
    the syzygies of the kept elements (``syzygy_of_generators``).
    Shares no code with the cancellation of scalar entries in a
    Schreyer resolution."""
    from solvpoly.graded import min_gens_quotient
    from solvpoly.groebner import degree_driven_completion
    from solvpoly.syzres import syzygy_of_generators

    qm = min_gens_quotient(L0, gens)
    if not qm.kept:
        return {}
    module, U = qm.new_module, qm.gens
    shift_lists = [module.shifts]
    for _ in range(L0.algebra.n + 2):
        if not U:
            break
        order = ModOrder("top", L0.algebra.order, module.rank, graded=True,
                         shifts=module.shifts)
        kept = [U[j] for j in degree_driven_completion(U, order)[2]]
        syz = syzygy_of_generators(kept, order)
        module, U = syz.module, syz.elements
        shift_lists.append(module.shifts)
    assert not U, "the reference resolution did not end"
    return {pos: dict(Counter(shifts))
            for pos, shifts in enumerate(shift_lists)}


def minimal_standard_basis(ctx, gens: Sequence[Vect]) -> List[Vect]:
    """A minimal standard basis of the submodule generated by ``gens``.

    Completes to a left Groebner basis under the shifted-degree-first
    order, maps the basis to the associated graded module, keeps the
    members surviving the degree-driven minimal-generator selection
    there, and pulls the kept indices back.
    """
    from solvpoly.filtered import _require_context_algebra, sigma
    from solvpoly.graded import _graded_order
    from solvpoly.groebner import buchberger, degree_driven_completion

    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    module = gens[0].module
    _require_context_algebra(ctx, module)
    order = _graded_order(module)
    completed = buchberger(gens, order)
    U = completed.elements
    graded_U = [sigma(ctx, u) for u in U]
    gorder = _graded_order(graded_U[0].module)
    bound = max(
        gorder.degree_of(m) for v in graded_U for m in v.data
    )
    _, _, kept = degree_driven_completion(graded_U, gorder, cap=bound)
    return [U[j] for j in kept]


def reference_filtered_betti(ctx, L0: FreeModule,
                             gens: Sequence[Vect]) -> Dict[int, Dict[int, int]]:
    """Betti table of the minimal filtered resolution of L0 / <gens>, in
    the form of ``solvpoly.graded.betti_table``, by the per-stage route:
    the presentation completed to a standard basis and pruned
    (``minimal_F_basis``), then at every stage a minimal standard basis
    of the current kernel (``minimal_standard_basis``) and the lift of
    its syzygies through V (``syzygy_of_generators``).  Shares no code
    with the Schreyer frame or the cancellation of its scalar entries."""
    from solvpoly.filtered import minimal_F_basis
    from solvpoly.groebner import buchberger
    from solvpoly.syzres import syzygy_of_generators

    def graded_order(module):
        return ModOrder("top", L0.algebra.order, module.rank, graded=True,
                        shifts=module.shifts)

    U = [v for v in gens if not v.is_zero()]
    if not U:
        return {0: dict(Counter(L0.shifts))}
    pruned = minimal_F_basis(ctx, L0, buchberger(U, graded_order(L0)).elements)
    if not pruned.kept:
        return {}
    module, U = pruned.new_module, pruned.gens
    shift_lists = [module.shifts]
    for _ in range(L0.algebra.n + 2):
        if not U:
            break
        W = minimal_standard_basis(ctx, U)
        syz = syzygy_of_generators(W, graded_order(module))
        module, U = syz.module, syz.elements
        shift_lists.append(module.shifts)
    assert not U, "the reference resolution did not end"
    return {pos: dict(Counter(shifts))
            for pos, shifts in enumerate(shift_lists)}

