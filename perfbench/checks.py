"""Independent answer checks for every operation of the benchmark.

The checks read the package's canonical JSON and verify it with the
reference arithmetic of ``refalg.py``: closed-form products of the q-plane,
the skew polynomial rings and the Weyl algebra, the action of U(sl2) on its
irreducible modules, and the action of the Weyl algebra on polynomials.
None of them calls ``solvpoly`` or compares against stored output.

``check_workload`` returns one verdict per operation: None when the output
passes, else the reason it does not.
"""

import copy
import json
import os
import re
from fractions import Fraction
from math import comb

import refalg

# -- the problem a verdict is about -------------------------------------------


class Problem:
    def __init__(self, cdir, name, meta, prime):
        with open(os.path.join(cdir, name + ".json")) as fh:
            self.doc = json.load(fh)
        self.name = name
        self.meta = meta
        self.names = self.doc["generators"]
        self.F = refalg.Field(prime if meta["field"] == "p" else 0)
        self.rank = self.doc["module"].get("rank", 1)

    def poly(self, text):
        return refalg.parse_poly(self.F, self.names, text)

    def vect(self, entry):
        """A module element as a list of polynomials."""
        if isinstance(entry, str):
            entry = [entry]
        return [self.poly(s) for s in entry]

    def inputs(self):
        return [self.vect(g) for g in self.doc["submodule_generators"]]

    def element(self):
        return self.vect(self.doc["options"]["element"])


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# -- module arithmetic over a closed-form product ------------------------------

def lin_comb(F, product, coeffs, vects, rank):
    """sum_j coeffs[j] * vects[j], coefficients multiplying from the left."""
    out = [{} for _ in range(rank)]
    for c, v in zip(coeffs, vects):
        if not c:
            continue
        for comp in range(rank):
            part = refalg.mul_with(F, product, c, v[comp])
            out[comp] = refalg.padd(F, out[comp], part)
    return out


def to_terms(v):
    return {(e, comp): c for comp, f in enumerate(v) for e, c in f.items()}


def reduce_to_remainder(F, product, kind, basis, v):
    """Remainder of v under top-reduction by ``basis`` in order ``kind``."""
    key = lambda m: refalg.module_key(kind, m)  # noqa: E731
    lead = []
    for b in basis:
        terms = to_terms(b)
        m = max(terms, key=key)
        lead.append((m, terms))
    work = to_terms(v)
    rem = {}
    while work:
        m = max(work, key=key)
        for (lm, terms) in lead:
            if lm[1] == m[1] and all(a <= b for a, b in zip(lm[0], m[0])):
                alpha = tuple(b - a for a, b in zip(lm[0], m[0]))
                prod = {}
                for (e, comp), c in terms.items():
                    for e2, k in product(alpha, e):
                        key2 = (e2, comp)
                        val = F.add(prod.get(key2, 0), F.mul(c, F.norm(k)))
                        if val:
                            prod[key2] = val
                        else:
                            prod.pop(key2, None)
                factor = F.mul(work[m], F.inv(prod[m]))
                for mm, c in prod.items():
                    val = F.add(work.get(mm, 0), F.neg(F.mul(factor, c)))
                    if val:
                        work[mm] = val
                    else:
                        work.pop(mm, None)
                break
        else:
            rem[m] = work.pop(m)
    return rem


def s_vector(F, product, kind, a, b):
    ta, tb = to_terms(a), to_terms(b)
    key = lambda m: refalg.module_key(kind, m)  # noqa: E731
    ma, mb = max(ta, key=key), max(tb, key=key)
    if ma[1] != mb[1]:
        return None
    gamma = tuple(max(x, y) for x, y in zip(ma[0], mb[0]))
    out = []
    for v, m in ((a, ma), (b, mb)):
        mono = {tuple(g - x for g, x in zip(gamma, m[0])): F.make(1)}
        pv = lin_comb(F, product, [mono], [v], len(v))
        lc = pv[m[1]][gamma]
        out.append([refalg.pscale(F, f, F.inv(lc)) for f in pv])
    return [refalg.padd(F, x, y, F.neg(F.make(1)))
            for x, y in zip(out[0], out[1])]


def check_transition(F, product, inputs, elements, V, U, rank):
    """elements = V * inputs and inputs = U * elements."""
    for i, (row, g) in enumerate(zip(V, elements)):
        expect(lin_comb(F, product, row, inputs, rank) == g,
               "basis element %d is not V[%d] * inputs" % (i, i))
    expect(U is not None, "no U matrix")
    for j, (row, x) in enumerate(zip(U, inputs)):
        expect(lin_comb(F, product, row, elements, rank) == x,
               "input %d is not U[%d] * basis" % (j, j))


def gb_parts(P, out):
    expect(out["reduced"] is True, "basis not flagged reduced")
    elements = [P.vect(g) for g in out["basis"]]
    V = [[P.poly(s) for s in row] for row in out["V"]]
    U = None if out["U"] is None else [[P.poly(s) for s in row]
                                       for row in out["U"]]
    expect(len(V) == len(elements), "V has %d rows for %d elements"
           % (len(V), len(elements)))
    expect(all(any(v) for v in elements), "zero basis element")
    return elements, V, U


# -- U(sl2) on its irreducible modules ------------------------------------------

def sl2_rep(F, k):
    """e, f, h on V_k: h v_i = (k-1-2i) v_i, f v_i = v_(i+1),
    e v_i = i (k - i) v_(i-1)."""
    zero = F.make(0)
    E = [[zero] * k for _ in range(k)]
    Fm = [[zero] * k for _ in range(k)]
    H = [[zero] * k for _ in range(k)]
    for i in range(k):
        H[i][i] = F.make(k - 1 - 2 * i)
        if i + 1 < k:
            Fm[i + 1][i] = F.make(1)
        if i > 0:
            E[i - 1][i] = F.make(i * (k - i))
    return E, Fm, H


def mat_mul(F, a, b):
    n = len(a)
    return [[_dot(F, a[i], [b[t][j] for t in range(n)]) for j in range(n)]
            for i in range(n)]


def _dot(F, row, col):
    s = F.make(0)
    for x, y in zip(row, col):
        if x and y:
            s = F.add(s, F.mul(x, y))
    return s


class Sl2Action:
    """Polynomials in e, f, h (normal order e^a f^b h^c) acting on V_k."""

    def __init__(self, F, k):
        self.F = F
        self.k = k
        self.gens = sl2_rep(F, k)
        one = [[F.make(int(i == j)) for j in range(k)] for i in range(k)]
        self.powers = [[one] for _ in range(3)]
        self.monos = {}

    def power(self, g, a):
        table = self.powers[g]
        while len(table) <= a:
            table.append(mat_mul(self.F, table[-1], self.gens[g]))
        return table[a]

    def mono(self, exp):
        if exp not in self.monos:
            m = self.power(0, exp[0])
            m = mat_mul(self.F, m, self.power(1, exp[1]))
            self.monos[exp] = mat_mul(self.F, m, self.power(2, exp[2]))
        return self.monos[exp]

    def of(self, f):
        F, k = self.F, self.k
        acc = [[F.make(0)] * k for _ in range(k)]
        for exp, c in f.items():
            m = self.mono(exp)
            for i in range(k):
                for j in range(k):
                    if m[i][j]:
                        acc[i][j] = F.add(acc[i][j], F.mul(c, m[i][j]))
        return acc

    def is_zero(self, f):
        return not any(any(row) for row in self.of(f))

    def combo_is_zero(self, coeffs, polys):
        """sum_j coeffs[j] * polys[j] acts as zero."""
        F, k = self.F, self.k
        acc = [[F.make(0)] * k for _ in range(k)]
        for c, p in zip(coeffs, polys):
            if not c or not p:
                continue
            m = mat_mul(F, self.of(c), self.of(p))
            for i in range(k):
                for j in range(k):
                    acc[i][j] = F.add(acc[i][j], m[i][j])
        return not any(any(row) for row in acc)


def leading_exp(f):
    return max(f, key=refalg.grlex_key)


def staircase_size(lms, n):
    """Number of standard monomials, or None if there are infinitely many."""
    pure = [None] * n
    for e in lms:
        nz = [i for i in range(n) if e[i]]
        if len(nz) == 1:
            i = nz[0]
            pure[i] = e[i] if pure[i] is None else min(pure[i], e[i])
        elif not nz:
            return 0
    if None in pure:
        return None
    count = 0
    stack = [()]
    while stack:
        pre = stack.pop()
        if len(pre) == n:
            if not any(all(a <= b for a, b in zip(m, pre)) for m in lms):
                count += 1
            continue
        for v in range(pure[len(pre)]):
            stack.append(pre + (v,))
    return count


# -- the Weyl algebra on polynomials -------------------------------------------

def weyl_apply(F, n, op, f):
    """x^a d^b acting on f in x_1..x_n: differentiate, then multiply."""
    out = {}
    for exp, c in op.items():
        xs, ds = exp[:n], exp[n:]
        for m, v in f.items():
            if any(m[i] < ds[i] for i in range(n)):
                continue
            coef = F.mul(c, v)
            for i in range(n):
                coef = F.mul(coef, F.make(_falling(m[i], ds[i])))
            key = tuple(m[i] - ds[i] + xs[i] for i in range(n))
            out = refalg.padd(F, out, {key: coef})
    return out


def _falling(m, d):
    r = 1
    for t in range(d):
        r *= m - t
    return r


def gkz_solution(P):
    n = len(P.meta["A"][0])
    xs = ["x%d" % (i + 1) for i in range(n)]
    return n, refalg.parse_poly(P.F, xs, P.meta["solution"])


def annihilates(P, polys):
    n, sol = gkz_solution(P)
    return [weyl_apply(P.F, n, p, sol) == {} for p in polys]


# -- per family ---------------------------------------------------------------

def product_of(P):
    fam = P.meta["family"]
    if fam in ("c44", "skew"):
        return refalg.skew_product(P.meta["q"])
    if fam == "gkz":
        return refalg.weyl_product(len(P.names) // 2)
    return None


def check_gb(P, out, ctx):
    elements, V, U = gb_parts(P, out)
    inputs = P.inputs()
    fam = P.meta["family"]
    product = product_of(P)
    if product is not None:
        check_transition(P.F, product, inputs, elements, V, U, P.rank)
    if fam == "c44":
        kind = P.doc["module"]["order"]["kind"]
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                s = s_vector(P.F, product, kind, elements[i], elements[j])
                if s is None or not any(s):
                    continue
                rem = reduce_to_remainder(P.F, product, kind, elements, s)
                expect(not rem, "S-vector of %d and %d does not reduce to 0"
                       % (i, j))
    elif fam == "sl2":
        k = P.meta["k"]
        act = Sl2Action(P.F, k)
        polys = [g[0] for g in elements]
        expect(all(act.is_zero(g) for g in polys),
               "a basis element acts nonzero on V_%d" % k)
        size = staircase_size([leading_exp(g) for g in polys], 3)
        expect(size == k * k, "staircase has %s standard monomials, want %d"
               % (size, k * k))
        # elements = V * inputs and inputs = U * elements, seen on V_(k+1)
        big = Sl2Action(P.F, k + 1)
        gens = [g[0] for g in inputs]
        for i, (row, g) in enumerate(zip(V, polys)):
            expect(big.combo_is_zero(row + [{(0, 0, 0): P.F.make(-1)}],
                                     gens + [g]),
                   "basis element %d is not V[%d] * inputs on V_%d"
                   % (i, i, k + 1))
        expect(U is not None, "no U matrix")
        for j, (row, g) in enumerate(zip(U, gens)):
            expect(big.combo_is_zero(row + [{(0, 0, 0): P.F.make(-1)}],
                                     polys + [g]),
                   "input %d is not U[%d] * basis on V_%d" % (j, j, k + 1))
    elif fam == "gkz":
        expect(all(annihilates(P, [g[0] for g in inputs])),
               "the reference solution is not a solution of the inputs")
        expect(all(annihilates(P, [g[0] for g in elements])),
               "a basis element does not annihilate the solution")
    ctx.setdefault("bases", {})[P.name] = elements


def check_member(P, out, ctx):
    member = P.meta["member"]
    expect(out["member"] is member, "member is %r, want %r"
           % (out["member"], member))
    nf = out["normal_form"]
    nf = P.vect(nf)
    xi = P.element()
    if member:
        expect(not any(nf), "member with a nonzero normal form")
        return
    expect(any(nf), "non-member with a zero normal form")
    fam = P.meta["family"]
    if fam == "sl2":
        expect(not Sl2Action(P.F, P.meta["k"]).is_zero(xi[0]),
               "non-member acts as zero on V_k")
    else:
        expect(not annihilates(P, [xi[0]])[0],
               "non-member annihilates the solution")


def euler_ok(shifts, n, want):
    """Degreewise Euler characteristic of the shifts against ``want(m)``."""
    top = max(max(s) for s in shifts if s) + n + 2
    for m in range(top):
        chi = 0
        for i, pos in enumerate(shifts):
            for s in pos:
                if m >= s:
                    chi += (-1) ** i * comb(m - s + n - 1, n - 1)
        if chi != want(m):
            return False
    return True


def hilbert(P):
    fam = P.meta["family"]
    if fam == "skew":
        n, d = P.meta["n"], P.meta["d"]
        return n, lambda m: comb(m + n - 1, n - 1) if m < d else 0
    k = P.meta["k"]
    return 3, lambda m: 2 * m + 1 if m < k else 0


def check_maps_compose(P, maps):
    F = P.F
    fam = P.meta["family"]
    mats = [[[P.poly(s) for s in row] for row in m] for m in maps]
    for a, b in zip(mats, mats[1:]):
        expect(all(len(row) == len(a) for row in b),
               "map shapes do not chain")
        if fam == "skew":
            product = product_of(P)
            cols = [[row[c] for row in a] for c in range(len(a[0]))]
            for row in b:
                for col in cols:
                    acc = {}
                    for x, y in zip(row, col):
                        if x and y:
                            acc = refalg.padd(F, acc, refalg.mul_with(
                                F, product, x, y))
                    expect(not acc, "consecutive maps do not compose to 0")
        else:
            act = Sl2Action(F, P.meta["k"] + 1)
            for row in b:
                for c in range(len(a[0])):
                    expect(act.combo_is_zero(row, [r[c] for r in a]),
                           "consecutive maps do not compose to 0 on V_%d"
                           % (P.meta["k"] + 1))


def check_resolution(P, out, ctx):
    n, want = hilbert(P)
    ranks, shifts, maps = out["ranks"], out["shifts"], out["maps"]
    expect([len(s) for s in shifts] == ranks, "shifts do not match ranks")
    expect(ranks[0] == 1 and len(maps) == len(ranks) - 1,
           "ranks and maps disagree")
    expect(all(len(m) == r for m, r in zip(maps, ranks[1:])),
           "map sizes do not match ranks")
    expect(euler_ok(shifts, n, want),
           "Euler characteristic of the shifts is not the Hilbert function")
    if P.meta["family"] == "skew":
        expect(len(maps) == n, "length %d, want %d" % (len(maps), n))
    check_maps_compose(P, maps)
    if "betti" in out:
        n, d = P.meta["n"], P.meta["d"]
        want_betti = {"0": {"0": 1}}
        for i in range(n):
            want_betti[str(i + 1)] = {
                str(d + i): comb(d + n - 1, d + i) * comb(d + i - 1, i)}
        expect(out["betti"] == want_betti,
               "Betti table differs from Eagon-Northcott")


def check_pdim(P, out, ctx):
    want = P.meta["n"] if P.meta["family"] == "skew" else 3
    expect(out["pdim"] == want, "pdim %s, want %d" % (out["pdim"], want))
    expect(out["ranks"][0] == 1 and len(out["ranks"]) ==
           out["resolution_length"] + 1, "ranks and length disagree")


def check_syz(P, out, ctx):
    inputs = [g[0] for g in P.inputs()]
    syz = [[P.poly(s) for s in (row if isinstance(row, list) else [row])]
           for row in out["syzygies"]]
    expect(out["annihilates"] is True and syz, "no annihilating syzygies")
    expect(out["rank"] == len(inputs), "syzygies of rank %s" % out["rank"])
    if P.meta["family"] == "skew":
        product = product_of(P)
        for row in syz:
            expect(lin_comb(P.F, product, row, [[g] for g in inputs], 1)
                   == [{}], "a syzygy does not annihilate the generators")
    else:
        act = Sl2Action(P.F, P.meta["k"] + 1)
        for row in syz:
            expect(act.combo_is_zero(row, inputs),
                   "a syzygy does not annihilate the generators on V_%d"
                   % (P.meta["k"] + 1))


def check_verify(P, out, ctx):
    fam = P.meta["family"]
    if fam == "nonassoc":
        expect(out["verdict"] == "NotCertified" and out["violations"],
               "non-associative table certified")
        return
    expect(out["verdict"] == "SolvableTypeCertified" and
           not out["violations"], "complete table not certified")
    names = P.names
    want = {}
    for j in range(len(names)):
        for i in range(j):
            lam = "1"
            if fam == "skew":
                lam = str(Fraction(P.meta["q"][j][i]))
            want["%s*%s" % (names[j], names[i])] = lam
    expect(out["lambdas"] == want, "lambdas differ from the table")


CHECKS = {
    "gb": check_gb,
    "member": check_member,
    "syz": check_syz,
    "resolve": check_resolution,
    "graded-resolve": check_resolution,
    "filtered-resolve": check_resolution,
    "pdim": check_pdim,
    "verify-presentation": check_verify,
}


def check_one(manifest, cdir, op, code, out, ctx):
    if code != op["expect"]:
        return "exit %s, want %s" % (code, op["expect"])
    P = Problem(cdir, op["problem"], manifest["problems"][op["problem"]],
                manifest["prime"])
    try:
        CHECKS[op["args"][0]](P, json.loads(out), ctx)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return "malformed output: %s: %s" % (type(exc).__name__, exc)
    return None


def check_workload(manifest, workload, cdir, results, cross=None):
    """One verdict per operation; ``results`` are (exit code, stdout).

    ``cross`` is the GF(p) result of ``gb --reduce`` on case #44 when the
    workload runs over Q: the Q basis reduced mod p must equal it.
    """
    ops = manifest["workloads"][workload]
    ctx = {}
    verdicts = [check_one(manifest, cdir, op, code, out, ctx)
                for op, (code, out) in zip(ops, results)]
    if cross is not None:
        name = "c44-q"
        idx = next(i for i, op in enumerate(ops) if op["problem"] == name)
        if verdicts[idx] is None:
            verdicts[idx] = check_modular(manifest, cdir, ctx, cross)
    return verdicts


def check_modular(manifest, cdir, ctx, cross):
    op = {"args": ["gb", "--reduce"], "problem": "c44-p", "expect": 0}
    why = check_one(manifest, cdir, op, cross[0], cross[1], ctx)
    if why:
        return "GF(p) basis of case #44: %s" % why
    Fp = refalg.Field(manifest["prime"])
    mod_p = [[{e: Fp.norm(c) for e, c in f.items()} for f in v]
             for v in ctx["bases"]["c44-q"]]
    if mod_p != ctx["bases"]["c44-p"]:
        return "the Q basis reduced mod p is not the GF(p) basis"
    return None


# -- the checker rejects corrupted outputs ---------------------------------------

_NUMBER = re.compile(r"(?<![\^\w/])(\d+)")


def corruptions(op, out):
    """Deliberately wrong variants of one operation's JSON output."""
    doc = json.loads(out)
    bad = []
    if op["args"][0] == "gb":
        dropped = copy.deepcopy(doc)
        for key in ("basis", "V"):
            dropped[key] = dropped[key][:-1]
        dropped["U"] = [row[:-1] for row in dropped["U"]]
        bad.append(("dropped basis element", dropped))
        changed = copy.deepcopy(doc)
        g = changed["basis"][-1]
        changed["basis"][-1] = _bump(g) if isinstance(g, str) else \
            [_bump(g[0])] + g[1:]
        bad.append(("changed coefficient", changed))
    if "betti" in doc:
        changed = copy.deepcopy(doc)
        row = changed["betti"]["1"]
        deg = next(iter(row))
        row[deg] += 1
        bad.append(("changed Betti number", changed))
    return bad


def _bump(text):
    """Add one to the first coefficient of a polynomial string."""
    m = _NUMBER.search(text)
    if m is None:
        return "2*" + text
    return text[:m.start()] + str(int(m.group(1)) + 1) + text[m.end():]


def corruption_rejected(manifest, workload, cdir, results):
    """True when every corrupted output of the designated ops is rejected."""
    ops = manifest["workloads"][workload]
    ctx = {}
    tried = 0
    for op, (code, out) in zip(ops, results):
        if op["problem"] not in manifest["corruption_targets"]:
            continue
        for _, doc in corruptions(op, out):
            tried += 1
            if check_one(manifest, cdir, op, code, json.dumps(doc),
                         ctx) is None:
                return False
    return tried > 0
