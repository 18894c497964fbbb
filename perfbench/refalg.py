"""Reference arithmetic for the benchmark's answer checks.

Everything here is written apart from the ``solvpoly`` package: its own
polynomial parser and printer, exact field arithmetic, and the closed-form
products of the algebras in the corpus.  The checks in ``checks.py`` use it
to verify the package's JSON output without calling the package.

A polynomial is a dict ``{exponent tuple: coefficient}`` with no zero
coefficients; a module element is a list of polynomials, one per component.
Coefficients are ``Fraction`` over Q and ints in ``[0, p)`` over GF(p).
"""

import re
from fractions import Fraction
from math import comb, factorial


class Field:
    """Q (``p == 0``) or the prime field GF(p)."""

    def __init__(self, p=0):
        self.p = p

    def __repr__(self):
        return "GF(%d)" % self.p if self.p else "Q"

    def make(self, num, den=1):
        if self.p:
            if den % self.p == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return num * pow(den, -1, self.p) % self.p
        return Fraction(num, den)

    def norm(self, c):
        """Canonical form of an int or Fraction in this field."""
        if self.p:
            c = Fraction(c)
            return self.make(c.numerator, c.denominator)
        return Fraction(c)

    def inv(self, c):
        return pow(c, -1, self.p) if self.p else 1 / c

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def mul(self, a, b):
        return a * b % self.p if self.p else a * b

    def neg(self, a):
        return -a % self.p if self.p else -a


# -- polynomial dicts ---------------------------------------------------------

def padd(F, f, g, scale=1):
    """f + scale * g."""
    out = dict(f)
    for e, c in g.items():
        v = F.add(out.get(e, 0), F.mul(scale, c))
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pscale(F, f, c):
    if not c:
        return {}
    return {e: F.mul(v, c) for e, v in f.items()}


def mul_with(F, mono_mul, f, g):
    """Product of two polynomials from a monomial product rule.

    ``mono_mul(a, b)`` returns the normal form of the monomial product
    ``a * b`` as a list of ``(exponent, integer or Fraction)`` terms.
    """
    out = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            c = F.mul(ca, cb)
            for e, m in mono_mul(ea, eb):
                v = F.add(out.get(e, 0), F.mul(c, F.norm(m)))
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
    return out


# -- closed-form products -----------------------------------------------------

def skew_product(q):
    """x_j x_i = q[j][i] x_i x_j for j > i: a single-term product."""
    n = len(q)

    def mono_mul(a, b):
        c = Fraction(1)
        for j in range(n):
            if a[j]:
                for i in range(j):
                    if b[i]:
                        c *= Fraction(q[j][i]) ** (a[j] * b[i])
        return [(tuple(x + y for x, y in zip(a, b)), c)]

    return mono_mul


def weyl_product(n):
    """Generators x_1..x_n, d_1..d_n with d_i x_i = x_i d_i + 1.

    d^b x^c = sum_j C(b, j) C(c, j) j! x^(c-j) d^(b-j), one variable at
    a time; distinct indices commute.
    """

    def mono_mul(a, b):
        terms = [((), 1)]
        for i in range(n):
            beta, gamma = a[n + i], b[i]
            choices = [(j, comb(beta, j) * comb(gamma, j) * factorial(j))
                       for j in range(min(beta, gamma) + 1)]
            terms = [(js + (j,), c * m) for js, c in terms for j, m in choices]
        out = []
        for js, c in terms:
            xs = tuple(a[i] + b[i] - js[i] for i in range(n))
            ds = tuple(a[n + i] - js[i] + b[n + i] for i in range(n))
            out.append((xs + ds, c))
        return out

    return mono_mul


# -- orders -------------------------------------------------------------------

def grlex_key(exp):
    """Degree first, then the last generator's exponent, and so on."""
    return (sum(exp), tuple(reversed(exp)))


def module_key(kind, mono):
    exp, comp = mono
    if kind == "pot":
        return (comp, grlex_key(exp))
    return (grlex_key(exp), comp)


# -- parsing and printing -----------------------------------------------------

_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")
_COEF = re.compile(r"^(\d+)(?:/(\d+))?$")
_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?$")


def parse_poly(F, names, text):
    """Parse a sum of terms ``c*a^i*b^j`` whose factors are in normal order."""
    index = {nm: i for i, nm in enumerate(names)}
    out = {}
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise ValueError("cannot parse %r" % text)
        pos = m.end()
        sign, body = m.group(1), m.group(2).strip()
        exp = [0] * len(names)
        coef = F.make(1)
        for factor in body.split("*"):
            factor = factor.strip()
            cm = _COEF.match(factor)
            if cm:
                coef = F.mul(coef, F.make(int(cm.group(1)),
                                          int(cm.group(2) or 1)))
                continue
            fm = _FACTOR.match(factor)
            if not fm or fm.group(1) not in index:
                raise ValueError("bad factor %r in %r" % (factor, text))
            exp[index[fm.group(1)]] += int(fm.group(2) or 1)
        if sign == "-":
            coef = F.neg(coef)
        out = padd(F, out, {tuple(exp): coef})
    return out


def format_poly(F, names, f):
    """Terms in descending grlex order, the package's input syntax."""
    if not f:
        return "0"
    chunks = []
    for exp, c in sorted(f.items(), key=lambda t: grlex_key(t[0]),
                         reverse=True):
        c = Fraction(c)
        if F.p and c > F.p // 2:
            c -= F.p
        neg = c < 0
        mag = str(abs(c))
        body = "*".join(nm + ("^%d" % e if e > 1 else "")
                        for nm, e in zip(names, exp) if e)
        piece = (body if mag == "1" else "%s*%s" % (mag, body)) if body else mag
        if not chunks:
            chunks.append("-" + piece if neg else piece)
        else:
            chunks.append((" - " if neg else " + ") + piece)
    return "".join(chunks)

