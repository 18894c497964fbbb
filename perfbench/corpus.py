"""Write the benchmark corpus: problem files plus a manifest.

    python3 perfbench/corpus.py [--seed N] [--out DIR]

The problem files are built from their parameters: k for the U(sl2)
annihilator ideals, n, d and the q table for the skew polynomial rings,
the GKZ matrix and beta, and the field.  The seed changes only what keeps
every answer check valid: unit (sign) scalings of the generators, and which
members and non-members are queried.  With the default seed and no
``--out`` the files go to ``perfbench/corpus``, and regenerating them must
reproduce the committed files byte for byte.
"""

import argparse
import itertools
import json
import os
import random
from math import comb

import refalg

WORKLOADS = ("gb-q", "gb-modp", "resolve")
DEFAULT_SEED = 0
PRIME = 32003
HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")
FIELDS = {"q": 0, "p": PRIME}

# Case #44 of the acceptance gate's randomized bases: q-plane, rank 3, POT.
C44_GENERATORS = [
    ["3/2*y + 1/2", "-4/3*y + 1/2", "4/3*x + 1"],
    ["-4/3*x^2*y + 3", "-1/3*x^2*y^2 + 4", "2"],
    ["0", "1/3*x^2", "-4*x*y"],
]
# q table of the skew polynomial rings: x_j x_i = q x_i x_j for j > i.
SKEW_Q = ["2", "3", "-1", "1/2", "5", "-2", "3/2", "4", "-3", "2/3"]
# GKZ system of A = (1 1 1 1; 0 1 2 3), beta = (3, 3), and a polynomial
# solution of it.
GKZ_A = [[1, 1, 1, 1], [0, 1, 2, 3]]
GKZ_BETA = [3, 3]
GKZ_SOLUTION = "3*x1^2*x4 + 6*x1*x2*x3 + x2^3"
GKZ_NON_MEMBERS = ["d1", "x1*d1", "d2^2", "d4 + 1", "x2*d3 - 1"]
NONASSOC = ["y*x = x*y + 1", "z*x = x*z", "z*y = y*z + y"]

SL2_GB = (3, 4, 5)
SL2_RESOLVE = (3, 4)
SKEW_GRADED = ((4, 3), (5, 2))
SKEW_PLAIN = ((4, 2), (5, 2))
WEYL_VERIFY = (3, 4, 5)
# Problems queried with ``member``, per field.  ``member`` recomputes the
# whole basis, so queries go where they cost least; see README.md.
QUERIED = {"q": ("sl2-4", "sl2-5"), "p": ("sl2-4", "sl2-5", "gkz", "c44")}


def _field_doc(fld):
    if FIELDS[fld]:
        return {"kind": "PrimeField", "characteristic": FIELDS[fld]}
    return {"kind": "Rationals"}


def _mono(names, exp):
    return "*".join(nm + ("^%d" % e if e > 1 else "")
                    for nm, e in zip(names, exp) if e) or "1"


def _signed(rnd, names, row):
    """A generator, one string or one per component, times a random sign.

    The sign is a unit of every field, so the generated submodule and
    every check stay the same.
    """
    if rnd.random() < 0.5:
        return row
    F = refalg.Field(0)
    parts = [row] if isinstance(row, str) else row
    out = [refalg.format_poly(F, names, refalg.pscale(
        F, refalg.parse_poly(F, names, text), -1)) for text in parts]
    return out[0] if isinstance(row, str) else out


def _doc(fld, names, relations, gens, rank=1, morder=None, element=None):
    module = {"rank": rank}
    if morder:
        module["order"] = {"kind": morder}
    doc = {
        "field": _field_doc(fld),
        "generators": names,
        "degrees": [1] * len(names),
        "order": {"kind": "grlex"},
        "relations": relations,
        "module": module,
        "submodule_generators": gens,
    }
    if element is not None:
        doc["options"] = {"element": element}
    return doc


def sl2_relations():
    return ["f*e = e*f - h", "h*e = e*h + 2*e", "h*f = f*h - 2*f"]


def sl2_generators(k):
    return ["e^%d" % k, "f^%d" % k, "4*e*f + h^2 - 2*h - %d" % (k * k - 1)]


def sl2_member(rnd, F, k):
    """A left multiple of a generator, expanded by h e^k = e^k (h + 2k)."""
    names = ["e", "f", "h"]
    kind = rnd.randrange(3)
    a, c = rnd.randint(0, 2), rnd.randint(1, 2)
    if kind == 0:       # e^a h^c * e^k = e^(a+k) (h + 2k)^c
        base, shift = (a + k, 0), 2 * k
    elif kind == 1:     # f^a h^c * f^k = f^(a+k) (h - 2k)^c
        base, shift = (0, a + k), -2 * k
    else:               # e^a * f^k
        base, shift, c = (a, k), 0, 0
    f = {}
    for j in range(c + 1):
        term = F.make(comb(c, j) * shift ** (c - j))
        if term:
            f[(base[0], base[1], j)] = term
    return refalg.format_poly(F, names, f)


def sl2_non_member(rnd, k):
    return rnd.choice(["e^%d" % (k - 1), "f^%d" % (k - 1), "h", "e*f",
                       "e^%d + f" % (k - 1)])


def skew_names(n):
    return ["x%d" % (i + 1) for i in range(n)]


def skew_table(n):
    q = [[None] * n for _ in range(n)]
    it = iter(SKEW_Q)
    for j in range(n):
        for i in range(j):
            q[j][i] = next(it)
    return q


def skew_relations(n):
    q = skew_table(n)
    names = skew_names(n)
    return ["%s*%s = %s*%s*%s" % (names[j], names[i], q[j][i], names[i],
                                  names[j])
            for j in range(n) for i in range(j)]


def power_of_maximal_ideal(n, d):
    gens = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        exp = [0] * n
        for i in combo:
            exp[i] += 1
        gens.append(_mono(skew_names(n), exp))
    return gens


def weyl_names(n):
    return ["x%d" % i for i in range(1, n + 1)] + \
           ["d%d" % i for i in range(1, n + 1)]


def weyl_relations(n, complete=False):
    names = weyl_names(n)
    rels = []
    for j in range(2 * n):
        for i in range(j):
            tail = " + 1" if j == i + n else ""
            if tail or complete:
                rels.append("%s*%s = %s*%s%s" % (names[j], names[i],
                                                names[i], names[j], tail))
    return rels


def gkz_generators():
    """Toric 2x2 minors of the Hankel matrix of d, and the Euler operators."""
    m = len(GKZ_A[0])
    gens = []
    for i in range(1, m):
        for j in range(i + 1, m):
            gens.append("d%d*d%d - d%d*d%d" % (i, j + 1, i + 1, j))
    for row, b in zip(GKZ_A, GKZ_BETA):
        ops = " + ".join(("%d*" % a if a > 1 else "") + "x%d*d%d" % (t + 1,
                                                                   t + 1)
                         for t, a in enumerate(row) if a)
        gens.append("%s - %d" % (ops, b))
    return gens


def gkz_member(rnd, F):
    names = weyl_names(4)
    gens = [refalg.parse_poly(F, names, g) for g in gkz_generators()]
    mult = [0] * 8
    mult[rnd.randrange(4)] = 1
    mult[4 + rnd.randrange(4)] = rnd.randint(0, 1)
    g = gens[rnd.randrange(len(gens))]
    prod = refalg.mul_with(F, refalg.weyl_product(4),
                           {tuple(mult): F.make(1)}, g)
    return refalg.format_poly(F, names, prod)


def c44_member(rnd, F):
    names = ["x", "y"]
    product = refalg.skew_product([[None, None], ["2", None]])
    out = [{}, {}, {}]
    for _ in range(2):
        g = C44_GENERATORS[rnd.randrange(3)]
        mono = {(rnd.randint(0, 1), rnd.randint(0, 1)):
                F.make(rnd.choice([1, -1]))}
        for comp in range(3):
            part = refalg.mul_with(F, product, mono,
                                   refalg.parse_poly(F, names, g[comp]))
            out[comp] = refalg.padd(F, out[comp], part)
    if not any(out):
        return c44_member(rnd, F)
    return [refalg.format_poly(F, names, f) for f in out]


def build(seed=DEFAULT_SEED):
    """Return file name -> JSON text for the problem files and the manifest.

    Every choice is drawn over Q once and written for both fields, so the
    GF(p) files differ from the Q files only in their ``field``.
    """
    rnd = random.Random(seed)
    Q = refalg.Field(0)
    files = {}
    meta = {}

    def add(name, doc, **info):
        files[name + ".json"] = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        meta[name] = info

    def add_gb_family(stem, names, relations, gens, info, member, non_member,
                      **layout):
        for fld in ("q", "p"):
            add("%s-%s" % (stem, fld),
                _doc(fld, names, relations, gens, **layout),
                field=fld, member=None, **info)
            if stem not in QUERIED[fld]:
                continue
            for suffix, element, flag in (("-member", member, True),
                                          ("-nonmember", non_member, False)):
                if element is None:
                    continue
                add("%s-%s%s" % (stem, fld, suffix),
                    _doc(fld, names, relations, gens, element=element,
                         **layout),
                    field=fld, member=flag, **info)

    names = ["x", "y"]
    gens = [_signed(rnd, names, row) for row in C44_GENERATORS]
    add_gb_family("c44", names, ["y*x = 2*x*y"], gens,
                  {"family": "c44", "q": [[None, None], ["2", None]]},
                  c44_member(rnd, Q), None,
                  rank=3, morder="pot")
    for k in SL2_GB:
        names = ["e", "f", "h"]
        gens = [_signed(rnd, names, g) for g in sl2_generators(k)]
        add_gb_family("sl2-%d" % k, names, sl2_relations(), gens,
                      {"family": "sl2", "k": k},
                      sl2_member(rnd, Q, k), sl2_non_member(rnd, k))
    names = weyl_names(4)
    gens = [_signed(rnd, names, g) for g in gkz_generators()]
    add_gb_family("gkz", names, weyl_relations(4), gens,
                  {"family": "gkz", "A": GKZ_A, "beta": GKZ_BETA,
                   "solution": GKZ_SOLUTION},
                  gkz_member(rnd, Q), rnd.choice(GKZ_NON_MEMBERS))

    for n, d in sorted(set(SKEW_GRADED) | set(SKEW_PLAIN)):
        names = skew_names(n)
        gens = [_signed(rnd, names, g) for g in power_of_maximal_ideal(n, d)]
        add("skew-%d-%d" % (n, d), _doc("q", names, skew_relations(n), gens),
            family="skew", field="q", n=n, d=d, q=skew_table(n))
    for n in WEYL_VERIFY:
        add("weyl-%d" % n, _doc("q", weyl_names(n), weyl_relations(n, True),
                                []),
            family="weyl", field="q", n=n)
    add("nonassoc", _doc("q", ["x", "y", "z"], NONASSOC, []),
        family="nonassoc", field="q")

    workloads = {"gb-q": _gb_ops("q", meta), "gb-modp": _gb_ops("p", meta),
                 "resolve": _resolve_ops()}
    manifest = {
        "seed": seed,
        "prime": PRIME,
        "problems": meta,
        "workloads": workloads,
        # run once, untimed, after the rounds: the GF(p) basis that the Q
        # basis of case #44 must reduce to
        "cross": {"gb-q": {"args": ["gb", "--reduce"], "problem": "c44-p",
                           "expect": 0}},
        # outputs the checker must reject once corrupted
        "corruption_targets": ["sl2-3-q", "sl2-3-p", "skew-4-3"],
    }
    files["manifest.json"] = json.dumps(manifest, indent=1,
                                        sort_keys=True) + "\n"
    return files


def _gb_ops(fld, meta):
    """``gb --reduce`` on every problem, then the membership queries."""
    ops = [{"args": ["gb", "--reduce"], "problem": "%s-%s" % (stem, fld),
            "expect": 0}
           for stem in ["c44"] + ["sl2-%d" % k for k in SL2_GB] + ["gkz"]]
    for stem in QUERIED[fld]:
        for suffix, code in (("-member", 0), ("-nonmember", 1)):
            name = "%s-%s%s" % (stem, fld, suffix)
            if name in meta:
                ops.append({"args": ["member"], "problem": name,
                            "expect": code})
    return ops


def _resolve_ops():
    ops = []
    for n, d in SKEW_GRADED:
        ops.append({"args": ["graded-resolve", "--betti"],
                    "problem": "skew-%d-%d" % (n, d), "expect": 0})
    for n, d in SKEW_PLAIN:
        for sub in ("syz", "resolve", "pdim"):
            ops.append({"args": [sub], "problem": "skew-%d-%d" % (n, d),
                        "expect": 0})
    for k in SL2_RESOLVE:
        subs = ("syz", "resolve", "pdim", "filtered-resolve")
        for sub in subs if k == min(SL2_RESOLVE) else subs[1:]:
            ops.append({"args": [sub], "problem": "sl2-%d-q" % k,
                        "expect": 0})
    verify = ["skew-%d-%d" % nd for nd in SKEW_PLAIN] + ["sl2-3-q"] + \
             ["weyl-%d" % n for n in WEYL_VERIFY]
    for name in verify:
        ops.append({"args": ["verify-presentation"], "problem": name,
                    "expect": 0})
    # Certified negative: NotCertified, exit 1.
    ops.append({"args": ["verify-presentation"], "problem": "nonassoc",
                "expect": 1})
    return ops


def write(files, out):
    os.makedirs(out, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", default=None,
                    help="output directory (default: perfbench/corpus)")
    args = ap.parse_args(argv)
    out = args.out or CORPUS_DIR
    write(build(args.seed), out)
    print("wrote corpus for seed %d to %s" % (args.seed, out))


if __name__ == "__main__":
    main()
