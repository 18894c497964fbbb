"""Command line front end.

A single ``solvpoly`` executable with one subcommand per library
operation.  Every command reads a problem file (JSON), runs the
requested computation and prints either a human readable report or,
with ``--json``, a canonical machine readable document.  Canonical
means: keys sorted, no whitespace padding, no timestamps, so the same
input always produces byte-identical output.

Exit codes: 0 for success, 1 for a mathematical negative (the input
is well formed but the certified answer is "no"), 2 for input errors
(unreadable files, schema problems, unknown generators and the like)
and for a standard output closed before the whole report was written
(say, by ``| head``).

The environment variable ``SOLVPOLY_CACHE_LIMIT`` caps the number of
cached monomial products per algebra, of the monomials whose divisor
each divisor list remembers, and of the products in each module
order's table of products on codes.  Every such table has the limit as
its own cap, so one command that builds several orders (a resolution
builds one per stage) can hold several times the limit in all.
"""

import argparse
import contextlib
import gc
import json
import os
import sys
from math import gcd
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .coeff import FieldSpec, SolvpolyError
from .algebra import (
    EXP_LIMIT,
    DegreeFunction,
    ExponentOverflow,
    MalformedRelation,
    MonomialOrder,
    NonAssociative,
    SolvableAlgebra,
    TailOrderViolation,
    ZeroLambda,
    _joined,
    _parse_expression,
    build_algebra,
    check_associative,
)
from .modfree import FreeModule, ModOrder, Vect, _IntVect, _coded
from . import filtered as filtered_ops
from . import graded as graded_ops
from . import groebner
from . import presentation as free_ops
from . import syzres

__all__ = [
    "SchemaError",
    "ParseError",
    "ProblemFile",
    "parse_problem",
    "main",
]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


class SchemaError(SolvpolyError):
    """The problem document is valid JSON but has the wrong shape."""


class ParseError(SolvpolyError):
    """The problem document is not even valid JSON."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        if line is not None:
            message = "%s (line %d, column %s)" % (message, line, column)
        super().__init__(message)
        self.line = line
        self.column = column


# Presentations that fail solvability conditions are a mathematical
# "no", not a malformed input.
_NEGATIVE_ERRORS = (ZeroLambda, TailOrderViolation, NonAssociative)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

# Every free module allocates per component, so a rank from a problem
# file is bounded before anything is built.
MAX_RANK = 10000

_TOP_KEYS = {
    "field",
    "generators",
    "degrees",
    "order",
    "relations",
    "module",
    "submodule_generators",
    "options",
}


class ProblemFile:
    """A schema-validated problem document.

    The document shape is checked eagerly; the algebra and everything
    that depends on it are built on first use, so that commands whose
    job is to *decide* solvability can read the raw relations without
    tripping the constructive validation.
    """

    def __init__(
        self,
        raw: Dict[str, Any],
        field: FieldSpec,
        names: Tuple[str, ...],
        degrees: Optional[Tuple[int, ...]],
        order: MonomialOrder,
        relations: Tuple[str, ...],
        degree_function: Optional[DegreeFunction],
        rank: int,
        shifts: Optional[Tuple[int, ...]],
        morder_spec: Tuple[str, bool, Optional[Tuple[int, ...]]],
        generator_rows: List[List[str]],
        options: Dict[str, Any],
    ):
        self.raw = raw
        self.field = field
        self.names = names
        self.degrees = degrees
        self.order = order
        self.relations = relations
        self.degree_function = degree_function
        self.rank = rank
        self.shifts = shifts
        self.morder_spec = morder_spec
        self.generator_rows = generator_rows
        self.options = options
        self._built: Dict[str, Any] = {}

    @property
    def algebra(self) -> SolvableAlgebra:
        if "algebra" not in self._built:
            self._built["algebra"] = build_algebra(
                self.field, self.names, self.order, self.relations,
                degree_function=self.degree_function)
        return self._built["algebra"]

    @property
    def module(self) -> FreeModule:
        if "module" not in self._built:
            self._built["module"] = FreeModule(self.algebra, self.rank,
                                               self.shifts)
        return self._built["module"]

    @property
    def mod_order(self) -> ModOrder:
        if "mod_order" not in self._built:
            mkind, mgraded, comp_pri = self.morder_spec
            try:
                self._built["mod_order"] = ModOrder(
                    mkind, self.order, self.rank,
                    component_priority=comp_pri, graded=mgraded,
                    shifts=self.module.shifts if mgraded else None)
            except (ValueError, SolvpolyError) as exc:
                raise SchemaError("bad module order: %s" % exc)
        return self._built["mod_order"]

    @property
    def generators(self) -> List[Vect]:
        if "generators" not in self._built:
            self._built["generators"] = [
                self.module.parse(row) for row in self.generator_rows]
        return self._built["generators"]


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _field_from(doc: Any) -> FieldSpec:
    if doc is None:
        return FieldSpec("Rationals")
    _expect(isinstance(doc, dict), "'field' must be an object")
    kind = doc.get("kind")
    _expect(isinstance(kind, str), "'field.kind' must be a string")
    if kind == "Rationals":
        _expect(set(doc) <= {"kind"}, "'field' has unexpected keys")
        return FieldSpec("Rationals")
    if kind == "PrimeField":
        _expect(set(doc) <= {"kind", "characteristic"},
                "'field' has unexpected keys")
        p = doc.get("characteristic")
        _expect(isinstance(p, int) and p > 1,
                "'field.characteristic' must be a prime integer")
        try:
            return FieldSpec("PrimeField", characteristic=p)
        except ValueError as exc:
            raise SchemaError("bad field: %s" % exc)
    raise SchemaError("unknown field kind %r" % (kind,))


def _int_list(doc: Any, what: str, length: Optional[int] = None,
              minimum: int = 0) -> Tuple[int, ...]:
    _expect(isinstance(doc, list), "%s must be an array" % what)
    out = []
    for x in doc:
        _expect(isinstance(x, int) and not isinstance(x, bool),
                "%s entries must be integers" % what)
        _expect(x >= minimum, "%s entries must be >= %d" % (what, minimum))
        out.append(x)
    if length is not None:
        _expect(len(out) == length,
                "%s must have exactly %d entries" % (what, length))
    return tuple(out)


def parse_problem(source: Any) -> ProblemFile:
    """Parse and validate a problem document.

    ``source`` may be a dict, a JSON text (anything starting with
    ``{``) or a file path.  Raises ParseError for broken JSON (with
    line and column), SchemaError for shape problems and the algebra
    layer's own errors for bad relation strings.
    """
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                with open(text, "r") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError("cannot read problem file: %s" % exc)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno, column=exc.colno)
    _expect(isinstance(raw, dict), "problem document must be a JSON object")
    extra = set(raw) - _TOP_KEYS
    _expect(not extra, "unknown problem keys: %s" % ", ".join(sorted(extra)))

    field = _field_from(raw.get("field"))

    names_doc = raw.get("generators")
    _expect(isinstance(names_doc, list) and names_doc,
            "'generators' must be a non-empty array of names")
    for nm in names_doc:
        _expect(isinstance(nm, str) and nm.isidentifier(),
                "generator names must be identifiers, got %r" % (nm,))
    names = tuple(names_doc)
    _expect(len(set(names)) == len(names), "generator names must be distinct")
    n = len(names)

    degrees: Optional[Tuple[int, ...]] = None
    if raw.get("degrees") is not None:
        degrees = _int_list(raw["degrees"], "'degrees'", length=n, minimum=1)

    order_doc = raw.get("order") or {}
    _expect(isinstance(order_doc, dict), "'order' must be an object")
    _expect(set(order_doc) <= {"kind", "priority"},
            "'order' has unexpected keys")
    kind = order_doc.get("kind", "grlex")
    _expect(kind in ("lex", "grlex"),
            "order kind must be 'lex' or 'grlex', got %r" % (kind,))
    priority = None
    if order_doc.get("priority") is not None:
        priority = _int_list(order_doc["priority"], "'order.priority'",
                             length=n)
    degree_function = None
    if kind == "grlex":
        degree_function = DegreeFunction(degrees if degrees else (1,) * n)
    try:
        order = MonomialOrder(kind, n, priority=priority,
                              degree=degree_function)
    except ValueError as exc:
        raise SchemaError("bad order: %s" % exc)

    relations_doc = raw.get("relations", [])
    _expect(isinstance(relations_doc, list),
            "'relations' must be an array of strings")
    for eq in relations_doc:
        _expect(isinstance(eq, str), "relations must be strings")
    relations = tuple(relations_doc)

    module_doc = raw.get("module") or {}
    _expect(isinstance(module_doc, dict), "'module' must be an object")
    _expect(set(module_doc) <= {"rank", "shifts", "order"},
            "'module' has unexpected keys")
    rank = module_doc.get("rank", 1)
    _expect(isinstance(rank, int) and 1 <= rank <= MAX_RANK,
            "'module.rank' must be an integer from 1 to %d" % MAX_RANK)
    shifts: Optional[Tuple[int, ...]] = None
    if module_doc.get("shifts") is not None:
        shifts = _int_list(module_doc["shifts"], "'module.shifts'",
                           length=rank)

    morder_doc = module_doc.get("order") or {}
    _expect(isinstance(morder_doc, dict), "'module.order' must be an object")
    _expect(set(morder_doc) <= {"kind", "graded", "component_priority"},
            "'module.order' has unexpected keys")
    mkind = morder_doc.get("kind", "top")
    _expect(mkind in ("top", "pot"),
            "module order kind must be 'top' or 'pot', got %r" % (mkind,))
    mgraded = morder_doc.get("graded", False)
    _expect(isinstance(mgraded, bool), "'module.order.graded' must be a bool")
    comp_pri = None
    if morder_doc.get("component_priority") is not None:
        comp_pri = _int_list(morder_doc["component_priority"],
                             "'module.order.component_priority'", length=rank)

    gens_doc = raw.get("submodule_generators", [])
    _expect(isinstance(gens_doc, list),
            "'submodule_generators' must be an array")
    generator_rows: List[List[str]] = []
    for entry in gens_doc:
        if isinstance(entry, str):
            _expect(rank == 1,
                    "string generators are only allowed at rank 1")
            entry = [entry]
        _expect(isinstance(entry, list) and
                all(isinstance(s, str) for s in entry),
                "each submodule generator must be an array of "
                "polynomial strings")
        _expect(len(entry) == rank,
                "generator %r must have %d slots" % (entry, rank))
        generator_rows.append(list(entry))

    options = raw.get("options")
    if options is None:
        options = {}
    _expect(isinstance(options, dict), "'options' must be an object")

    return ProblemFile(raw, field, names, degrees, order, relations,
                       degree_function, rank, shifts,
                       (mkind, mgraded, comp_pri), generator_rows, options)


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------

def _vect_out(v: Vect) -> Any:
    """A vector printed by :func:`_int_row_out`, an integer row on its
    own order, a payload one coded once on its module's TOP order; a
    rank-1 vector renders as a plain polynomial string."""
    row = _int_row_out(v if isinstance(v, _IntVect)
                       else _coded(v, v.module.top))
    return row[0] if v.module.rank == 1 else row


def _int_row_out(row: _IntVect) -> List[str]:
    """The entries of an integer row (of V, U, a syzygy or a resolution
    map) printed from its codes in descending order, a coefficient as
    n/den reduced by one gcd over Q, the residue over GF(p), each term
    by the ``SolvableAlgebra._term`` that ``poly_str`` prints with, so
    each monomial's text is built once per algebra.  On every order a
    problem file can build, descending codes give the ring order inside
    each entry: an ungraded TOP or POT order restricts to it on each
    component; a graded one compares the shifted degree first, the
    degree of its ``grlex`` base (no other base carries one); a Schreyer
    order compares the images a^alpha * lm(g_i) under its target, and
    monomial orders are translation-invariant."""
    monos, codes, den = row.order._codec.monos, row.codes, row.den
    term = row.module.algebra._term
    cols: List[List[str]] = [[] for _ in range(row.module.rank)]
    for k in sorted(codes, reverse=True):
        n = codes[k]
        if den == 1:
            cs = str(n)
        else:
            g = gcd(n, den)
            cs = str(n // g) if g == den else "%d/%d" % (n // g, den // g)
        exp, comp = monos[k]
        cols[comp].append(term(exp, cs))
    return list(map(_joined, cols))


def _matrix_out(mat: "syzres.PresentationMatrix") -> List[List[str]]:
    return [_int_row_out(v) for v in mat.int_rows()]


def _staircase_out(A: SolvableAlgebra, st: "groebner.Staircase") -> List[List[str]]:
    out: List[List[str]] = []
    for comp in range(st.rank):
        exps = sorted(st.by_component[comp])
        out.append([A.poly_str(A.monomial(e)) for e in exps])
    return out


def _resolution_out(R: "syzres.Resolution") -> Dict[str, Any]:
    return {
        "flavor": R.flavor,
        "zero_module": R.zero_module,
        "ranks": list(R.ranks()),
        "shifts": [list(s) for s in R.shift_lists()],
        "maps": [_matrix_out(m) for m in R.maps],
    }


def _relations_out(B: SolvableAlgebra) -> List[str]:
    lines = []
    for j in range(B.n):
        for i in range(j):
            rel = B.relation(j, i)
            lead = B.from_terms(
                [(tuple(1 if k in (i, j) else 0 for k in range(B.n)),
                  rel.lam)])
            rhs = lead + B.from_terms(rel.tail.terms)
            lines.append("%s*%s = %s"
                         % (B.names[j], B.names[i], B.poly_str(rhs)))
    return lines


def _emit(payload: Dict[str, Any], as_json: bool) -> None:
    if as_json:
        sys.stdout.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
        return
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list) and value and isinstance(value[0], str):
            print("%s:" % key)
            for item in value:
                print("  %s" % item)
        else:
            print("%s: %s" % (key, json.dumps(value, sort_keys=True)))


# ---------------------------------------------------------------------------
# the free-algebra view of a presentation
# ---------------------------------------------------------------------------

def _free_relations(pf: ProblemFile) -> List[free_ops.FreePoly]:
    """Relations of the problem file as free-algebra elements.

    Each equation ``b*a = rhs`` becomes the two-sided rewriting rule
    ``ba - rhs`` with the right side read off the standard basis: a term
    is the word of its summed exponents, letters ascending by generator
    index, and refused, as a product would be, at an exponent of 2^32.
    """
    n = len(pf.names)
    name_index = {nm: i for i, nm in enumerate(pf.names)}
    one = pf.field.one.value
    out = []
    for eq in pf.relations:
        if "=" not in eq:
            raise MalformedRelation("relation %r lacks '='" % (eq,))
        lhs_text, rhs_text = eq.split("=", 1)
        parts = [p.strip() for p in lhs_text.split("*")]
        if len(parts) != 2 or not all(p in name_index for p in parts):
            raise MalformedRelation(
                "left side of %r must be a product of two generators"
                % (eq,))
        terms = [((name_index[parts[0]], name_index[parts[1]]), one)]
        for coeff, factors in _parse_expression(rhs_text, pf.names,
                                                pf.field):
            if not coeff.value:
                continue
            exp = [0] * n
            for gi, power in factors:
                exp[gi] += power
            if max(exp) >= EXP_LIMIT:
                raise ExponentOverflow("exponent exceeds 2^32")
            terms.append((tuple(gi for gi, e in enumerate(exp)
                                for _ in range(e)), (-coeff).value))
        out.append(free_ops.FreePoly(pf.field, n, terms))
    return out


def _word_order(pf: ProblemFile) -> free_ops.WordOrder:
    n = len(pf.names)
    degree = DegreeFunction(pf.degrees if pf.degrees else (1,) * n)
    return free_ops.WordOrder(degree, letter_priority=pf.order.priority)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _element_from_options(pf: ProblemFile) -> Vect:
    doc = pf.options.get("element")
    if doc is None:
        raise SchemaError("'options.element' is required for this command")
    if isinstance(doc, str):
        _expect(pf.module.rank == 1,
                "string element is only allowed at rank 1")
        doc = [doc]
    _expect(isinstance(doc, list) and all(isinstance(s, str) for s in doc),
            "'options.element' must be a polynomial string array")
    _expect(len(doc) == pf.module.rank,
            "'options.element' must have %d slots" % pf.module.rank)
    return pf.module.parse(doc)


def cmd_verify_presentation(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    if args.max_steps is not None and args.max_steps < 0:
        raise SchemaError("--max-steps: must be a natural number")
    worder = _word_order(pf)
    rels = _free_relations(pf)
    try:
        rep = free_ops.verify_presentation(rels, worder)
    except free_ops.ShapeViolation as exc:
        return EXIT_NEGATIVE, {
            "verdict": "ShapeViolation",
            "violations": [str(exc)],
            "overlaps_checked": 0,
        }

    def pair(ji: Tuple[int, int]) -> str:
        return "%s*%s" % (pf.names[ji[0]], pf.names[ji[1]])

    violations = [
        "overlap of relations %s and %s at shift %d leaves %s"
        % (pair(a), pair(b), shift, free_ops.free_poly_str(res, pf.names))
        for (a, b, shift, res) in rep.failures
    ]
    payload: Dict[str, Any] = {
        "verdict": rep.verdict,
        "violations": violations,
        "overlaps_checked": rep.overlaps_checked,
        "lambdas": {
            pair(ji): str(lam) for ji, lam in sorted(rep.lambdas.items())
        },
    }
    if args.max_steps is not None:
        basis, complete = free_ops.bounded_completion(
            rels, worder, max_new=args.max_steps, rows=rep.rows)
        payload["completion"] = {
            "complete": complete,
            "basis_size": len(basis),
        }
    return (EXIT_OK if rep.certified else EXIT_NEGATIVE), payload


def _run_gb(pf: ProblemFile, reduce_flag: bool,
            truncate: Optional[int]) -> "groebner.GroebnerBasis":
    if pf.generators and truncate is not None:
        G = graded_ops.truncated_gb(pf.generators, pf.mod_order, truncate)
    elif pf.generators:
        G = groebner.buchberger(pf.generators, pf.mod_order)
    else:
        # no generators: the zero submodule, whose basis is empty; a
        # truncation still needs a graded algebra and order
        if truncate is not None:
            graded_ops.GradedContext(pf.algebra).require(pf.mod_order)
        G = groebner.GroebnerBasis(pf.module, pf.mod_order, [], [], [],
                                   truncation_degree=truncate)
    if reduce_flag:
        G = groebner.reduce_basis(G)
    return G


def cmd_gb(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    A = pf.algebra
    G = _run_gb(pf, args.reduce, args.truncate)
    payload = {
        "basis": [_vect_out(g) for g in G.elements],
        "V": [_int_row_out(row)
              for row in G.V_ints(range(len(G.elements)))],
        "U": ([_int_row_out(row) for row in G.U_ints]
              if G.U_ints is not None else None),
        "staircase": _staircase_out(A, G.staircase()),
        "minimal": G.flags["is_minimal"],
        "reduced": G.flags["is_reduced"],
        "truncated_at": G.flags["truncation_degree"],
    }
    return EXIT_OK, payload


def cmd_member(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    """Membership of options.element, decided during the completion
    (:func:`solvpoly.groebner.member_by_completion`): a member stops it
    as soon as its remainder is zero, often before any pair is
    reduced; a non-member completes the basis and prints its normal
    form."""
    xi = _element_from_options(pf)
    member, nf = groebner.member_by_completion(xi, pf.generators,
                                               pf.mod_order)
    payload = {
        "member": member,
        "normal_form": _vect_out(nf),
    }
    return (EXIT_OK if member else EXIT_NEGATIVE), payload


def cmd_syz(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    if not pf.generators:
        # the empty tuple has only the empty syzygy, in rank 0
        return EXIT_OK, {"rank": 0, "shifts": [], "syzygies": [],
                         "annihilates": True}
    syz = syzres.syzygy_of_generators(pf.generators, pf.mod_order)
    payload = {
        "rank": syz.module.rank,
        "shifts": list(syz.module.shifts),
        "syzygies": [row if len(row) > 1 else row[0] for row in map(
            _int_row_out, syz.elements)],
        "annihilates": syz.annihilates(),
    }
    return EXIT_OK, payload


def cmd_resolve(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    R = syzres.free_resolution(pf.module, pf.generators, order=pf.mod_order)
    payload = _resolution_out(R)
    payload["length"] = len(R.maps)
    return EXIT_OK, payload


def cmd_pdim(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    R = syzres.free_resolution(pf.module, pf.generators, order=pf.mod_order)
    payload = {
        "pdim": syzres.projective_dimension(R),
        "resolution_length": len(R.maps),
        "ranks": list(R.ranks()),
    }
    return EXIT_OK, payload


def cmd_graded_check(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    ok, violations = graded_ops.check_graded(pf.algebra)
    payload = {"graded": ok, "violations": violations}
    return (EXIT_OK if ok else EXIT_NEGATIVE), payload


def cmd_min_gens(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    # with no generators, the zero vector stands in: it is never kept
    gens = pf.generators or [pf.module.zero()]
    kept, G = graded_ops.min_homogeneous_gens(gens, pf.mod_order)
    payload = {
        "generators": [_vect_out(v) for v in kept],
        "count": len(kept),
        "basis_size": len(G.elements),
    }
    return EXIT_OK, payload


def cmd_graded_resolve(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    R = graded_ops.minimal_graded_resolution(pf.module, pf.generators)
    payload = _resolution_out(R)
    payload["length"] = len(R.maps)
    if args.betti:
        payload["betti"] = {
            str(pos): {str(d): m for d, m in row.items()}
            for pos, row in graded_ops.betti_table(R).items()
        }
    return EXIT_OK, payload


def cmd_assoc_graded(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    ctx = filtered_ops.FiltrationContext(pf.algebra)
    B = ctx.graded().algebra
    payload = {
        "generators": list(B.names),
        "relations": _relations_out(B),
    }
    return EXIT_OK, payload


def cmd_rees(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    ctx = filtered_ops.FiltrationContext(pf.algebra)
    rees = ctx.rees()
    payload = {
        "generators": list(rees.algebra.names),
        "homogenizing_generator": rees.algebra.names[rees.z_index],
        "relations": _relations_out(rees.algebra),
    }
    return EXIT_OK, payload


def cmd_filtered_resolve(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    module = pf.module
    if args.shifts is not None:
        try:
            wanted = [int(s) for s in args.shifts.split(",")]
            module = FreeModule(pf.algebra, module.rank, wanted)
        except (ValueError, SolvpolyError) as exc:
            raise SchemaError("--shifts: %s" % exc)
        gens = [module.from_polys(v.to_polys()) for v in pf.generators]
    else:
        gens = pf.generators
    ctx = filtered_ops.FiltrationContext(pf.algebra)
    R = filtered_ops.minimal_filtered_resolution(ctx, module, gens)
    payload = _resolution_out(R)
    payload["length"] = len(R.maps)
    return EXIT_OK, payload


def cmd_transfer_check(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    ctx = filtered_ops.FiltrationContext(pf.algebra)
    rep = filtered_ops.transfer_check(ctx, pf.generators)
    payload = {
        "in_algebra": rep.in_algebra,
        "in_graded": rep.in_graded,
        "in_rees": rep.in_rees,
        "agree": rep.agree(),
    }
    ok = rep.agree() and rep.in_algebra
    return (EXIT_OK if ok else EXIT_NEGATIVE), payload


def cmd_oracle_staircase(pf: ProblemFile, args) -> Tuple[int, Dict[str, Any]]:
    st = groebner.staircase_oracle(pf.generators, pf.mod_order,
                                   args.oracle_degree)
    payload = {
        "degree_bound": args.oracle_degree,
        "staircase": _staircase_out(pf.algebra, st),
    }
    return EXIT_OK, payload


_COMMANDS = {
    "verify-presentation": cmd_verify_presentation,
    "gb": cmd_gb,
    "member": cmd_member,
    "syz": cmd_syz,
    "resolve": cmd_resolve,
    "pdim": cmd_pdim,
    "graded-check": cmd_graded_check,
    "min-gens": cmd_min_gens,
    "graded-resolve": cmd_graded_resolve,
    "assoc-graded": cmd_assoc_graded,
    "rees": cmd_rees,
    "filtered-resolve": cmd_filtered_resolve,
    "transfer-check": cmd_transfer_check,
    "oracle-staircase": cmd_oracle_staircase,
}


# command -> (help, options), each option the arguments of one
# add_argument call
_SUBPARSERS: Dict[str, Tuple[str, list]] = {
    "verify-presentation": (
        "certify that the relations present a solvable type algebra",
        [(("--max-steps",), dict(
            type=int, default=None,
            help="also attempt a bounded rewriting-system completion "
                 "with this many new elements"))]),
    "gb": (
        "left Groebner basis of the generated submodule",
        [(("--reduce",), dict(action="store_true",
                              help="return the unique reduced basis")),
         (("--truncate",), dict(type=int, default=None,
                                help="stop the completion above this "
                                     "degree"))]),
    "member": ("membership test for options.element", []),
    "syz": ("generators of the syzygy module", []),
    "resolve": ("finite free resolution of the quotient module", []),
    "pdim": ("projective dimension bound from a free resolution", []),
    "graded-check": ("is the algebra graded by the declared degrees?", []),
    "min-gens": ("minimal homogeneous generating subset", []),
    "graded-resolve": (
        "minimal graded free resolution",
        [(("--betti",), dict(action="store_true",
                             help="include the Betti table"))]),
    "assoc-graded": ("presentation of the associated graded algebra", []),
    "rees": ("presentation of the Rees algebra", []),
    "filtered-resolve": (
        "minimal filtered free resolution",
        [(("--shifts",), dict(default=None,
                              help="comma separated filtration shifts "
                                   "overriding the module block"))]),
    "transfer-check": (
        "compare the Groebner property across A, its associated graded "
        "algebra and its Rees algebra", []),
    "oracle-staircase": (
        "degree-bounded staircase computed without Buchberger",
        [(("--oracle-degree",), dict(type=int, default=6,
                                     help="exhaustive degree bound "
                                          "(default 6)"))]),
}


def _named_command(argv: Sequence[str]) -> Optional[str]:
    """The command ``argv`` names when only ``--json`` comes before it."""
    for arg in argv:
        if arg != "--json":
            return arg if arg in _COMMANDS else None
    return None


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``: with the subparser of the command it
    names alone, or with every subparser when it names no known command
    or has anything but ``--json`` before it (``-h``, say).  The usage
    line lists every command either way."""
    parser = argparse.ArgumentParser(
        prog="solvpoly",
        description="Exact left Groebner basis computations over "
                    "solvable polynomial algebras.",
    )
    parser.add_argument("--json", action="store_true",
                        help="print a canonical JSON document")
    names = list(_COMMANDS)
    wanted = _named_command(argv)
    if wanted is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{%s}" % ",".join(names))
        names = [wanted]
    for name in names:
        help_text, options = _SUBPARSERS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="print a canonical JSON document")
        p.add_argument("problem", help="problem file (JSON)")
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return parser


@contextlib.contextmanager
def _whole_integers():
    """Lift the interpreter's limit on int <-> str conversion (Python
    3.10.7 on; 4300 digits by default) inside the block and restore it
    after: exact answers are read and printed in full, while a library
    caller keeps its own setting."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused for the call and switched
    back on last, on every exit path, only if it was on at entry: the
    pass that is then due runs at the caller's next allocation, not
    inside the call.  What a command leaves in cycles (its algebra,
    which each relation tail refers back to, and its argument parser)
    outlives the call with or without the pause, so a pass inside it
    frees little."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: Optional[Sequence[str]]) -> int:
    with _whole_integers():
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv).parse_args(argv)
        handler = _COMMANDS[args.command]
        try:
            pf = parse_problem(args.problem)
            if args.command != "verify-presentation":
                # every other command computes in the algebra, which is
                # meaningless unless its products associate
                check_associative(pf.algebra)
            code, payload = handler(pf, args)
        except _NEGATIVE_ERRORS as exc:
            print("not solvable type: %s" % exc, file=sys.stderr)
            return EXIT_NEGATIVE
        except SolvpolyError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_INPUT
        try:
            _emit(payload, args.json)
            sys.stdout.flush()
        except BrokenPipeError:
            # nothing more can reach the reader; send what is still buffered
            # to the null device, so the flush at exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print("error: standard output closed before the report was "
                  "written", file=sys.stderr)
            return EXIT_INPUT
        return code


if __name__ == "__main__":
    sys.exit(main())
