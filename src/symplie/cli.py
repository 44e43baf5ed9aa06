"""Line-oriented text format for algebras, plus the command-line driver.

File grammar (1-based indices, `#` comments, blank lines ignored):

    algebra NAME
    dim N
    op LABEL i j = q1*e k1 [+ q2*e k2 ...]   # e_i o e_j, terms like 1*e2, -1/2*e1
    form LABEL i j = q
    map LABEL i = q1*e k1 [+ ...]            # image of e_i
    tensor2 LABEL i j = q                    # coefficient matrix of an element of A tensor A
    rep LABEL i j k = q                      # rho(e_i) entry (j, k)

Omitted entries are zero.  Skew completion is never performed: a form with
entry (i, j) but not (j, i) parses, fails check_skew, and draws a warning.
Internally everything is 0-based.

SECTIONS holds one row per entry keyword: the AlgebraFile field it fills,
its index count, its entry kind (a vector of q*eK terms or one rational) and
how the entries, nested by index, become the stored object (StructureTensor,
Form, Endo with column i the image of e_i, a plain matrix, or RepTensor) and
back.  parse_algebra_file, emit_algebra_file and the zero defaults of _read
all read that table.

A Slot is where a file holds one object, a keyword and a label such as
`op prec`; a Part is a library object held in several slots, such as the
coproduct pair (`rep alpha`, `rep beta`).  Each CHECKS entry names its
verifier and what it reads, each RECIPES entry what it reads from each input
file, the slots it writes, how it builds and re-verifies them and its
output's dimension as a multiple of the first input's (scale); verify,
construct and catalog export read and write objects only through these.
"""

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .linalg import DimensionMismatch, InternalMismatch, SingularMatrix, mat_transpose
from .checks import (
    Endo,
    Form,
    RepTensor,
    StructureTensor,
    check_flat,
    check_hypersymplectic,
    check_jacobi,
    check_left_symmetric,
    check_nondegenerate,
    check_plsa,
    check_skew,
    check_special_symplectic,
    check_torsion_free,
    merge_reports,
    sub_adjacent,
)
from .constructions import (
    BadParams,
    DegenerateForm,
    FamilyParams,
    InvalidInput,
    NotARepresentation,
    NotAnLSA,
    SpecialSymplecticData,
    hypersymplectic_from_cotangent,
    hypersymplectic_from_tangent,
    lsa_from_symplectic,
    plsa_from_special_symplectic,
    post_affine_check,
    semidirect_lie,
    tangent_double,
    cotangent_double,
)
from .matched import MatchedPairData, NotMatched, bowtie_lsa, check_matched_pair, double_extension
from .bialgebra import (
    CoproductPair,
    NotAPLSBA,
    NotAnSLSBA,
    ParaKahlerData,
    R_operators,
    check_parakahler,
    coboundary_coproducts,
    drinfeld_double,
    plsba_check,
    plsca_check,
    slsba_check,
    slsba_double,
)
from .catalog import UnknownEntry, catalog_get, catalog_list


class ParseError(ValueError):
    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(msg if line is None else "line %d: %s" % (line, msg))


class IndexOutOfRange(ParseError):
    pass


class DuplicateAssignment(ParseError):
    pass


class UnknownCheck(ValueError):
    pass


@dataclass
class AlgebraFile:
    name: str
    dim: int
    ops: dict = field(default_factory=dict)       # label -> StructureTensor
    forms: dict = field(default_factory=dict)     # label -> Form
    maps: dict = field(default_factory=dict)      # label -> Endo
    tensor2s: dict = field(default_factory=dict)  # label -> matrix
    reps: dict = field(default_factory=dict)      # label -> RepTensor
    warnings: tuple = ()


class Section(NamedTuple):
    """One kind of entry line: `keyword LABEL i1 .. i<nidx> = entry`."""
    keyword: str
    field: str      # the AlgebraFile dict that holds the section's objects
    nidx: int       # number of indices before '='
    terms: bool     # entry is a sum of q*eK terms (a vector); else one rational
    build: object   # (dim, entries nested by index) -> stored object
    entries: object  # stored object -> its entries nested by index


# the file's sections, in the order the emitter writes them
SECTIONS = {s.keyword: s for s in (
    Section("op", "ops", 2, True, StructureTensor, lambda t: t.c),
    Section("form", "forms", 2, False, Form, lambda f: f.m),
    # a map line gives the image of e_i, which is column i of the matrix
    Section("map", "maps", 1, True, lambda n, cols: Endo(n, mat_transpose(cols)),
            lambda e: mat_transpose(e.m)),
    Section("tensor2", "tensor2s", 2, False, lambda n, m: m, lambda m: m),
    Section("rep", "reps", 3, False, lambda n, t: RepTensor(n, n, t), lambda r: r.t),
)}

_INDEX_COUNT = {1: "one index", 2: "two indices", 3: "three indices"}

MAX_DIM = 64  # room for a third Drinfeld double (32); dense n^3 defaults stay small

_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)\*e(\d+)$")
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


def _exact(text):
    """Fraction(text) for an integer, p/q or a plain decimal.  Exponent
    notation raises ValueError: Fraction expands 10**exp, so an entry as
    short as 1e999999999 would build a huge int before any check runs."""
    if "e" in text.lower():
        raise ValueError("exponent notation in %r" % text)
    return Fraction(text)


def _rational(text, lineno):
    try:
        return _exact(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad rational %r" % text, lineno)


def _terms(text, dim, lineno):
    """Parse `q1*e k1 [+ q2*e k2 ...]` into a coefficient vector."""
    out = [Fraction(0)] * dim
    for raw in text.split("+"):
        raw = raw.strip()
        m = _TERM_RE.match(raw)
        if not m:
            raise ParseError("bad term %r (expected like 1*e2 or -1/2*e1)" % raw,
                             lineno)
        q = _rational(m.group(1), lineno)
        try:
            k = int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise ParseError("bad basis index %r" % m.group(2), lineno)
        if not 1 <= k <= dim:
            raise IndexOutOfRange("basis index e%d out of range 1..%d" % (k, dim),
                                  lineno)
        out[k - 1] += q
    return tuple(out)


def _index(tok, dim, lineno):
    try:
        i = int(tok)
    except ValueError:
        raise ParseError("bad index %r" % tok, lineno)
    if not 1 <= i <= dim:
        raise IndexOutOfRange("index %d out of range 1..%d" % (i, dim), lineno)
    return i - 1


def _label(tok, lineno):
    if not _LABEL_RE.match(tok):
        raise ParseError("bad label %r" % tok, lineno)
    return tok


def _assemble(sec, dim, entries):
    """A section's stored object from its entries {0-based index tuple:
    entry}; an omitted entry is zero."""
    zero = (Fraction(0),) * dim if sec.terms else Fraction(0)

    def nest(at):
        if len(at) == sec.nidx:
            return entries.get(at, zero)
        return tuple(nest(at + (i,)) for i in range(dim))
    return sec.build(dim, nest(()))


def parse_algebra_file(text):
    name = None
    dim = None
    found = {kw: {} for kw in SECTIONS}  # keyword -> label -> {indices: entry}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        kw = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if kw == "algebra":
            if name is not None:
                raise DuplicateAssignment("algebra already named", lineno)
            name = _label(rest.strip(), lineno)
            continue
        if kw == "dim":
            if dim is not None:
                raise DuplicateAssignment("dim already declared", lineno)
            try:
                dim = int(rest.strip())
            except ValueError:
                raise ParseError("bad dimension %r" % rest.strip(), lineno)
            if dim < 1:
                raise ParseError("dimension must be positive", lineno)
            if dim > MAX_DIM:
                raise ParseError("dimension %d exceeds the limit of %d" % (dim, MAX_DIM),
                                 lineno)
            continue
        sec = SECTIONS.get(kw)
        if sec is None:
            raise ParseError("unknown keyword %r" % kw, lineno)
        if dim is None:
            raise ParseError("dim must be declared before entries", lineno)
        if "=" not in rest:
            raise ParseError("missing '='", lineno)
        lhs, rhs = rest.split("=", 1)
        toks = lhs.split()
        if not toks:
            raise ParseError("missing label", lineno)
        label = _label(toks[0], lineno)
        if len(toks) - 1 != sec.nidx:
            raise ParseError("%s needs %s" % (kw, _INDEX_COUNT[sec.nidx]), lineno)
        idx = tuple(_index(t, dim, lineno) for t in toks[1:])
        entries = found[kw].setdefault(label, {})
        if idx in entries:
            raise DuplicateAssignment("duplicate assignment %s" % ((kw, label) + idx,),
                                      lineno)
        rhs = rhs.strip()
        entries[idx] = _terms(rhs, dim, lineno) if sec.terms else _rational(rhs, lineno)

    if name is None:
        raise ParseError("missing 'algebra NAME' line")
    if dim is None:
        raise ParseError("missing 'dim N' line")

    objs = {sec.field: {label: _assemble(sec, dim, entries)
                        for label, entries in found[sec.keyword].items()}
            for sec in SECTIONS.values()}
    warnings = []
    for label in sorted(objs["forms"]):
        m = objs["forms"][label].m
        for i in range(dim):
            for j in range(dim):
                if m[i][j] != 0 and m[j][i] == 0 and i != j:
                    warnings.append(
                        "form %s has entry (%d, %d) but not (%d, %d); skew "
                        "completion is never automatic"
                        % (label, i + 1, j + 1, j + 1, i + 1))
    return AlgebraFile(name, dim, warnings=tuple(warnings), **objs)


def _text(q):
    """str(q), or BadParams past the digits Python turns into text, which a
    product of long input values can reach (sys.get_int_max_str_digits)."""
    try:
        return str(q)
    except ValueError:
        raise BadParams("a rational has more than %d digits and cannot be printed"
                        % sys.get_int_max_str_digits())


def _emit_entries(lines, head, nested, depth, terms):
    """One line per nonzero entry, row by row; head is the line's start up
    to the indices still to come."""
    if depth > 1:
        for i, sub in enumerate(nested, 1):
            _emit_entries(lines, "%s %d" % (head, i), sub, depth - 1, terms)
        return
    for i, x in enumerate(nested, 1):
        body = (" + ".join(["%s*e%d" % (_text(q), k + 1) for k, q in enumerate(x) if q != 0])
                if terms else _text(x) if x else "")
        if body:
            lines.append("%s %d = %s" % (head, i, body))


def emit_algebra_file(af):
    """Canonical text: sections in a fixed order, labels sorted, indices
    ascending, zero entries omitted, rationals in lowest terms."""
    lines = ["algebra %s" % af.name, "dim %d" % af.dim]
    for sec in SECTIONS.values():
        objs = getattr(af, sec.field)
        for label in sorted(objs):
            _emit_entries(lines, "%s %s" % (sec.keyword, label),
                          sec.entries(objs[label]), sec.nidx, sec.terms)
    return "\n".join(lines) + "\n"


class Slot(NamedTuple):
    """Where a file holds one object: a SECTIONS keyword and a label."""
    keyword: str
    label: str
    optional: bool = False  # an omitted object reads as None, not as zero


class Part(NamedTuple):
    """A library object held in several slots: make(*their objects)."""
    make: object
    slots: tuple


BRACKET, PROD, CONN = Slot("op", "bracket"), Slot("op", "prod"), Slot("op", "conn")
OMEGA, MAP_E, ALPHA = Slot("form", "omega"), Slot("map", "E"), Slot("rep", "alpha")
PLSA = (Slot("op", "prec"), Slot("op", "succ"))
COPRODUCTS = (ALPHA, Slot("rep", "beta"))
HYPERSYMPLECTIC = (BRACKET, Slot("map", "J"), MAP_E, Slot("form", "g"))
DOUBLE = (BRACKET, CONN, Slot("form", "g"))
COBOUNDARY = PLSA + COPRODUCTS + (Slot("tensor2", "r"),)  # a bialgebra and its r

PAIR = Part(lambda prec, succ: (prec, succ), PLSA)
COPRODUCT_PAIR = Part(lambda a, b: CoproductPair(a.n, a.t, b.t), COPRODUCTS)
SSLA = Part(SpecialSymplecticData, (BRACKET, CONN, OMEGA))
MATCHED_PAIR = Part(MatchedPairData, (Slot("op", "a1"), Slot("op", "a2"),
                                      Slot("rep", "l1"), Slot("rep", "r1"),
                                      Slot("rep", "l2"), Slot("rep", "r2")))
PARA_KAHLER = Part(ParaKahlerData, (BRACKET, OMEGA, MAP_E, Slot("op", "conn", optional=True)))


def _read(af, item):
    """The object af holds in a slot (zero when omitted, or None for an
    optional slot), or the object a Part makes of its slots."""
    if isinstance(item, Part):
        return item.make(*(_read(af, slot) for slot in item.slots))
    sec = SECTIONS[item.keyword]
    got = getattr(af, sec.field).get(item.label)
    if got is None and not item.optional:
        return _assemble(sec, af.dim, {})
    return got


def _afile(name, slots, objs):
    """The AlgebraFile holding objs[i] in slots[i]; its dim is theirs."""
    af = AlgebraFile(name, len(SECTIONS[slots[0].keyword].entries(objs[0])))
    for slot, obj in zip(slots, objs, strict=True):
        getattr(af, SECTIONS[slot.keyword].field)[slot.label] = obj
    return af


# ---------------------------------------------------------------------------
# verify

class Check(NamedTuple):
    """verify --check NAME: verifier(*the objects read from reads)."""
    verifier: object
    reads: tuple  # Slots and Parts


def _gated(name, pre, verifier, *args):
    """verifier(*args), or, when a report in pre (the verifier's
    preconditions) fails, those reports merged under name instead of the
    verifier's typed error; the verifier finds the passing ones kept."""
    if not all(rep.verdict for rep in pre):
        return merge_reports(name, pre)
    return verifier(*args)


CHECKS = {
    "lie": Check(check_jacobi, (BRACKET,)),
    "lsa": Check(check_left_symmetric, (PROD,)),
    "plsa": Check(check_plsa, PLSA),
    "special-symplectic": Check(check_special_symplectic, SSLA.slots),
    "hypersymplectic": Check(check_hypersymplectic, HYPERSYMPLECTIC),
    "matched-pair": Check(check_matched_pair, (MATCHED_PAIR,)),
    "plsba": Check(lambda plsa, cp: _gated("plsba", [check_plsa(*plsa), plsca_check(cp)],
                                           plsba_check, plsa, cp),
                   (PAIR, COPRODUCT_PAIR)),
    "slsba": Check(lambda lsa, alpha: _gated("slsba", [check_left_symmetric(lsa)],
                                             slsba_check, lsa, alpha.t),
                   (PROD, ALPHA)),
    "para-kahler": Check(check_parakahler, (PARA_KAHLER,)),
    "post-affine": Check(post_affine_check, (CONN, Slot("op", "conn2"), BRACKET)),
}


def _residual_repr(r):
    if isinstance(r, tuple):
        return [_text(x) for x in r]
    return _text(r)


def report_to_dict(rep):
    return {
        "check": rep.check,
        "verdict": rep.verdict,
        "violations": [{"where": v.where,
                        "indices": [i + 1 for i in v.indices],
                        "residual": _residual_repr(v.residual)}
                       for v in rep.violations],
        "notes": list(rep.notes),
    }


_PRINT_CAP = 50


def _emit_reports(reports, as_json):
    """Print the reports, as one JSON list or as text showing at most
    _PRINT_CAP violations of each; True if all pass."""
    if as_json:
        print(json.dumps([report_to_dict(r) for r in reports], indent=2))
    else:
        for rep in reports:
            print("%s: %s" % (rep.check, "PASS" if rep.verdict else "FAIL"))
            for note in rep.notes:
                print("  note: %s" % note)
            for v in rep.violations[:_PRINT_CAP]:
                shown = tuple(i + 1 for i in v.indices)
                print("  %s %s: %s" % (v.where, shown, _residual_repr(v.residual)))
            extra = len(rep.violations) - _PRINT_CAP
            if extra > 0:
                print("  ... and %d more violations" % extra)
    return all(r.verdict for r in reports)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError("%s is not UTF-8 text (byte %d)" % (path, e.start))
    return parse_algebra_file(text)


def cmd_verify(args):
    unknown = [name for name in args.check if name not in CHECKS]
    if unknown:  # refused before the file is read, so no warning precedes it
        raise UnknownCheck("unknown check %r; valid: %s"
                           % (unknown[0], ", ".join(sorted(CHECKS))))
    af = _load(args.file)
    for w in af.warnings:
        print("warning: %s" % w, file=sys.stderr)
    reports = []
    for name in args.check:
        check = CHECKS[name]
        reports.append(check.verifier(*(_read(af, item) for item in check.reads)))
    return 0 if _emit_reports(reports, args.json) else 1


# ---------------------------------------------------------------------------
# construct

class Recipe(NamedTuple):
    """construct NAME: build(args, *the objects read) returns the objects to
    write in the slots of writes, in order, and the reports re-verifying
    them; their dimension is scale times that of the first input file."""
    reads: tuple   # per input file, the Slots and Parts read from it
    writes: tuple  # Slots
    build: object
    scale: int = 1


def _fracarg(value, name):
    if value is None:
        raise BadParams("missing --%s" % name)
    try:
        return _exact(value)
    except (ValueError, ZeroDivisionError):
        raise BadParams("bad rational for --%s: %r" % (name, value))


def _parse_r(text, dim):
    if text is None:
        raise BadParams("missing --r (format: i,j,q;i,j,q;...)")
    entries = {}
    if text.strip():
        for chunk in text.split(";"):
            bits = chunk.split(",")
            if len(bits) != 3:
                raise BadParams("bad --r chunk %r" % chunk)
            try:
                i, j = int(bits[0]), int(bits[1])
                q = _exact(bits[2])
            except (ValueError, ZeroDivisionError):
                raise BadParams("bad --r chunk %r" % chunk)
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise BadParams("--r index (%d, %d) out of range 1..%d"
                                % (i, j, dim))
            if (i, j) in entries:
                raise BadParams("--r entry (%d, %d) given twice" % (i, j))
            entries[i, j] = q
    return tuple(tuple(entries.get((i, j), Fraction(0)) for j in range(1, dim + 1))
                 for i in range(1, dim + 1))


def _checked(check, *objs):
    """objs, re-verified by CHECKS[check], whose reads are the slots they
    are written to."""
    return objs, [CHECKS[check].verifier(*objs)]


def _reps(n, *tensors):
    return tuple(RepTensor(n, n, t) for t in tensors)


def _double_checked(d):
    """A tangent or cotangent double's objects, omega_p last if any, and reports."""
    objs = (d.bracket, d.conn, d.metric)
    reports = [check_jacobi(d.bracket),
               check_torsion_free(d.bracket, d.conn),
               check_flat(d.bracket, d.conn)]
    if d.omega_p is not None:
        objs += (d.omega_p,)
        reports += [check_skew(d.omega_p), check_nondegenerate(d.omega_p)]
    return objs, reports


def _hypersymplectic(family, args, s):
    lam = _fracarg(args.lam, "lambda")
    mu = _fracarg(args.mu if args.mu is not None else "0", "mu")
    k = _fracarg(args.k, "k") if args.k is not None else None
    build = (hypersymplectic_from_cotangent if args.double == "cotangent"
             else hypersymplectic_from_tangent)
    d, J, E, g = build(s, FamilyParams(family, lam, mu, k, args.sign))
    return _checked("hypersymplectic", d.bracket, J, E, g)


def _double_extension(args, plsa, plsa_star):
    ded, rep = double_extension(plsa, plsa_star)
    return (sub_adjacent(ded.glued), ded.glued, ded.omega_p), [rep]


def _drinfeld_double(args, plsa, cp):
    plsa_d, r, cp_d, rep = drinfeld_double(plsa, cp)
    return (*plsa_d, *_reps(cp_d.n, cp_d.alpha, cp_d.beta), r), [rep]


def _slsba_double(args, lsa, alpha):
    lsa_d, alpha_d, rep = slsba_double((lsa, alpha.t))
    return (lsa_d, *_reps(lsa_d.n, alpha_d)), [rep]


def _coboundary(args, plsa):
    r = _parse_r(args.r, plsa[0].n)
    R_operators(plsa, r)  # cross-asserts the two evaluation routes
    cp = coboundary_coproducts(plsa, r)
    return (*plsa, *_reps(cp.n, cp.alpha, cp.beta), r), [plsca_check(cp)]


RECIPES = {
    "sub-adjacent": Recipe(((PROD,),), (BRACKET,),
                           lambda args, prod: _checked("lie", sub_adjacent(prod))),
    "lsa-from-symplectic": Recipe(
        ((BRACKET, OMEGA),), (PROD,),
        lambda args, br, w: _checked("lsa", lsa_from_symplectic(br, w))),
    "plsa-extract": Recipe(((SSLA,),), PLSA,
                           lambda args, s: _checked("plsa", *plsa_from_special_symplectic(s))),
    "tangent-double": Recipe(((SSLA,),), DOUBLE,
                             lambda args, s: _double_checked(tangent_double(s)), scale=2),
    "cotangent-double": Recipe(((SSLA,),), DOUBLE + (Slot("form", "omega_p"),),
                               lambda args, s: _double_checked(cotangent_double(s)), scale=2),
    **{"hypersymplectic-" + family.lower(): Recipe(
        ((SSLA,),), HYPERSYMPLECTIC, functools.partial(_hypersymplectic, family), scale=2)
       for family in ("F1", "F2", "F3")},
    "semidirect": Recipe(((BRACKET, Slot("rep", "rho")),), (BRACKET,),
                         lambda args, br, rho: _checked("lie", semidirect_lie(br, rho)),
                         scale=2),
    "bowtie": Recipe(((MATCHED_PAIR,),), (PROD,),
                     lambda args, mp: _checked("lsa", bowtie_lsa(mp)), scale=2),
    "double-extension": Recipe(((PAIR,), (PAIR,)), (BRACKET, CONN, OMEGA), _double_extension,
                               scale=2),
    "drinfeld-double": Recipe(((PAIR, COPRODUCT_PAIR),), COBOUNDARY, _drinfeld_double,
                              scale=2),
    "slsba-double": Recipe(((PROD, ALPHA),), (PROD, ALPHA), _slsba_double, scale=2),
    "coboundary": Recipe(((PAIR,),), COBOUNDARY, _coboundary),
}

_FILE_COUNT = {1: "one input file", 2: "two input files"}


def cmd_construct(args):
    recipe = RECIPES.get(args.recipe)
    if recipe is None:
        raise BadParams("unknown recipe %r; valid: %s"
                        % (args.recipe, ", ".join(sorted(RECIPES))))
    if len(args.inputs) != len(recipe.reads):
        raise BadParams("%s needs %s" % (args.recipe, _FILE_COUNT[len(recipe.reads)]))
    afs = [_load(path) for path in args.inputs]
    dim = recipe.scale * afs[0].dim
    if dim > MAX_DIM:  # parse_algebra_file would refuse the output: refused before building
        raise BadParams("output dimension %d exceeds the limit of %d; nothing written"
                        % (dim, MAX_DIM))
    objs = [_read(af, item) for af, reads in zip(afs, recipe.reads) for item in reads]
    out, reports = recipe.build(args, *objs)
    stem = os.path.splitext(os.path.basename(args.inputs[0]))[0]
    af = _afile(args.name or ("%s-%s" % (stem, args.recipe)), recipe.writes, out)
    text = emit_algebra_file(af)  # may refuse (_text): before any report or file
    if not _emit_reports(reports, args.json):
        print("construction output failed re-verification; nothing written",
              file=sys.stderr)
        return 1
    path = args.out or os.path.join(os.path.dirname(args.inputs[0]) or ".",
                                    "%s-%s.alg" % (stem, args.recipe))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# catalog

def _entry_to_afile(entry):
    p = entry.payload
    if entry.kind == "ssla":
        return _afile(entry.name, SSLA.slots, (p.bracket, p.conn, p.omega))
    if entry.kind == "plsa":
        return _afile(entry.name, PLSA, p)
    return _afile(entry.name, (PROD,), (p,))


def cmd_catalog(args):
    if args.action == "list":
        for name, kind, provenance in catalog_list():
            print("%-12s %-5s %s" % (name, kind, provenance))
        return 0
    if not args.name:
        raise BadParams("catalog show needs an entry name")
    entry = catalog_get(args.name)
    af = _entry_to_afile(entry)
    text = emit_algebra_file(af)
    if args.export:
        path = args.out or ("%s.alg" % entry.name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %s" % path)
        return 0
    print("# %s (%s): %s" % (entry.name, entry.kind, entry.provenance))
    for note in entry.notes:
        print("# note: %s" % note)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# entry point

_USAGE_ERRORS = (ParseError, UnknownCheck, UnknownEntry, BadParams, InvalidInput,
                 NotMatched, NotAPLSBA, NotAnSLSBA, NotARepresentation, NotAnLSA,
                 DegenerateForm, SingularMatrix, DimensionMismatch, OSError)


@functools.cache
def build_parser():
    """The symplie argument parser, built once per process and shared by
    every main call (argparse keeps nothing from one parse to the next).
    It binds no subcommand function: main looks the command up when it
    runs."""
    p = argparse.ArgumentParser(
        prog="symplie",
        description="Exact verification and construction of finite-dimensional "
                    "algebra structures given by rational structure constants.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run axiom checks on an algebra file")
    v.add_argument("file")
    v.add_argument("--check", action="append", required=True,
                   help="one of: %s (repeatable)" % ", ".join(sorted(CHECKS)))
    v.add_argument("--json", action="store_true")

    c = sub.add_parser("construct", help="build a derived structure from files")
    c.add_argument("recipe",
                   help="one of: %s" % ", ".join(sorted(RECIPES)))
    c.add_argument("inputs", nargs="+")
    c.add_argument("--out")
    c.add_argument("--name")
    c.add_argument("--lambda", dest="lam")
    c.add_argument("--mu")
    c.add_argument("--k")
    c.add_argument("--sign", type=int, default=1)
    c.add_argument("--double", choices=("tangent", "cotangent"),
                   default="tangent")
    c.add_argument("--r")
    c.add_argument("--json", action="store_true")

    g = sub.add_parser("catalog", help="list or export built-in instances")
    g.add_argument("action", choices=("list", "show"))
    g.add_argument("name", nargs="?")
    g.add_argument("--export", action="store_true")
    g.add_argument("--out")
    return p


def main(argv=None):
    """Run one symplie command; the return value is the exit code.  The
    parser is shared by every call in a process (build_parser); the
    command's function is looked up in this module at each call, so a
    rebinding of cmd_verify, cmd_construct or cmd_catalog (the benchmark
    tracer's, or a test's monkeypatch) takes effect."""
    args = build_parser().parse_args(argv)
    command = {"verify": cmd_verify, "construct": cmd_construct,
               "catalog": cmd_catalog}[args.command]
    try:
        return command(args)
    except _USAGE_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except InternalMismatch as e:
        print("internal error (a bug in symplie): %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
