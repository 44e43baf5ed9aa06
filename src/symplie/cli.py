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
back.  parse_algebra_file, emit_algebra_file, the zero defaults of _get and
cmd_construct's output file all read that table.
"""

import argparse
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
    _plsba_identities,
    _slsba_identities,
    check_parakahler,
    coboundary_coproducts,
    drinfeld_double,
    plsca_check,
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
        k = int(m.group(2))
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


def _fmt_terms(v):
    parts = ["%s*e%d" % (q, k + 1) for k, q in enumerate(v) if q != 0]
    return " + ".join(parts)


def _emit_entries(lines, head, nested, depth, terms):
    """One line per nonzero entry, row by row; head is the line's start up
    to the indices still to come."""
    if depth > 1:
        for i, sub in enumerate(nested, 1):
            _emit_entries(lines, "%s %d" % (head, i), sub, depth - 1, terms)
        return
    for i, x in enumerate(nested, 1):
        body = _fmt_terms(x) if terms else x
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


def _get(af, keyword, label):
    """The object af holds under label in that section; zero if omitted."""
    sec = SECTIONS[keyword]
    got = getattr(af, sec.field).get(label)
    return got if got is not None else _assemble(sec, af.dim, {})


# ---------------------------------------------------------------------------
# verify

def _chk_lie(af):
    return check_jacobi(_get(af, "op", "bracket"))


def _chk_lsa(af):
    return check_left_symmetric(_get(af, "op", "prod"))


def _plsa_of(af):
    return _get(af, "op", "prec"), _get(af, "op", "succ")


def _coproducts_of(af):
    return CoproductPair(af.dim, _get(af, "rep", "alpha").t, _get(af, "rep", "beta").t)


def _matched_pair_of(af):
    return MatchedPairData(_get(af, "op", "a1"), _get(af, "op", "a2"),
                           _get(af, "rep", "l1"), _get(af, "rep", "r1"),
                           _get(af, "rep", "l2"), _get(af, "rep", "r2"))


def _ssla_of(af):
    return SpecialSymplecticData(_get(af, "op", "bracket"), _get(af, "op", "conn"),
                                 _get(af, "form", "omega"))


def _chk_plsa(af):
    return check_plsa(*_plsa_of(af))


def _chk_special_symplectic(af):
    s = _ssla_of(af)
    return check_special_symplectic(s.bracket, s.conn, s.omega)


def _chk_hypersymplectic(af):
    return check_hypersymplectic(_get(af, "op", "bracket"), _get(af, "map", "J"),
                                 _get(af, "map", "E"), _get(af, "form", "g"))


def _chk_matched_pair(af):
    return check_matched_pair(_matched_pair_of(af))


def _chk_plsba(af):
    plsa, cp = _plsa_of(af), _coproducts_of(af)
    pre1 = check_plsa(*plsa)
    pre2 = plsca_check(cp)
    if not (pre1.verdict and pre2.verdict):
        return merge_reports("plsba", [pre1, pre2])
    return _plsba_identities(plsa, cp)


def _chk_slsba(af):
    lsa = _get(af, "op", "prod")
    pre = check_left_symmetric(lsa)
    if not pre.verdict:
        return merge_reports("slsba", [pre])
    return _slsba_identities(lsa, _get(af, "rep", "alpha").t)


def _chk_parakahler(af):
    return check_parakahler(ParaKahlerData(_get(af, "op", "bracket"),
                                           _get(af, "form", "omega"),
                                           _get(af, "map", "E"), af.ops.get("conn")))


def _chk_post_affine(af):
    return post_affine_check(_get(af, "op", "conn"), _get(af, "op", "conn2"),
                             _get(af, "op", "bracket"))


CHECKS = {
    "lie": _chk_lie,
    "lsa": _chk_lsa,
    "plsa": _chk_plsa,
    "special-symplectic": _chk_special_symplectic,
    "hypersymplectic": _chk_hypersymplectic,
    "matched-pair": _chk_matched_pair,
    "plsba": _chk_plsba,
    "slsba": _chk_slsba,
    "para-kahler": _chk_parakahler,
    "post-affine": _chk_post_affine,
}


def _residual_repr(r):
    if isinstance(r, tuple):
        return [str(x) for x in r]
    return str(r)


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


def _print_report(rep, out=None):
    if out is None:
        out = sys.stdout
    print("%s: %s" % (rep.check, "PASS" if rep.verdict else "FAIL"), file=out)
    for note in rep.notes:
        print("  note: %s" % note, file=out)
    for v in rep.violations[:_PRINT_CAP]:
        shown = tuple(i + 1 for i in v.indices)
        print("  %s %s: %s" % (v.where, shown, _residual_repr(v.residual)), file=out)
    extra = len(rep.violations) - _PRINT_CAP
    if extra > 0:
        print("  ... and %d more violations" % extra, file=out)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError("%s is not UTF-8 text (byte %d)" % (path, e.start))
    return parse_algebra_file(text)


def cmd_verify(args):
    af = _load(args.file)
    for w in af.warnings:
        print("warning: %s" % w, file=sys.stderr)
    unknown = [name for name in args.check if name not in CHECKS]
    if unknown:  # refused before any check runs
        raise UnknownCheck("unknown check %r; valid: %s"
                           % (unknown[0], ", ".join(sorted(CHECKS))))
    reports = [CHECKS[name](af) for name in args.check]
    if args.json:
        print(json.dumps([report_to_dict(r) for r in reports], indent=2))
    else:
        for r in reports:
            _print_report(r)
    return 0 if all(r.verdict for r in reports) else 1


# ---------------------------------------------------------------------------
# construct

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


def _r_sub_adjacent(afs, args):
    br = sub_adjacent(_get(afs[0], "op", "prod"))
    return {"ops": {"bracket": br}}, [check_jacobi(br)]


def _r_lsa_from_symplectic(afs, args):
    prod = lsa_from_symplectic(_get(afs[0], "op", "bracket"), _get(afs[0], "form", "omega"))
    return {"ops": {"prod": prod}}, [check_left_symmetric(prod)]


def _r_plsa_extract(afs, args):
    prec, succ = plsa_from_special_symplectic(_ssla_of(afs[0]))
    return {"ops": {"prec": prec, "succ": succ}}, [check_plsa(prec, succ)]


def _double_payload(d):
    out = {"ops": {"bracket": d.bracket, "conn": d.conn}, "forms": {"g": d.metric}}
    reports = [check_jacobi(d.bracket),
               check_torsion_free(d.bracket, d.conn),
               check_flat(d.bracket, d.conn)]
    if d.omega_p is not None:
        out["forms"]["omega_p"] = d.omega_p
        reports += [check_skew(d.omega_p), check_nondegenerate(d.omega_p)]
    return out, reports


def _r_tangent_double(afs, args):
    return _double_payload(tangent_double(_ssla_of(afs[0])))


def _r_cotangent_double(afs, args):
    return _double_payload(cotangent_double(_ssla_of(afs[0])))


def _family_params(family, args):
    lam = _fracarg(args.lam, "lambda")
    mu = _fracarg(args.mu if args.mu is not None else "0", "mu")
    k = _fracarg(args.k, "k") if args.k is not None else None
    return FamilyParams(family, lam, mu, k, args.sign)


def _r_hypersymplectic(family):
    def run(afs, args):
        s = _ssla_of(afs[0])
        p = _family_params(family, args)
        build = (hypersymplectic_from_cotangent if args.double == "cotangent"
                 else hypersymplectic_from_tangent)
        d, J, E, g = build(s, p)
        rep = check_hypersymplectic(d.bracket, J, E, g)
        return ({"ops": {"bracket": d.bracket}, "maps": {"J": J, "E": E},
                 "forms": {"g": g}}, [rep])
    return run


def _r_semidirect(afs, args):
    br2 = semidirect_lie(_get(afs[0], "op", "bracket"), _get(afs[0], "rep", "rho"))
    return {"ops": {"bracket": br2}}, [check_jacobi(br2)]


def _r_bowtie(afs, args):
    prod = bowtie_lsa(_matched_pair_of(afs[0]))
    return {"ops": {"prod": prod}}, [check_left_symmetric(prod)]


def _r_double_extension(afs, args):
    if len(afs) != 2:
        raise BadParams("double-extension needs two input files")
    ded, rep = double_extension(_plsa_of(afs[0]), _plsa_of(afs[1]))
    return ({"ops": {"bracket": sub_adjacent(ded.glued), "conn": ded.glued},
             "forms": {"omega": ded.omega_p}}, [rep])


def _r_drinfeld_double(afs, args):
    (prec_d, succ_d), r, cp_d, rep = drinfeld_double(_plsa_of(afs[0]),
                                                     _coproducts_of(afs[0]))
    d = prec_d.n
    return ({"ops": {"prec": prec_d, "succ": succ_d},
             "reps": {"alpha": RepTensor(d, d, cp_d.alpha),
                      "beta": RepTensor(d, d, cp_d.beta)},
             "tensor2s": {"r": r}}, [rep])


def _r_slsba_double(afs, args):
    af = afs[0]
    lsa_d, alpha_d, rep = slsba_double((_get(af, "op", "prod"),
                                        _get(af, "rep", "alpha").t))
    d = lsa_d.n
    return ({"ops": {"prod": lsa_d},
             "reps": {"alpha": RepTensor(d, d, alpha_d)}}, [rep])


def _r_coboundary(afs, args):
    af = afs[0]
    plsa = _plsa_of(af)
    r = _parse_r(args.r, af.dim)
    R_operators(plsa, r)  # cross-asserts the two evaluation routes
    cp = coboundary_coproducts(plsa, r)
    rep = plsca_check(cp)
    d = af.dim
    return ({"ops": {"prec": plsa[0], "succ": plsa[1]},
             "reps": {"alpha": RepTensor(d, d, cp.alpha),
                      "beta": RepTensor(d, d, cp.beta)},
             "tensor2s": {"r": r}}, [rep])


RECIPES = {
    "sub-adjacent": _r_sub_adjacent,
    "lsa-from-symplectic": _r_lsa_from_symplectic,
    "plsa-extract": _r_plsa_extract,
    "tangent-double": _r_tangent_double,
    "cotangent-double": _r_cotangent_double,
    "hypersymplectic-f1": _r_hypersymplectic("F1"),
    "hypersymplectic-f2": _r_hypersymplectic("F2"),
    "hypersymplectic-f3": _r_hypersymplectic("F3"),
    "semidirect": _r_semidirect,
    "bowtie": _r_bowtie,
    "double-extension": _r_double_extension,
    "drinfeld-double": _r_drinfeld_double,
    "slsba-double": _r_slsba_double,
    "coboundary": _r_coboundary,
}


def _payload_dim(payload):
    for sec in SECTIONS.values():
        for obj in payload.get(sec.field, {}).values():
            return len(sec.entries(obj))
    raise AssertionError("empty construction payload")


def cmd_construct(args):
    recipe = RECIPES.get(args.recipe)
    if recipe is None:
        raise BadParams("unknown recipe %r; valid: %s"
                        % (args.recipe, ", ".join(sorted(RECIPES))))
    afs = [_load(p) for p in args.inputs]
    payload, reports = recipe(afs, args)
    if args.json:
        print(json.dumps([report_to_dict(r) for r in reports], indent=2))
    else:
        for r in reports:
            _print_report(r)
    if not all(r.verdict for r in reports):
        print("construction output failed re-verification; nothing written",
              file=sys.stderr)
        return 1
    stem = os.path.splitext(os.path.basename(args.inputs[0]))[0]
    name = args.name or ("%s-%s" % (stem, args.recipe))
    out_af = AlgebraFile(name, _payload_dim(payload),
                         **{sec.field: dict(payload.get(sec.field, {}))
                            for sec in SECTIONS.values()})
    path = args.out or os.path.join(os.path.dirname(args.inputs[0]) or ".",
                                    "%s-%s.alg" % (stem, args.recipe))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_algebra_file(out_af))
    print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------
# catalog

def _entry_to_afile(entry):
    if entry.kind == "ssla":
        return AlgebraFile(entry.name, entry.payload.bracket.n,
                           {"bracket": entry.payload.bracket,
                            "conn": entry.payload.conn},
                           {"omega": entry.payload.omega})
    if entry.kind == "plsa":
        prec, succ = entry.payload
        return AlgebraFile(entry.name, prec.n, {"prec": prec, "succ": succ})
    return AlgebraFile(entry.name, entry.payload.n, {"prod": entry.payload})


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


def build_parser():
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
    v.set_defaults(func=cmd_verify)

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
    c.set_defaults(func=cmd_construct)

    g = sub.add_parser("catalog", help="list or export built-in instances")
    g.add_argument("action", choices=("list", "show"))
    g.add_argument("name", nargs="?")
    g.add_argument("--export", action="store_true")
    g.add_argument("--out")
    g.set_defaults(func=cmd_catalog)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except InternalMismatch as e:
        print("internal error (a bug in symplie): %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
