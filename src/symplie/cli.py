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
"""

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import DimensionMismatch, InternalMismatch, SingularMatrix, mat_zero
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
    rep_zero,
    st,
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


MAX_DIM = 64  # room for a third Drinfeld double (32); dense n^3 defaults stay small

_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)\*e(\d+)$")
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


def _rational(text, lineno):
    try:
        return Fraction(text)
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


def parse_algebra_file(text):
    name = None
    dim = None
    ops, forms, maps, tensor2s, reps = {}, {}, {}, {}, {}
    seen = set()

    def need_dim(lineno):
        if dim is None:
            raise ParseError("dim must be declared before entries", lineno)

    def claim(key, lineno):
        if key in seen:
            raise DuplicateAssignment("duplicate assignment %s" % (key,), lineno)
        seen.add(key)

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
        if kw not in ("op", "form", "map", "tensor2", "rep"):
            raise ParseError("unknown keyword %r" % kw, lineno)
        need_dim(lineno)
        if "=" not in rest:
            raise ParseError("missing '='", lineno)
        lhs, rhs = rest.split("=", 1)
        toks = lhs.split()
        rhs = rhs.strip()
        if not toks:
            raise ParseError("missing label", lineno)
        label = _label(toks[0], lineno)
        idx = toks[1:]
        if kw == "op":
            if len(idx) != 2:
                raise ParseError("op needs two indices", lineno)
            i, j = (_index(t, dim, lineno) for t in idx)
            claim(("op", label, i, j), lineno)
            tgt = ops.setdefault(label,
                                 [[None] * dim for _ in range(dim)])
            tgt[i][j] = _terms(rhs, dim, lineno)
        elif kw == "form":
            if len(idx) != 2:
                raise ParseError("form needs two indices", lineno)
            i, j = (_index(t, dim, lineno) for t in idx)
            claim(("form", label, i, j), lineno)
            tgt = forms.setdefault(label, [[Fraction(0)] * dim for _ in range(dim)])
            tgt[i][j] = _rational(rhs, lineno)
        elif kw == "map":
            if len(idx) != 1:
                raise ParseError("map needs one index", lineno)
            i = _index(idx[0], dim, lineno)
            claim(("map", label, i), lineno)
            tgt = maps.setdefault(label, [None] * dim)
            tgt[i] = _terms(rhs, dim, lineno)
        elif kw == "tensor2":
            if len(idx) != 2:
                raise ParseError("tensor2 needs two indices", lineno)
            i, j = (_index(t, dim, lineno) for t in idx)
            claim(("tensor2", label, i, j), lineno)
            tgt = tensor2s.setdefault(label,
                                      [[Fraction(0)] * dim for _ in range(dim)])
            tgt[i][j] = _rational(rhs, lineno)
        else:  # rep
            if len(idx) != 3:
                raise ParseError("rep needs three indices", lineno)
            i, j, k = (_index(t, dim, lineno) for t in idx)
            claim(("rep", label, i, j, k), lineno)
            tgt = reps.setdefault(label,
                                  [[[Fraction(0)] * dim for _ in range(dim)]
                                   for _ in range(dim)])
            tgt[i][j][k] = _rational(rhs, lineno)

    if name is None:
        raise ParseError("missing 'algebra NAME' line")
    if dim is None:
        raise ParseError("missing 'dim N' line")

    zero = tuple(Fraction(0) for _ in range(dim))
    fops = {}
    for label, rows in ops.items():
        fops[label] = StructureTensor(
            dim, tuple(tuple(rows[i][j] if rows[i][j] is not None else zero
                             for j in range(dim)) for i in range(dim)))
    fforms = {label: Form(dim, tuple(tuple(row) for row in m))
              for label, m in forms.items()}
    fmaps = {}
    for label, cols in maps.items():
        # column i is the image of e_i
        fmaps[label] = Endo(dim, tuple(
            tuple((cols[j][a] if cols[j] is not None else Fraction(0))
                  for j in range(dim)) for a in range(dim)))
    ftensor2s = {label: tuple(tuple(row) for row in m)
                 for label, m in tensor2s.items()}
    freps = {label: RepTensor(dim, dim, tuple(tuple(tuple(row) for row in mat)
                                              for mat in t))
             for label, t in reps.items()}
    warnings = []
    for label in sorted(fforms):
        m = fforms[label].m
        for i in range(dim):
            for j in range(dim):
                if m[i][j] != 0 and m[j][i] == 0 and i != j:
                    warnings.append(
                        "form %s has entry (%d, %d) but not (%d, %d); skew "
                        "completion is never automatic"
                        % (label, i + 1, j + 1, j + 1, i + 1))
    return AlgebraFile(name, dim, fops, fforms, fmaps, ftensor2s, freps,
                       tuple(warnings))


def _fmt_terms(v):
    parts = ["%s*e%d" % (q, k + 1) for k, q in enumerate(v) if q != 0]
    return " + ".join(parts)


def emit_algebra_file(af):
    """Canonical text: sections in a fixed order, labels sorted, indices
    ascending, zero entries omitted, rationals in lowest terms."""
    lines = ["algebra %s" % af.name, "dim %d" % af.dim]
    n = af.dim
    for label in sorted(af.ops):
        t = af.ops[label]
        for i in range(n):
            for j in range(n):
                body = _fmt_terms(t.c[i][j])
                if body:
                    lines.append("op %s %d %d = %s" % (label, i + 1, j + 1, body))
    for label in sorted(af.forms):
        m = af.forms[label].m
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    lines.append("form %s %d %d = %s" % (label, i + 1, j + 1, m[i][j]))
    for label in sorted(af.maps):
        m = af.maps[label].m
        for i in range(n):
            col = tuple(m[a][i] for a in range(n))
            body = _fmt_terms(col)
            if body:
                lines.append("map %s %d = %s" % (label, i + 1, body))
    for label in sorted(af.tensor2s):
        m = af.tensor2s[label]
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    lines.append("tensor2 %s %d %d = %s"
                                 % (label, i + 1, j + 1, m[i][j]))
    for label in sorted(af.reps):
        t = af.reps[label].t
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[i][j][k]:
                        lines.append("rep %s %d %d %d = %s"
                                     % (label, i + 1, j + 1, k + 1, t[i][j][k]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# object access with zero defaults ("omitted means zero")

def _op(af, label):
    got = af.ops.get(label)
    return got if got is not None else st(af.dim)


def _form(af, label):
    got = af.forms.get(label)
    return got if got is not None else Form(af.dim, mat_zero(af.dim))


def _endo(af, label):
    got = af.maps.get(label)
    return got if got is not None else Endo(af.dim, mat_zero(af.dim))


def _rep(af, label):
    got = af.reps.get(label)
    return got if got is not None else rep_zero(af.dim)


# ---------------------------------------------------------------------------
# verify

def _chk_lie(af):
    return check_jacobi(_op(af, "bracket"))


def _chk_lsa(af):
    return check_left_symmetric(_op(af, "prod"))


def _chk_plsa(af):
    return check_plsa(_op(af, "prec"), _op(af, "succ"))


def _chk_special_symplectic(af):
    return check_special_symplectic(_op(af, "bracket"), _op(af, "conn"),
                                    _form(af, "omega"))


def _chk_hypersymplectic(af):
    return check_hypersymplectic(_op(af, "bracket"), _endo(af, "J"),
                                 _endo(af, "E"), _form(af, "g"))


def _chk_matched_pair(af):
    mp = MatchedPairData(_op(af, "a1"), _op(af, "a2"),
                         _rep(af, "l1"), _rep(af, "r1"),
                         _rep(af, "l2"), _rep(af, "r2"))
    return check_matched_pair(mp)


def _chk_plsba(af):
    prec, succ = _op(af, "prec"), _op(af, "succ")
    cp = CoproductPair(af.dim, _rep(af, "alpha").t, _rep(af, "beta").t)
    pre1 = check_plsa(prec, succ)
    pre2 = plsca_check(cp)
    if not (pre1.verdict and pre2.verdict):
        return merge_reports("plsba", [pre1, pre2])
    return _plsba_identities((prec, succ), cp)


def _chk_slsba(af):
    lsa = _op(af, "prod")
    pre = check_left_symmetric(lsa)
    if not pre.verdict:
        return merge_reports("slsba", [pre])
    return _slsba_identities(lsa, _rep(af, "alpha").t)


def _chk_parakahler(af):
    return check_parakahler(ParaKahlerData(_op(af, "bracket"), _form(af, "omega"),
                                           _endo(af, "E"), af.ops.get("conn")))


def _chk_post_affine(af):
    return post_affine_check(_op(af, "conn"), _op(af, "conn2"), _op(af, "bracket"))


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_file(fh.read())


def cmd_verify(args):
    af = _load(args.file)
    for w in af.warnings:
        print("warning: %s" % w, file=sys.stderr)
    reports = []
    for name in args.check:
        fn = CHECKS.get(name)
        if fn is None:
            raise UnknownCheck("unknown check %r; valid: %s"
                               % (name, ", ".join(sorted(CHECKS))))
        reports.append(fn(af))
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
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise BadParams("bad rational for --%s: %r" % (name, value))


def _parse_r(text, dim):
    if text is None:
        raise BadParams("missing --r (format: i,j,q;i,j,q;...)")
    m = [[Fraction(0)] * dim for _ in range(dim)]
    if text.strip():
        for chunk in text.split(";"):
            bits = chunk.split(",")
            if len(bits) != 3:
                raise BadParams("bad --r chunk %r" % chunk)
            try:
                i, j = int(bits[0]), int(bits[1])
                q = Fraction(bits[2])
            except (ValueError, ZeroDivisionError):
                raise BadParams("bad --r chunk %r" % chunk)
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise BadParams("--r index (%d, %d) out of range 1..%d"
                                % (i, j, dim))
            m[i - 1][j - 1] = q
    return tuple(tuple(row) for row in m)


def _ssla_of(af):
    return SpecialSymplecticData(_op(af, "bracket"), _op(af, "conn"),
                                 _form(af, "omega"))


def _r_sub_adjacent(afs, args):
    br = sub_adjacent(_op(afs[0], "prod"))
    return {"ops": {"bracket": br}}, [check_jacobi(br)]


def _r_lsa_from_symplectic(afs, args):
    prod = lsa_from_symplectic(_op(afs[0], "bracket"), _form(afs[0], "omega"))
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
    k = Fraction(args.k) if args.k is not None else None
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
    br2 = semidirect_lie(_op(afs[0], "bracket"), _rep(afs[0], "rho"))
    return {"ops": {"bracket": br2}}, [check_jacobi(br2)]


def _r_bowtie(afs, args):
    af = afs[0]
    mp = MatchedPairData(_op(af, "a1"), _op(af, "a2"),
                         _rep(af, "l1"), _rep(af, "r1"),
                         _rep(af, "l2"), _rep(af, "r2"))
    prod = bowtie_lsa(mp)
    return {"ops": {"prod": prod}}, [check_left_symmetric(prod)]


def _r_double_extension(afs, args):
    if len(afs) != 2:
        raise BadParams("double-extension needs two input files")
    a = (_op(afs[0], "prec"), _op(afs[0], "succ"))
    b = (_op(afs[1], "prec"), _op(afs[1], "succ"))
    ded, rep = double_extension(a, b)
    return ({"ops": {"bracket": sub_adjacent(ded.glued), "conn": ded.glued},
             "forms": {"omega": ded.omega_p}}, [rep])


def _r_drinfeld_double(afs, args):
    af = afs[0]
    plsa = (_op(af, "prec"), _op(af, "succ"))
    cp = CoproductPair(af.dim, _rep(af, "alpha").t, _rep(af, "beta").t)
    (prec_d, succ_d), r, cp_d, rep = drinfeld_double(plsa, cp)
    d = prec_d.n
    return ({"ops": {"prec": prec_d, "succ": succ_d},
             "reps": {"alpha": RepTensor(d, d, cp_d.alpha),
                      "beta": RepTensor(d, d, cp_d.beta)},
             "tensor2s": {"r": r}}, [rep])


def _r_slsba_double(afs, args):
    af = afs[0]
    lsa_d, alpha_d, rep = slsba_double((_op(af, "prod"), _rep(af, "alpha").t))
    d = lsa_d.n
    return ({"ops": {"prod": lsa_d},
             "reps": {"alpha": RepTensor(d, d, alpha_d)}}, [rep])


def _r_coboundary(afs, args):
    af = afs[0]
    plsa = (_op(af, "prec"), _op(af, "succ"))
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
    for group in ("ops", "forms", "maps", "reps"):
        for obj in payload.get(group, {}).values():
            return obj.n
    for m in payload.get("tensor2s", {}).values():
        return len(m)
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
                         dict(payload.get("ops", {})),
                         dict(payload.get("forms", {})),
                         dict(payload.get("maps", {})),
                         dict(payload.get("tensor2s", {})),
                         dict(payload.get("reps", {})))
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
