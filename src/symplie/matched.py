"""Matched pairs of left-symmetric algebras, and the double product pair and
double extension on A + A*.  Every product on a sum here is glued by
constructions.glue_product, which this module re-exports together with
MatchedPairData and canonical_skew_pairing.

Index conventions for mixed-compat violations: equations 1 and 2 report
(i, j, c) with i, j basis indices of the first algebra and c of the second;
equations 3 and 4 report (a, b, c) with a, b in the second algebra and c in
the first.  Each pair is listed per c, then per (i, j), equation 1 before
equation 2: checks.violations collects each equation, and a stable sort on
(c, i, j) merges the two lists.

The matched-pair route (check_bimodule, _mixed_12) sums products of nonzero
structure constants and action entries in exact int arithmetic
(checks._residual), off the linalg kernel, as the independent cross-check of the
bialgebra verifiers: each tensor's numerators over its one denominator, and
each term of an identity brought over the lcm of the terms' denominator
products by one int factor.
"""

from dataclasses import dataclass
from itertools import product

from .linalg import DimensionMismatch
from .checks import (
    Form,
    StructureTensor,
    _nonzeros,
    _over_lcm,
    _residual,
    check_bimodule,
    check_parallel_form,
    check_plsa,
    check_special_symplectic,
    merge_reports,
    op_add,
    pairs_then,
    relabel,
    rep_neg,
    require,
    require_dims,
    sub_adjacent,
    violations,
)
from .constructions import (
    InvalidInput,
    MatchedPairData,
    canonical_skew_pairing,
    coadjoint,
    dual_left_action,
    dual_right_action,
    glue_product,
)


class NotMatched(ValueError):
    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


@dataclass(frozen=True)
class DoubleExtensionData:
    plsaA: tuple  # (prec, succ) on A
    plsaAstar: tuple  # (prec, succ) on A*
    glued: StructureTensor  # product on A + A*
    omega_p: Form


def check_matched_pair(mp):
    """Bimodule conditions on both sides plus the four mixed compatibility
    identities that make the glued product on the sum left-symmetric."""
    n, m = mp.A1.n, mp.A2.n
    if not (mp.l1.n == mp.r1.n == n and mp.l1.m == mp.r1.m == m
            and mp.l2.n == mp.r2.n == m and mp.l2.m == mp.r2.m == n):
        raise DimensionMismatch("inconsistent action dimensions")
    parts = [relabel(check_bimodule(mp.A1, mp.l1, mp.r1), "bimodule(A1)"),
             relabel(check_bimodule(mp.A2, mp.l2, mp.r2), "bimodule(A2)")]
    # the (den, cols) list of each action, read by both _mixed_12 calls:
    # cols[c][s] = [(k, x) ...], x over den, of each nonzero t[c][k][s],
    # column s of t[c]
    l1, r1, l2, r2 = (_nonzeros([tuple(zip(*mat)) for mat in rep.t])
                      for rep in (mp.l1, mp.r1, mp.l2, mp.r2))
    viol = (_mixed_12(mp.A1, l1, r1, l2, r2, m, "mixed-compat-1", "mixed-compat-2")
            + _mixed_12(mp.A2, l2, r2, l1, r1, n, "mixed-compat-3", "mixed-compat-4"))
    return merge_reports("matched-pair", parts, viol)


def _mixed_12(A, lA, rA, lB, rB, mdim, name1, name2):
    """The two compatibility identities with products taken in A; lA/rA are
    the column lists of A's actions on the other space, lB/rB those of the
    other algebra's actions on A.  Each residual is a signed sum over
    nonzero structure constants and action-matrix entries (checks._residual)."""
    n = A.n
    da, nz = A.nonzeros
    nzcol = list(zip(*nz))  # nzcol[j][s] = nz[s][j]
    (dla, cLA), (dra, cRA), (dlb, cLB), (drb, cRB) = lA, rA, lB, rB
    cLBt, cRBt = list(zip(*cLB)), list(zip(*cRB))  # cRBt[i][d] = cRB[d][i]
    den1, (f, g) = _over_lcm(da * drb, dla * drb)
    out = violations(name1, pairs_then(n, mdim), lambda i, j, c: _residual(
        n, den1, ((nz[i][j], cRB[c], f), (nz[j][i], cRB[c], -f), (cLA[j][c], cRBt[i], -g),
                  (cLA[i][c], cRBt[j], g), (cRB[c][j], nz[i], -f), (cRB[c][i], nz[j], f))))
    den2, (p, q, r, s, t) = _over_lcm(da * dlb, dla * dlb, dra * dlb, da * drb, dra * drb)
    out += violations(name2, product(range(n), range(n), range(mdim)), lambda i, j, c: _residual(
        n, den2, ((nz[i][j], cLB[c], p), (cLA[i][c], cLBt[j], q), (cRA[i][c], cLBt[j], -r),
                  (cLB[c][i], nzcol[j], -p), (cRB[c][i], nzcol[j], s), (cRA[j][c], cRBt[i], -t),
                  (cLB[c][j], nz[i], -p))))
    # per (c, i, j), identity 1 before identity 2 (a stable sort)
    return sorted(out, key=lambda v: (v.indices[2],) + v.indices[:2])


def bowtie_lsa(mp):
    """The product (x+a)(y+b) = (x.y + l2(a)y + r2(b)x) + (a.b + l1(x)b + r1(y)a)
    on the sum, after the matched-pair check passes."""
    rep = check_matched_pair(mp)
    require(rep, lambda msg: NotMatched(msg, rep), "not a matched pair: %s at %s")
    return glue_product(mp)


def dual_actions(plsaA, plsaAstar):
    """The canonical matched-pair candidate of two product pairs in duality:
    each side acts on the other through the dual left actions of its full
    product and of its commutative part."""
    precA, succA = plsaA
    precB, succB = plsaAstar
    dotA = op_add(precA, succA)
    dotB = op_add(precB, succB)
    return MatchedPairData(dotA, dotB,
                           dual_left_action(dotA), dual_left_action(precA),
                           dual_left_action(dotB), dual_left_action(precB))


def double_extension(plsaA, plsaAstar):
    """Glue A and A* through the canonical dual actions; attach the skew
    pairing omega_p and verify it is parallel and the glued data is special
    symplectic."""
    precA, succA = plsaA
    precB, succB = plsaAstar
    require_dims("sides have dimensions %d and %d", precA, precB)
    for name, pair in (("A", plsaA), ("A*", plsaAstar)):
        require(check_plsa(*pair), InvalidInput,
                "side %s is not a product pair: %%s at %%s" % name)
    mp = dual_actions(plsaA, plsaAstar)
    mprep = check_matched_pair(mp)
    require(mprep, lambda msg: NotMatched(msg, mprep), "dual actions do not match: %s at %s")
    glued = glue_product(mp)
    n = precA.n
    omega_p = canonical_skew_pairing(n)
    parts = [relabel(check_parallel_form(glued, omega_p), "omega-p-parallel"),
             relabel(check_special_symplectic(sub_adjacent(glued), glued, omega_p),
                     "special-symplectic")]
    rep = merge_reports("double-extension", parts, ())
    return DoubleExtensionData(plsaA, plsaAstar, glued, omega_p), rep


def build_double_plsa(plsaA, plsaAstar):
    """The product pair on A + A*, each half glued from the summands' halves
    and the mixed products

        x prec a* = a* prec x = (Rd*(a*)x, Rd(x)a*),
        x succ a* = (-Rs*(a*)x, ad(x)a*),    a* succ x = (ad*(a*)x, -Rs(x)a*),

    with Rd, Rs the dual right actions of A's sum product and succ, ad the
    coadjoint action of A's bracket, and the starred ones those of A*."""
    precA, succA = plsaA
    precB, succB = plsaAstar
    require_dims("sides have dimensions %d and %d", precA, precB)
    dotA, dotB = op_add(precA, succA), op_add(precB, succB)
    RdA, RdB = dual_right_action(dotA), dual_right_action(dotB)
    prec = glue_product(MatchedPairData(precA, precB, RdA, RdA, RdB, RdB))
    succ = glue_product(MatchedPairData(
        succA, succB, coadjoint(sub_adjacent(dotA)), rep_neg(dual_right_action(succA)),
        coadjoint(sub_adjacent(dotB)), rep_neg(dual_right_action(succB))))
    return prec, succ
