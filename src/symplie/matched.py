"""Matched pairs of left-symmetric algebras, and the double product pair and
double extension on A + A*.  Every product on a sum here is glued by
constructions.glue_product, which this module re-exports together with
MatchedPairData and canonical_skew_pairing.

Index conventions for mixed-compat violations: equations 1 and 2 report
(i, j, c) with i, j basis indices of the first algebra and c of the second;
equations 3 and 4 report (a, b, c) with a, b in the second algebra and c in
the first.  Each pair is listed per c, then per (i, j), equation 1 before
equation 2: one checks._scatter evaluates both, and its violations, in the
order of (i, j, c) and then the equation, are sorted stably by c.

The matched-pair route (check_bimodule, _mixed_12) is the independent
cross-check of the bialgebra verifiers: sparse identities declared as
signed terms over the structure constants and action entries and
evaluated by checks._scatter, off the linalg kernel.
"""

from dataclasses import dataclass

from .linalg import DimensionMismatch
from .checks import (
    Form,
    StructureTensor,
    _sparse_violations,
    check_bimodule,
    check_parallel_form,
    check_plsa,
    check_special_symplectic,
    merge_reports,
    op_add,
    relabel,
    rep_neg,
    require,
    require_dims,
    sub_adjacent,
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
    viol = (_mixed_12(mp.A1, mp.l1, mp.r1, mp.l2, mp.r2, m, "mixed-compat-1", "mixed-compat-2")
            + _mixed_12(mp.A2, mp.l2, mp.r2, mp.l1, mp.r1, n, "mixed-compat-3",
                        "mixed-compat-4"))
    return merge_reports("matched-pair", parts, viol)


def _mixed_12(A, lA, rA, lB, rB, mdim, name1, name2):
    """The two compatibility identities with products taken in A, on the
    tuples (i, j, c) (i < j for the first): lA/rA are A's actions on the
    other space, of dimension mdim, and lB/rB the other algebra's actions on
    A.  Declared as signed terms and evaluated by checks._scatter, whose
    violations come per (i, j, c), identity 1 before identity 2, and are
    then sorted stably by c."""
    return sorted(_sparse_violations("ijc", dict(i=A.n, j=A.n, c=mdim, t=A.n), [
        (name1, "ij", ((1, A, "ijs", rB, "cts"), (-1, A, "jis", rB, "cts"),
                       (-1, lA, "jsc", rB, "sti"), (1, lA, "isc", rB, "stj"),
                       (-1, rB, "csj", A, "ist"), (1, rB, "csi", A, "jst"))),
        (name2, "", ((1, A, "ijs", lB, "cts"), (1, lA, "isc", lB, "stj"),
                     (-1, rA, "isc", lB, "stj"), (-1, lB, "csi", A, "sjt"),
                     (1, rB, "csi", A, "sjt"), (-1, rA, "jsc", rB, "sti"),
                     (-1, lB, "csj", A, "ist")))]), key=lambda v: v.indices[2])


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
