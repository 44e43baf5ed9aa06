"""Matched pairs of left-symmetric algebras, the glued product on the sum,
and double extensions pairing an algebra with its dual.

Index conventions for mixed-compat violations: equations 1 and 2 report
(i, j, c) with i, j basis indices of the first algebra and c of the second;
equations 3 and 4 report (a, b, c) with a, b in the second algebra and c in
the first.

The matched-pair route (check_bimodule, _mixed_12) sums products of nonzero
structure constants and action entries in plain Fraction, off linalg.Scaled,
as the independent cross-check of the bialgebra verifiers.
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import DimensionMismatch, t3
from .checks import (
    Form,
    RepTensor,
    StructureTensor,
    Violation,
    _nonzeros,
    _residual,
    check_bimodule,
    check_parallel_form,
    check_plsa,
    check_special_symplectic,
    merge_reports,
    op_add,
    relabel,
    require,
    sub_adjacent,
)
from .constructions import InvalidInput, coadjoint, dual_left_action, dual_right_action


class NotMatched(ValueError):
    def __init__(self, msg, report=None):
        super().__init__(msg)
        self.report = report


@dataclass(frozen=True)
class MatchedPairData:
    A1: StructureTensor
    A2: StructureTensor
    l1: RepTensor  # A1 acting on A2's space
    r1: RepTensor
    l2: RepTensor  # A2 acting on A1's space
    r2: RepTensor


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
            + _mixed_12(mp.A2, mp.l2, mp.r2, mp.l1, mp.r1, n, "mixed-compat-3", "mixed-compat-4"))
    return merge_reports("matched-pair", parts, viol)


def _mixed_12(A, lA, rA, lB, rB, mdim, name1, name2):
    """The two compatibility identities with products taken in A; lA/rA are
    A's actions on the other space, lB/rB the other algebra's actions on A.
    Each residual is a signed sum over nonzero structure constants and
    action-matrix entries (checks._residual)."""
    n = A.n
    nz = _nonzeros(A.c)
    nzcol = list(zip(*nz))  # nzcol[j][s] = nz[s][j]
    # cols[c][s] = [(k, t[c][k][s]) ...], the nonzero column s of t[c]
    cLA, cRA, cLB, cRB = (_nonzeros([tuple(zip(*mat)) for mat in rep.t])
                          for rep in (lA, rA, lB, rB))
    cLBt, cRBt = list(zip(*cLB)), list(zip(*cRB))  # cRBt[i][d] = cRB[d][i]
    out = []
    for c in range(mdim):
        for i in range(n):
            for j in range(n):
                if i < j:
                    res = _residual(n, ((nz[i][j], cRB[c], 1), (nz[j][i], cRB[c], -1),
                                        (cLA[j][c], cRBt[i], -1), (cLA[i][c], cRBt[j], 1),
                                        (cRB[c][j], nz[i], -1), (cRB[c][i], nz[j], 1)))
                    if any(res):
                        out.append(Violation(name1, (i, j, c), res))
                res = _residual(n, ((nz[i][j], cLB[c], 1), (cLA[i][c], cLBt[j], 1),
                                    (cRA[i][c], cLBt[j], -1), (cLB[c][i], nzcol[j], -1),
                                    (cRB[c][i], nzcol[j], 1), (cRA[j][c], cRBt[i], -1),
                                    (cLB[c][j], nz[i], -1)))
                if any(res):
                    out.append(Violation(name2, (i, j, c), res))
    return out


def bowtie_lsa(mp):
    """The product (x+a)(y+b) = (x.y + l2(a)y + r2(b)x) + (a.b + l1(x)b + r1(y)a)
    on the sum, after the matched-pair check passes."""
    rep = check_matched_pair(mp)
    if not rep.verdict:
        v = rep.violations[0]
        raise NotMatched("not a matched pair: %s at %s" % (v.where, v.indices), rep)
    return glue_product(mp)


def glue_product(mp):
    """The bowtie product tensor without the precondition check."""
    n, m = mp.A1.n, mp.A2.n
    d = n + m
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            c[i][j][:n] = mp.A1.c[i][j]
    for a in range(m):
        for b in range(m):
            c[n + a][n + b][n:] = mp.A2.c[a][b]
    for i in range(n):
        for b in range(m):
            for k in range(n):
                c[i][n + b][k] = mp.r2.t[b][k][i]
            for k in range(m):
                c[i][n + b][n + k] = mp.l1.t[i][k][b]
    for a in range(m):
        for j in range(n):
            for k in range(n):
                c[n + a][j][k] = mp.l2.t[a][k][j]
            for k in range(m):
                c[n + a][j][n + k] = mp.r1.t[j][k][a]
    return StructureTensor(d, t3(c))


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
    if precA.n != precB.n:
        raise DimensionMismatch("sides have dimensions %d and %d" % (precA.n, precB.n))
    for name, pair in (("A", plsaA), ("A*", plsaAstar)):
        require(check_plsa(*pair), InvalidInput,
                "side %s is not a product pair: %%s at %%s" % name)
    mp = dual_actions(plsaA, plsaAstar)
    mprep = check_matched_pair(mp)
    if not mprep.verdict:
        v = mprep.violations[0]
        raise NotMatched("dual actions do not match: %s at %s" % (v.where, v.indices),
                         mprep)
    glued = glue_product(mp)
    n = precA.n
    omega_p = canonical_skew_pairing(n)
    parts = [relabel(check_parallel_form(glued, omega_p), "omega-p-parallel"),
             relabel(check_special_symplectic(sub_adjacent(glued), glued, omega_p),
                     "special-symplectic")]
    rep = merge_reports("double-extension", parts, ())
    return DoubleExtensionData(plsaA, plsaAstar, glued, omega_p), rep


def canonical_skew_pairing(n):
    """omega_p on A + A*: -<x,b*> + <a*,y> in block form [[0,-I],[I,0]]."""
    d = 2 * n
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        m[i][n + i] = Fraction(-1)
        m[n + i][i] = Fraction(1)
    return Form(d, tuple(tuple(row) for row in m))


def mixed_products(plsaA, plsaAstar):
    """The four cross products between A and A* as block tensors on the sum:

        x prec a*  =  (dual right action of A*'s product on x,
                       dual right action of A's product on a*)
        x succ a*  =  (minus dual right action of A*'s succ on x,
                       coadjoint action of A's bracket on a*)

    and mirrored for a* prec x (identical, the mixed prec is symmetric) and
    a* succ x.  Returned in the order (x prec a*, a* prec x, x succ a*,
    a* succ x).
    """
    precA, succA = plsaA
    precB, succB = plsaAstar
    n = precA.n
    if precB.n != n:
        raise DimensionMismatch("sides have dimensions %d and %d" % (n, precB.n))
    dotA = op_add(precA, succA)
    dotB = op_add(precB, succB)
    RdotA = dual_right_action(dotA)
    RdotB = dual_right_action(dotB)
    RsuccA = dual_right_action(succA)
    RsuccB = dual_right_action(succB)
    adA = coadjoint(sub_adjacent(dotA))
    adB = coadjoint(sub_adjacent(dotB))
    d = 2 * n

    def cross(first_from_A, apart, bpart):
        c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
        for i in range(n):
            for a in range(n):
                av, bv = apart(i, a), bpart(i, a)
                row, col = (i, n + a) if first_from_A else (n + a, i)
                for k in range(n):
                    c[row][col][k] = av[k]
                    c[row][col][n + k] = bv[k]
        return StructureTensor(d, t3(c))

    def col(mat_, j):
        return tuple(mat_[k][j] for k in range(n))

    x_prec_a = cross(True,
                     lambda i, a: col(RdotB.t[a], i),
                     lambda i, a: col(RdotA.t[i], a))
    a_prec_x = cross(False,
                     lambda i, a: col(RdotB.t[a], i),
                     lambda i, a: col(RdotA.t[i], a))
    x_succ_a = cross(True,
                     lambda i, a: tuple(-q for q in col(RsuccB.t[a], i)),
                     lambda i, a: col(adA.t[i], a))
    a_succ_x = cross(False,
                     lambda i, a: col(adB.t[a], i),
                     lambda i, a: tuple(-q for q in col(RsuccA.t[i], a)))
    return x_prec_a, a_prec_x, x_succ_a, a_succ_x


def build_double_plsa(plsaA, plsaAstar):
    """The product pair on A + A* built from the two summand pairs and the
    mixed cross products."""
    precA, succA = plsaA
    precB, succB = plsaAstar
    n = precA.n
    x_prec_a, a_prec_x, x_succ_a, a_succ_x = mixed_products(plsaA, plsaAstar)
    d = 2 * n
    prec_c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    succ_c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prec_c[i][j][k] = precA.c[i][j][k]
                succ_c[i][j][k] = succA.c[i][j][k]
                prec_c[n + i][n + j][n + k] = precB.c[i][j][k]
                succ_c[n + i][n + j][n + k] = succB.c[i][j][k]
    for i in range(n):
        for a in range(n):
            for k in range(d):
                prec_c[i][n + a][k] = x_prec_a.c[i][n + a][k]
                prec_c[n + a][i][k] = a_prec_x.c[n + a][i][k]
                succ_c[i][n + a][k] = x_succ_a.c[i][n + a][k]
                succ_c[n + a][i][k] = a_succ_x.c[n + a][i][k]
    return StructureTensor(d, t3(prec_c)), StructureTensor(d, t3(succ_c))
