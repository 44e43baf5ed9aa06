"""Coproduct pairs in duality with product pairs, coboundary coproducts
built from an element r of A tensor A, the operators deciding coproduct
validity (computed two ways and cross-asserted), doubles carrying the
canonical r, and para-Kahler verification.

A public verifier validates its preconditions, raising the typed error
(checks.require), then evaluates its identities.  A chain calls the public
verifiers: check_plsa, check_left_symmetric and plsca_check keep their
report on the objects they verified (checks._once), so each precondition
is evaluated once per object and a repeat is a kept result.  So are a
frozen pair's Scaled tensors (_scaled_pair): trying many r against one pair
verifies and converts it once, and a long-lived pair keeps the objects it
was paired with alive.  A CoproductPair converts its tensors and builds its
dual products once (.scaled, .dual), and the pair coboundary_coproducts
returns starts with the Scaled form it was unscaled from.  Each cross-check
route runs once per object it checks: the dual's check_plsa per coproduct
pair, check_matched_pair per call of plsba_check and slsba_check.

The primary routes (the coproduct operators, the bialgebra, coboundary and
one-coproduct identities, the coboundary coproducts and the closure
conditions of the double's r) contract on the exact integer kernel of linalg
(Scaled), one residual tensor per basis vector e_i, and read the violations
off its nonzero numerators with checks.mat_violations; identities reported
interleaved per tuple are collected one by one and merged by a stable sort
on the tuple.  The obstructions stay Scaled from the contraction to the
collector: r, r^T and u = r - r^T are converted once per call (_r_forms),
the coboundary coproducts of R_operators go straight from their Scaled core
into _coproduct_operators, and the routes that must agree entry for entry
(R_operators' direct and closed forms, slsba_coboundary's r route and the
direct co-left-symmetry) are compared on cross-multiplied numerators
(linalg.scaled_equal).  Only what a public function returns is turned into
Fractions.  The cross-checks (check_plsa on dualized coproducts,
check_matched_pair) sum over nonzero structure constants in exact int
arithmetic (checks._residual), independent of the kernel; _route_agrees
compares the two verdicts.

Coordinate conventions: an element of A tensor A is the matrix r[p][q] of
coefficients of e_p tensor e_q; a coproduct is stored as one such matrix per
basis vector (alpha[i][p][q] is the e_p tensor e_q coefficient of the
coproduct of e_i); rank-3 tensors t[a][b][c] hold coefficients of
e_a tensor e_b tensor e_c.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .linalg import (
    InternalMismatch,
    Scaled,
    mat_zero,
    scaled,
    scaled_combine,
    scaled_equal,
    scaled_leg,
    scaled_permute,
    unscaled,
)
from .checks import (
    Endo,
    StructureTensor,
    _once,
    _seeded,
    check_closed,
    check_flat,
    check_jacobi,
    check_left_symmetric,
    check_nondegenerate,
    check_parallel_form,
    check_plsa,
    check_skew,
    check_torsion_free,
    congruence_violations,
    eigenspace_violations,
    mat_violations,
    merge_reports,
    relabel,
    report,
    require,
    rep_zero,
    square_violations,
    sub_adjacent,
    torsion_violations,
    violations,
)
from .constructions import InvalidInput, NotAnLSA, dual_left_action
from .matched import (
    MatchedPairData,
    build_double_plsa,
    canonical_skew_pairing,
    check_matched_pair,
    dual_actions,
    glue_product,
)


class NotAPLSBA(ValueError):
    pass


class NotAnSLSBA(ValueError):
    pass


@dataclass(frozen=True)
class CoproductPair:
    n: int
    alpha: tuple  # alpha[i][p][q]: e_p tensor e_q coefficient of alpha(e_i)
    beta: tuple

    @cached_property
    def scaled(self):
        """(alpha, beta) as Scaled tensors, converted on first use and shared
        by every route that contracts this pair; never mutated."""
        return scaled(self.alpha), scaled(self.beta)

    @cached_property
    def dual(self):
        """The two dual products (_dual_product), built on first use."""
        return _dual_product(self.n, self.alpha), _dual_product(self.n, self.beta)


@dataclass(frozen=True)
class ParaKahlerData:
    bracket: StructureTensor
    omega: object
    E: Endo
    conn: StructureTensor = None


# ---------------------------------------------------------------------------
# helpers

def zero_coproducts(n):
    z = tuple(mat_zero(n) for _ in range(n))
    return CoproductPair(n, z, z)


def _scaled_pair(plsa):
    """prec, succ, their sum dot and its commutator br, as Scaled tensors,
    built once per pair of objects (checks._once).  For a product X, plane i
    of X permuted by (0, 2, 1) is the matrix Lx_i of left multiplication by
    e_i, and plane j of X permuted by (1, 0, 2) is Rx_j^T, the transposed
    right multiplication by e_j."""
    def compute():
        P, S = (op.scaled for op in plsa)
        D = scaled_combine(((1, P), (1, S)))
        return P, S, D, scaled_combine(((1, D), (-1, scaled_permute(D, (1, 0, 2)))))
    return _once(plsa[0], "scaled-pair", (plsa[1],), compute)


def _r_forms(r):
    """r, r^T, u = r - r^T and u^T = -u as Scaled matrices over one
    denominator, from a single conversion of the Fraction matrix r."""
    R = scaled(r)
    RT = Scaled([list(col) for col in zip(*R.num)], R.den)
    U = Scaled([[a - b for a, b in zip(x, y)] for x, y in zip(R.num, RT.num)], R.den)
    return R, RT, U, Scaled([[-a for a in row] for row in U.num], R.den)


def _two_sided(M, MT, X, Y):
    """Per basis vector e_i: m Lx_i^T + Ly_i m, for a Scaled matrix M = m,
    its transpose MT, and Scaled products X, Y with left multiplications
    Lx_i, Ly_i."""
    return scaled_combine((
        (1, scaled_leg(M, X, 1)),
        (1, scaled_permute(scaled_leg(MT, Y, 1), (0, 2, 1)))))


def _each_violations(where, tensors):
    """mat_violations of the i-th Scaled tensor at the indices (i, ...), in
    the order of i: one residual tensor per basis vector e_i."""
    return [v for i, t in enumerate(tensors) for v in mat_violations(where, t, (i,))]


def _compat_defect(D, S, T, A):
    """Per basis vector e_i, lazily, the tensor over (j, a, b) of

        sum_k D[i][j][k] T_k - Ls_i T_j - T_j Ld_i^T - A_i Rd_j^T

    for Scaled products D, S (left multiplications Ld, Ls; right
    multiplications Rd of D) and Scaled matrix families T, A."""
    LS, LD = scaled_permute(S, (0, 2, 1)), scaled_permute(D, (0, 2, 1))
    Dr = scaled_permute(D, (1, 0, 2))  # Dr[j][p][b] = D[p][j][b]
    return (scaled_combine(((1, scaled_leg(D.plane(i), T, 0)),
                            (-1, scaled_leg(LS.plane(i), T, 1)),
                            (-1, scaled_leg(LD.plane(i), T, 2)),
                            (-1, scaled_leg(A.plane(i), Dr, 1))))
            for i in range(len(D.num)))


# ---------------------------------------------------------------------------
# duality

def _dual_product(n, t):
    """The product on the dual space whose f_k coefficient of f_p f_q is
    t[k][p][q], the (p, q) coefficient of the coproduct of e_k."""
    return StructureTensor(n, tuple(tuple(tuple(t[k][p][q] for k in range(n))
                                          for q in range(n)) for p in range(n)))


def dualize_coproducts(cp):
    """Products on the dual space of the two coproducts (_dual_product), as
    cached on cp."""
    return cp.dual


def _coproduct_operators(al, be):
    """The three obstructions of the Scaled coproducts al, be: one tensor
    over (i, p, q) for co-commutativity of alpha, and one Scaled tensor per
    basis vector for mixed co-compatibility and for co-left-symmetry of
    beta."""
    alT = scaled_permute(al, (0, 2, 1))  # alT[i] = alpha_i transposed
    ab = scaled_combine(((1, al), (1, be)))
    R2 = []
    for i in range(len(al.num)):
        t1 = scaled_leg(be.plane(i), al, 0)  # sum_q B[a][q] al[q][b][c]
        # sum_p A[p][c] ab[p][a][b], and sum_q A[b][q] ab[q][a][c]
        t2 = scaled_permute(scaled_leg(alT.plane(i), ab, 0), (1, 2, 0))
        s = scaled_permute(scaled_leg(al.plane(i), ab, 0), (1, 0, 2))
        R2.append(scaled_combine(((1, t1), (-1, t2), (-1, s))))
    return scaled_combine(((1, al), (-1, alT))), R2, _co_left_symmetry(be)


def plsca_check(cp):
    """Coproduct-pair validity: all three obstruction tensors vanish.

    Per tuple, co-commutativity at (i, p, q) comes before co-compatibility
    and co-left-symmetry at each (i, p, q, s); one stable sort on the
    indices merges the three lists in that order.  The verdict is compared
    against check_plsa on the dualized products, which must agree by
    construction.  Evaluated once per pair object (checks._once)."""
    def compute():
        R1, R2, R3 = _coproduct_operators(*cp.scaled)
        viol = sorted(mat_violations("co-commutativity", R1)
                      + _each_violations("co-compatibility", R2)
                      + _each_violations("co-left-symmetry", R3), key=lambda v: v.indices)
        note = _route_agrees(not viol, check_plsa(*dualize_coproducts(cp)).verdict,
                             "coproduct operators", "dual product-pair route")
        return report("plsca", viol, [note])
    return _once(cp, "plsca", (), compute)


def _route_agrees(mine, theirs, what, route):
    """The note that the independent route's verdict theirs equals mine, the
    verdict of what; InternalMismatch when they differ (an explicit raise,
    so it runs under python -O)."""
    word = "pass" if mine else "fail"
    if mine != theirs:
        raise InternalMismatch("%s (%s) disagree with the %s (%s)"
                               % (what, word, route, "pass" if theirs else "fail"))
    return "%s agrees (%s)" % (route, word)


# ---------------------------------------------------------------------------
# bialgebra compatibility

def plsba_check(plsa, cp):
    """The four compatibility identities tying a product pair to a coproduct
    pair, in matrix form on basis pairs (i, j); InvalidInput unless both
    pairs are valid.  With dot = prec + succ, br its commutator,
    ab = alpha + beta, L and R left and right multiplications, and
    X(v) = sum_k v_k X_k:

        1 (i < j)  alpha(br_ij) = al_j Ld_i^T + Ld_i al_j - al_i Ld_j^T - Ld_j al_i
        2          ab(dot_ij) = Ls_i ab_j + ab_j Ld_i^T + be_i Rd_j^T - Lp_j al_i
        4          the same with Rp_j al_i^T in place of Lp_j al_i
        3          (ab - ab^T)(prec_ij) = -Rp_j ab_i^T + ab_i Rp_j^T
                                          + ab_j Lp_i^T - Lp_i ab_j^T

    The verdict is recomputed as check_matched_pair on the dualized data and
    asserted to agree."""
    require(check_plsa(*plsa), InvalidInput, "product pair invalid: %s at %s")
    require(plsca_check(cp), InvalidInput, "coproduct pair invalid: %s at %s")
    P, S, D, B = _scaled_pair(plsa)
    AL, BE = cp.scaled
    AB = scaled_combine(((1, AL), (1, BE)))
    ALT = scaled_permute(AL, (0, 2, 1))
    LP, LD = scaled_permute(P, (0, 2, 1)), scaled_permute(D, (0, 2, 1))
    Pr = scaled_permute(P, (1, 0, 2))  # Pr[j][p][a] = P[p][j][a]: Pr[j] = Rp_j^T
    viol = []
    for i, common in enumerate(_compat_defect(D, S, AB, BE)):
        b1 = scaled_combine((
            (1, scaled_leg(B.plane(i), AL, 0)), (-1, scaled_leg(LD.plane(i), AL, 2)),
            (-1, scaled_leg(LD.plane(i), AL, 1)), (1, scaled_leg(AL.plane(i), D, 1)),
            (1, scaled_permute(scaled_leg(ALT.plane(i), D, 1), (0, 2, 1)))))
        b2 = scaled_combine(((1, common),
                             (1, scaled_permute(scaled_leg(ALT.plane(i), P, 1), (0, 2, 1)))))
        b4 = scaled_combine(((1, common),
                             (1, scaled_permute(scaled_leg(AL.plane(i), Pr, 1), (0, 2, 1)))))
        # each side of 3 is M - M^T: M = ab(prec_ij) on the left and
        # ab_i Rp_j^T + ab_j Lp_i^T on the right
        Z = scaled_combine(((1, scaled_leg(P.plane(i), AB, 0)),
                            (-1, scaled_leg(AB.plane(i), Pr, 1)),
                            (-1, scaled_leg(LP.plane(i), AB, 2))))
        b3 = scaled_combine(((1, Z), (-1, scaled_permute(Z, (0, 2, 1)))))
        for j in range(cp.n):
            if i < j:
                viol += mat_violations("bialgebra-1", b1.plane(j), (i, j))
            viol += mat_violations("bialgebra-2", b2.plane(j), (i, j))
            viol += mat_violations("bialgebra-4", b4.plane(j), (i, j))
            viol += mat_violations("bialgebra-3", b3.plane(j), (i, j))
    mrep = check_matched_pair(dual_actions(plsa, dualize_coproducts(cp)))
    return report("plsba", viol, [_route_agrees(not viol, mrep.verdict, "tensor identities",
                                                "matched-pair route")])


# ---------------------------------------------------------------------------
# coboundary structures

def coboundary_coproducts(plsa, r):
    """The coproduct pair induced by r: per basis vector e_i,

        alpha_i = r Ldot_i^T + Ldot_i r
        beta_i  = -(r ad_i^T + Lsucc_i r)

    where Ldot, Lsucc, ad are left multiplication by e_i in the sum product,
    the second product, and the commutator bracket.  The pair's cached
    Scaled form is the one it was unscaled from."""
    al, be = _coboundary_scaled(_scaled_pair(plsa), _r_forms(r))
    return _seeded(CoproductPair(plsa[0].n, unscaled(al), unscaled(be)), scaled=(al, be))


def _coboundary_scaled(pair, rf):
    """coboundary_coproducts as Scaled alpha, beta, from the Scaled tensors
    pair of _scaled_pair and rf of _r_forms."""
    (_, S, D, B), (R, RT, _, _) = pair, rf
    return _two_sided(R, RT, D, D), scaled_combine(((-1, _two_sided(R, RT, B, S)),))


def coboundary_conditions(plsa, r):
    """Two closure conditions on the skew part u = r - r^T, for a product
    pair that must be valid (InvalidInput): a quadratic identity in left
    multiplications of the first product per unordered basis pair
    (_coboundary_one), and the right-multiplication condition
    Rp_j (Ld_i u + u Ld_i^T) = 0 per ordered pair."""
    require(check_plsa(*plsa), InvalidInput, "product pair invalid: %s at %s")
    P, _, D, _ = _scaled_pair(plsa)
    _, _, U, UT = _r_forms(r)
    baseT = scaled_permute(_two_sided(U, UT, D, D), (0, 2, 1))
    Q = scaled_permute(P, (1, 2, 0))  # Q[j] = Rp_j
    viol = []
    for i, C1 in enumerate(_coboundary_one(P, UT)):
        C2 = scaled_leg(baseT.plane(i), Q, 2)
        for j in range(plsa[0].n):
            if i <= j:
                viol += mat_violations("coboundary-1", C1.plane(j), (i, j))
            viol += mat_violations("coboundary-2", C2.plane(j), (i, j))
    return report("coboundary-conditions", viol)


def _coboundary_one(P, UT):
    """Per basis vector e_i, lazily, the tensor over (j, a, b) of

        M u + u M^T - Lp_j u Lp_i^T - Lp_i u Lp_j^T,   M = Lp(e_i prec e_j),

    for the Scaled first product P and the Scaled transpose UT of a skew
    matrix u.  With V_k = Lp_k u it is Z - Z^T for Z_j = M u - V_j Lp_i^T,
    as u^T = -u."""
    V = scaled_permute(scaled_leg(UT, P, 1), (0, 2, 1))
    LP = scaled_permute(P, (0, 2, 1))
    for i in range(len(P.num)):
        Z = scaled_combine(((1, scaled_leg(P.plane(i), V, 0)),
                            (-1, scaled_leg(LP.plane(i), V, 2))))
        yield scaled_combine(((1, Z), (-1, scaled_permute(Z, (0, 2, 1)))))


def rr_brackets(plsa, r):
    """The two quadratic tensors in r that drive the closed forms of the
    coproduct obstructions; both vanish for the canonical r of a double.
    Coordinates (dot = sum product, br = its commutator):

        first[u][v][w]  = sum r[u][q] r[v][t] dot[q][t][w]
                        + sum r[u][q] r[s][w] dot[q][s][v]
                        + sum r[p][v] r[s][w] prec[p][s][u]
        second[u][v][w] = sum r[p][v] r[s][w] succ[p][s][u]
                        - sum r[u][q] r[s][w] succ[q][s][v]
                        - sum r[u][q] r[v][t] br[q][t][w]
    """
    return tuple(unscaled(t) for t in _rr_scaled(_scaled_pair(plsa), _r_forms(r)))


def _rr_scaled(pair, rf):
    """rr_brackets on the Scaled tensors pair of _scaled_pair and rf of
    _r_forms."""
    (P, S, D, B), (R, RT, _, _) = pair, rf

    def uqt(c):  # sum r[u][q] r[v][t] c[q][t][w]
        return scaled_leg(R, scaled_leg(R, c, 0), 1)

    def uqs(c):  # sum r[u][q] r[s][w] c[q][s][v]
        return scaled_permute(scaled_leg(RT, scaled_leg(R, c, 0), 1), (0, 2, 1))

    def pvs(c):  # sum r[p][v] r[s][w] c[p][s][u]
        return scaled_permute(scaled_leg(RT, scaled_leg(RT, c, 0), 1), (2, 0, 1))

    return (scaled_combine(((1, uqt(D)), (1, uqs(D)), (1, pvs(P)))),
            scaled_combine(((1, pvs(S)), (-1, uqs(S)), (-1, uqt(B)))))


def R_operators(plsa, r):
    """The three coproduct obstructions of the coboundary pair built from r
    (InvalidInput unless the product pair is valid), evaluated directly and
    again through closed forms in the quadratic tensors of r.  Both routes
    stay on Scaled numerators, which are compared entry for entry
    (scaled_equal; InternalMismatch when they differ), and only the returned
    operators are turned into Fractions: the first as a list of matrices,
    the other two as one tensor per basis vector."""
    require(check_plsa(*plsa), InvalidInput, "product pair invalid: %s at %s")
    pair, rf = _scaled_pair(plsa), _r_forms(r)
    R1, R2, R3 = _coproduct_operators(*_coboundary_scaled(pair, rf))
    C1, C2, C3 = _closed_form_operators(pair, rf)
    for name, direct, closed in (("first", [R1], [C1]), ("second", R2, C2),
                                 ("third", R3, C3)):
        if not all(map(scaled_equal, direct, closed)):
            raise InternalMismatch("%s operator: direct and closed-form routes "
                                   "disagree" % name)
    return list(unscaled(R1)), [unscaled(t) for t in R2], [unscaled(t) for t in R3]


def _closed_form_operators(pair, rf):
    """The obstructions through T1, T2 = rr_brackets; u = r - r^T, and Ld,
    Ls, ad (left) and Rp, Rs (right multiplications) are per basis vector:
        R1_i = base_i = Ld_i u + u Ld_i^T
        R2_i = -(Ls_i, Ld_i, Ld_i on legs 0, 1, 2 of T1) + sum_p Rp_p base_i (x) r[p]
        R3_i = (Ls_i, Ls_i, ad_i on legs 0, 1, 2 of T2) - sum_p Rs_p W_i (x) r[p]
               + sum_p W(e_i succ e_p) (x) r[p] + sum_pq r[p][q] W_p (x) [e_i, e_q]
    with W(x) = ad(x) u + u Ls(x)^T linear in x, W_p = W(e_p); each sum is
    one leg contraction.  pair holds the Scaled tensors of _scaled_pair and
    rf those of _r_forms; the result is Scaled, as _coproduct_operators'."""
    (P, S, D, B), (R, RT, U, UT) = pair, rf
    T1, T2 = _rr_scaled(pair, rf)
    base, W = _two_sided(U, UT, D, D), _two_sided(U, UT, S, B)
    baseT = scaled_permute(base, (0, 2, 1))
    WT = scaled_permute(W, (0, 2, 1))
    Yp = scaled_leg(RT, P, 1)  # Yp[x][c][a] = sum_p r[p][c] prec[x][p][a]
    Ys = scaled_leg(RT, S, 1)
    # K[i][c][k] = sum_p r[p][c] succ[i][p][k] + sum_q r[k][q] br[i][q][c]
    K = scaled_combine(((1, Ys), (1, scaled_permute(scaled_leg(R, B, 1), (0, 2, 1)))))
    LsT, LdT, adT = (scaled_permute(t, (0, 2, 1)) for t in (S, D, B))
    R2, R3 = [], []
    for i in range(len(P.num)):
        Ls, Ld, ad = LsT.plane(i), LdT.plane(i), adT.plane(i)
        R2.append(scaled_combine((
            (-1, scaled_leg(Ls, T1, 0)), (-1, scaled_leg(Ld, T1, 1)),
            (-1, scaled_leg(Ld, T1, 2)),
            (1, scaled_permute(scaled_leg(baseT.plane(i), Yp, 0), (2, 0, 1))))))
        R3.append(scaled_combine((
            (1, scaled_leg(Ls, T2, 0)), (1, scaled_leg(Ls, T2, 1)),
            (1, scaled_leg(ad, T2, 2)),
            (1, scaled_permute(scaled_leg(K.plane(i), W, 0), (1, 2, 0))),
            (-1, scaled_permute(scaled_leg(WT.plane(i), Ys, 0), (2, 0, 1))))))
    return base, R2, R3


# ---------------------------------------------------------------------------
# the double with canonical r

def canonical_r(n):
    """r = sum_i e_i tensor f_i on A + A*, as a 2n by 2n coefficient matrix."""
    d = 2 * n
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        m[i][n + i] = Fraction(1)
    return tuple(tuple(row) for row in m)


def drinfeld_double(plsa, cp):
    """Double of a bialgebra: the product pair on A + A* glued through the
    mixed cross products, carrying the canonical r and its coboundary
    coproducts.

    The report covers: vanishing of both quadratic tensors of r, the three
    closure identities of the canonical r, coproduct validity on the double,
    and the full bialgebra compatibility of the double, whose plsba_check
    validates the double's product pair and coproduct pair (InvalidInput)."""
    try:
        inrep = plsba_check(plsa, cp)
    except InvalidInput as e:
        raise NotAPLSBA(str(e))
    require(inrep, NotAPLSBA, "bialgebra compatibility fails: %s at %s")
    pair_d = build_double_plsa(plsa, dualize_coproducts(cp))
    n2 = pair_d[0].n
    r = canonical_r(n2 // 2)
    cp_d = coboundary_coproducts(pair_d, r)
    pair, rf = _scaled_pair(pair_d), _r_forms(r)
    P, S, D, B = pair
    _, _, U, UT = rf
    T1, T2 = _rr_scaled(pair, rf)  # rr_brackets, read off its numerators
    viol = mat_violations("r-bracket-1", T1) + mat_violations("r-bracket-2", T2)
    # Ld_i u + u Ld_i^T and u Ls_i^T + ad_i u, merged by (i, a, b) in a stable sort
    viol += sorted(mat_violations("double-r-1", _two_sided(U, UT, D, D))
                   + mat_violations("double-r-3", _two_sided(U, UT, S, B)),
                   key=lambda v: v.indices)
    # coboundary-1 of the double; its coboundary-2 half is not part of the report
    for i, C1 in enumerate(_coboundary_one(P, UT)):
        for j in range(i, n2):
            viol += mat_violations("double-r-2", C1.plane(j), (i, j))
    rep = merge_reports("double", [plsca_check(cp_d), plsba_check(pair_d, cp_d)], viol)
    return pair_d, r, cp_d, rep


# ---------------------------------------------------------------------------
# para-Kahler

def check_parakahler(pk):
    """A Lie bracket, a symplectic form, paracomplex E, and their
    compatibility; when a connection is present, also flatness,
    torsion-freeness, parallelism of the form, and symmetry of the covariant
    derivative of E."""
    br, w, E = pk.bracket, pk.omega, pk.E
    n = br.n
    parts = [check_jacobi(br), check_skew(w), check_nondegenerate(w), check_closed(br, w)]
    viol = square_violations("E-squared", E, 1) + torsion_violations("E-torsion", br, E)
    viol += eigenspace_violations(E)
    viol += congruence_violations("compatibility", w, E, -1)
    if pk.conn is not None:
        conn = pk.conn
        parts += [check_flat(br, conn), check_torsion_free(br, conn),
                  check_parallel_form(conn, w)]
        # X[i][j] = conn(e_i, E e_j) - E conn(e_i, e_j)
        N = conn.scaled
        X = scaled_combine(((1, scaled_leg(E.scaled_t, N, 1)),
                            (-1, scaled_leg(E.scaled, N, 2))))
        res = unscaled(scaled_combine(((1, X), (-1, scaled_permute(X, (1, 0, 2))))))
        viol += violations("conn-E-symmetric", combinations(range(n), 2),
                           lambda i, j: res[i][j])
    return merge_reports("para-kahler", parts, viol)


# ---------------------------------------------------------------------------
# the one-coproduct theory over an LSA

def slsba_check(lsa, alpha):
    """A single coproduct alpha over a product that must be left-symmetric
    (NotAnLSA): the action-compatibility identity on all basis pairs plus
    vanishing co-left-symmetry.

    Whenever the dualized product is itself left-symmetric, the verdict of
    the action identity is compared against the matched-pair formulation
    with zero right actions; otherwise a note says the route was skipped."""
    require(check_left_symmetric(lsa), NotAnLSA, "base product is not %s at %s")
    # alpha(e_i e_j) = L_i alpha_j + alpha_j L_i^T + alpha_i R_j^T
    C, AL = lsa.scaled, scaled(alpha)
    viol = _each_violations("coproduct-compat", _compat_defect(C, C, AL, AL))
    cls = _each_violations("co-left-symmetry", _co_left_symmetry(AL))
    if cls:
        note = "matched-pair route skipped: dual product is not left-symmetric"
    else:
        mrep = check_matched_pair(_left_dual_actions(lsa, _dual_product(lsa.n, alpha)))
        note = _route_agrees(not viol, mrep.verdict, "coproduct-compat identities",
                             "matched-pair route")
    return report("slsba", viol + cls, [note])


def _left_dual_actions(lsa, dual):
    """The matched-pair candidate of an LSA and the dual product of its
    coproduct: each acts on the other's space by its dual left action, and
    both right actions are zero."""
    n = lsa.n
    return MatchedPairData(lsa, dual, dual_left_action(lsa), rep_zero(n),
                           dual_left_action(dual), rep_zero(n))


def _co_left_symmetry(al):
    """Per basis vector, a Scaled tensor: D - swap12(D), where D[a][b][c] is
    sum_p A[p][c] alpha[p][a][b] - sum_q A[a][q] alpha[q][b][c], A = alpha_i,
    for the Scaled coproduct al of alpha."""
    alT = scaled_permute(al, (0, 2, 1))
    out = []
    for i in range(len(al.num)):
        D = scaled_combine(((1, scaled_permute(scaled_leg(alT.plane(i), al, 0), (1, 2, 0))),
                            (-1, scaled_leg(al.plane(i), al, 0))))
        out.append(scaled_combine(((1, D), (-1, scaled_permute(D, (1, 0, 2))))))
    return out


def slsba_coboundary(lsa, r):
    """alpha(x) = (id tensor R.(x)) r, over a product that must be
    left-symmetric (NotAnLSA); the report checks the action closure
    condition on all pairs and the vanishing of co-left-symmetry computed
    through the quadratic expression in r, compared on numerators against
    the direct evaluation (InternalMismatch when they differ)."""
    require(check_left_symmetric(lsa), NotAnLSA, "base product is not %s at %s")
    n = lsa.n
    C = lsa.scaled
    R, RT, _, _ = _r_forms(r)
    Cr = scaled_permute(C, (1, 0, 2))  # Cr[j] = R_j^T, R_j right multiplication by e_j
    AL = scaled_leg(R, Cr, 1)  # alpha_i = r R_i^T
    base = _two_sided(R, RT, C, C)  # L_i r + r L_i^T
    # base_i R_j^T over j, per basis vector e_i
    viol = _each_violations("action-condition",
                            (scaled_leg(base.plane(i), Cr, 1) for i in range(n)))
    # m3[a][b][s] = sum r[a][q] r[t][s] lsa[q][t][b] - (a <-> b)
    #             + sum r[a][q] r[b][t] br[q][t][s]
    Z = scaled_leg(RT, scaled_leg(R, C, 0), 1)
    br = scaled_combine(((1, C), (-1, Cr)))
    m3 = scaled_combine(((1, scaled_permute(Z, (0, 2, 1))), (-1, scaled_permute(Z, (2, 0, 1))),
                         (1, scaled_leg(R, scaled_leg(R, br, 1), 0))))
    Rd = scaled_permute(C, (1, 2, 0))  # Rd[i] = R_i
    tq = [scaled_leg(Rd.plane(i), m3, 2) for i in range(n)]
    viol += _each_violations("co-left-symmetry", tq)
    if not all(map(scaled_equal, tq, _co_left_symmetry(AL))):
        raise InternalMismatch("co-left-symmetry via r disagrees with the "
                               "direct evaluation")
    return unscaled(AL), report("slsba-coboundary", viol,
                                ["direct co-left-symmetry route agrees"])


def slsba_double(slsba):
    """Double over an LSA bialgebra: the product on A + A* built from the
    two dual left actions, the canonical r coboundary coproduct, a full
    re-check, and the para-Kahler package (canonical skew pairing, the
    block reflection E, the glued product as connection)."""
    lsa, alpha = slsba
    require(slsba_check(lsa, alpha), NotAnSLSBA, "%s fails at %s")
    n = lsa.n
    d = 2 * n
    lsa_d = glue_product(_left_dual_actions(lsa, _dual_product(n, alpha)))
    r = canonical_r(n)
    alpha_d, cobrep = slsba_coboundary(lsa_d, r)  # verifies lsa_d is an LSA
    fullrep = slsba_check(lsa_d, alpha_d)
    em = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        em[i][i] = Fraction(1)
        em[n + i][n + i] = Fraction(-1)
    E = Endo(d, tuple(tuple(row) for row in em))
    pk = ParaKahlerData(sub_adjacent(lsa_d), canonical_skew_pairing(n), E, lsa_d)
    pkrep = check_parakahler(pk)
    rep = merge_reports("slsba-double",
                        [relabel(cobrep, "coboundary"),
                         relabel(fullrep, "double-check"),
                         relabel(pkrep, "para-kahler")])
    return lsa_d, alpha_d, rep
