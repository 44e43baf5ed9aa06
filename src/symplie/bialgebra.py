"""Coproduct pairs in duality with product pairs, coboundary coproducts
built from an element r of A tensor A, the operators deciding coproduct
validity (computed two ways and cross-asserted), doubles carrying the
canonical r, and para-Kahler verification.

A public verifier validates its preconditions and raises the typed error
(checks.require); its private _..._identities core evaluates the identities
on input it trusts, so a chain that has already validated its data calls the
core and each precondition is verified once.  Every cross-check route
always runs.

The primary routes (the coproduct operators, the bialgebra, coboundary and
one-coproduct identities, the coboundary coproducts and the closure
conditions of the double's r) contract on the exact integer kernel of linalg
(Scaled), one residual tensor per basis vector e_i, and read the violations
off its nonzero numerators.  Their cross-checks (check_plsa on dualized
coproducts, check_matched_pair) sum over nonzero structure constants in
plain Fraction, independent of the kernel.

Coordinate conventions: an element of A tensor A is the matrix r[p][q] of
coefficients of e_p tensor e_q; a coproduct is stored as one such matrix per
basis vector (alpha[i][p][q] is the e_p tensor e_q coefficient of the
coproduct of e_i); rank-3 tensors t[a][b][c] hold coefficients of
e_a tensor e_b tensor e_c.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import (
    InternalMismatch,
    mat_sub,
    mat_transpose,
    mat_zero,
    scaled,
    scaled_combine,
    scaled_leg,
    scaled_permute,
    t3_is_zero,
    unscaled,
)
from .checks import (
    Endo,
    StructureTensor,
    Violation,
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
    """prec, succ, their sum dot and its commutator br, as Scaled tensors.
    For a product X, plane i of X permuted by (0, 2, 1) is the matrix Lx_i of
    left multiplication by e_i, and plane j of X permuted by (1, 0, 2) is
    Rx_j^T, the transposed right multiplication by e_j."""
    P, S = (scaled(op.c) for op in plsa)
    D = scaled_combine(((1, P), (1, S)))
    return P, S, D, scaled_combine(((1, D), (-1, scaled_permute(D, (1, 0, 2)))))


def _two_sided(m, X, Y):
    """Per basis vector e_i: m Lx_i^T + Ly_i m, for a Fraction matrix m and
    Scaled products X, Y with left multiplications Lx_i, Ly_i."""
    return scaled_combine((
        (1, scaled_leg(scaled(m), X, 1)),
        (1, scaled_permute(scaled_leg(scaled(mat_transpose(m)), Y, 1), (0, 2, 1)))))


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
    """Products on the dual space of the two coproducts (_dual_product)."""
    return _dual_product(cp.n, cp.alpha), _dual_product(cp.n, cp.beta)


def _coproduct_operators(cp):
    """The three obstruction tensors per basis vector: co-commutativity of
    alpha, mixed co-compatibility, and co-left-symmetry of beta."""
    al, be = scaled(cp.alpha), scaled(cp.beta)
    alT = scaled_permute(al, (0, 2, 1))  # alT[i] = alpha_i transposed
    ab = scaled_combine(((1, al), (1, be)))
    R2 = []
    for i in range(cp.n):
        t1 = scaled_leg(be.plane(i), al, 0)  # sum_q B[a][q] al[q][b][c]
        # sum_p A[p][c] ab[p][a][b], and sum_q A[b][q] ab[q][a][c]
        t2 = scaled_permute(scaled_leg(alT.plane(i), ab, 0), (1, 2, 0))
        s = scaled_permute(scaled_leg(al.plane(i), ab, 0), (1, 0, 2))
        R2.append(unscaled(scaled_combine(((1, t1), (-1, t2), (-1, s)))))
    R1 = unscaled(scaled_combine(((1, al), (-1, alT))))
    return list(R1), R2, _co_left_symmetry(cp.beta)


def plsca_check(cp):
    """Coproduct-pair validity: all three obstruction tensors vanish.

    The verdict is compared against check_plsa on the dualized products,
    which must agree by construction."""
    R1, R2, R3 = _coproduct_operators(cp)
    n = cp.n
    viol = []
    for i in range(n):
        for p in range(n):
            for q in range(n):
                if R1[i][p][q]:
                    viol.append(Violation("co-commutativity", (i, p, q), R1[i][p][q]))
                for s in range(n):
                    if R2[i][p][q][s]:
                        viol.append(Violation("co-compatibility", (i, p, q, s),
                                              R2[i][p][q][s]))
                    if R3[i][p][q][s]:
                        viol.append(Violation("co-left-symmetry", (i, p, q, s),
                                              R3[i][p][q][s]))
    dual = check_plsa(*dualize_coproducts(cp))
    mine = not viol
    if dual.verdict != mine:
        raise InternalMismatch("coproduct operators (%s) disagree with the dual "
                               "product route (%s)"
                               % ("pass" if mine else "fail",
                                  "pass" if dual.verdict else "fail"))
    return report("plsca", viol, ["dual product-pair route agrees (%s)"
                                  % ("pass" if mine else "fail")])


# ---------------------------------------------------------------------------
# bialgebra compatibility

def plsba_check(plsa, cp):
    """Bialgebra compatibility of a product pair and a coproduct pair: raises
    InvalidInput unless both pairs are valid, then _plsba_identities."""
    require(check_plsa(*plsa), InvalidInput, "product pair invalid: %s at %s")
    require(plsca_check(cp), InvalidInput, "coproduct pair invalid: %s at %s")
    return _plsba_identities(plsa, cp)


def _plsba_identities(plsa, cp):
    """The four compatibility identities tying a product pair to a coproduct
    pair, in matrix form on basis pairs (i, j); both pairs are trusted to be
    valid.  With dot = prec + succ, br its commutator, ab = alpha + beta,
    L and R left and right multiplications, and X(v) = sum_k v_k X_k:

        1 (i < j)  alpha(br_ij) = al_j Ld_i^T + Ld_i al_j - al_i Ld_j^T - Ld_j al_i
        2          ab(dot_ij) = Ls_i ab_j + ab_j Ld_i^T + be_i Rd_j^T - Lp_j al_i
        4          the same with Rp_j al_i^T in place of Lp_j al_i
        3          (ab - ab^T)(prec_ij) = -Rp_j ab_i^T + ab_i Rp_j^T
                                          + ab_j Lp_i^T - Lp_i ab_j^T

    The verdict is recomputed as check_matched_pair on the dualized data and
    asserted to agree."""
    P, S, D, B = _scaled_pair(plsa)
    AL, BE = scaled(cp.alpha), scaled(cp.beta)
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
    mine = not viol
    if mrep.verdict != mine:
        raise InternalMismatch("tensor identities (%s) disagree with the "
                               "matched-pair route (%s)"
                               % ("pass" if mine else "fail",
                                  "pass" if mrep.verdict else "fail"))
    return report("plsba", viol, ["matched-pair route agrees (%s)"
                                  % ("pass" if mine else "fail")])


# ---------------------------------------------------------------------------
# coboundary structures

def coboundary_coproducts(plsa, r):
    """The coproduct pair induced by r: per basis vector e_i,

        alpha_i = r Ldot_i^T + Ldot_i r
        beta_i  = -(r ad_i^T + Lsucc_i r)

    where Ldot, Lsucc, ad are left multiplication by e_i in the sum product,
    the second product, and the commutator bracket."""
    _, S, D, B = _scaled_pair(plsa)
    return CoproductPair(plsa[0].n, unscaled(_two_sided(r, D, D)),
                         unscaled(scaled_combine(((-1, _two_sided(r, B, S)),))))


def coboundary_conditions(plsa, r):
    """Raises InvalidInput unless the product pair is valid, then
    _coboundary_identities."""
    require(check_plsa(*plsa), InvalidInput, "product pair invalid: %s at %s")
    return _coboundary_identities(plsa, r)


def _coboundary_identities(plsa, r):
    """Two closure conditions on the skew part u = r - r^T, for a product
    pair trusted to be valid: a quadratic identity in left multiplications
    of the first product per unordered basis pair (_coboundary_one), and
    the right-multiplication condition Rp_j (Ld_i u + u Ld_i^T) = 0 per
    ordered pair."""
    P, _, D, _ = _scaled_pair(plsa)
    u = mat_sub(r, mat_transpose(r))
    baseT = scaled_permute(_two_sided(u, D, D), (0, 2, 1))
    Q = scaled_permute(P, (1, 2, 0))  # Q[j] = Rp_j
    viol = []
    for i, C1 in enumerate(_coboundary_one(P, u)):
        C2 = scaled_leg(baseT.plane(i), Q, 2)
        for j in range(plsa[0].n):
            if i <= j:
                viol += mat_violations("coboundary-1", C1.plane(j), (i, j))
            viol += mat_violations("coboundary-2", C2.plane(j), (i, j))
    return report("coboundary-conditions", viol)


def _coboundary_one(P, u):
    """Per basis vector e_i, lazily, the tensor over (j, a, b) of

        M u + u M^T - Lp_j u Lp_i^T - Lp_i u Lp_j^T,   M = Lp(e_i prec e_j),

    for the Scaled first product P and a skew Fraction matrix u.  With
    V_k = Lp_k u it is Z - Z^T for Z_j = M u - V_j Lp_i^T, as u^T = -u."""
    V = scaled_permute(scaled_leg(scaled(mat_transpose(u)), P, 1), (0, 2, 1))
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
    return tuple(unscaled(t) for t in _rr_scaled(*_scaled_pair(plsa), r))


def _rr_scaled(P, S, D, B, r):
    """rr_brackets on the Scaled tensors of _scaled_pair."""
    R, RT = scaled(r), scaled(mat_transpose(r))

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
    again through closed forms in the quadratic tensors of r; the two routes
    are asserted to agree entry for entry."""
    require(check_plsa(*plsa), InvalidInput, "product pair invalid: %s at %s")
    R1, R2, R3 = _coproduct_operators(coboundary_coproducts(plsa, r))
    C1, C2, C3 = _closed_form_operators(plsa, r)
    for name, direct, closed in (("first", R1, C1), ("second", R2, C2),
                                 ("third", R3, C3)):
        if tuple(direct) != tuple(closed):
            raise InternalMismatch("%s operator: direct and closed-form routes "
                                   "disagree" % name)
    return R1, R2, R3


def _closed_form_operators(plsa, r):
    """The obstructions through T1, T2 = rr_brackets; u = r - r^T, and Ld,
    Ls, ad (left) and Rp, Rs (right multiplications) are per basis vector:
        R1_i = base_i = Ld_i u + u Ld_i^T
        R2_i = -(Ls_i, Ld_i, Ld_i on legs 0, 1, 2 of T1) + sum_p Rp_p base_i (x) r[p]
        R3_i = (Ls_i, Ls_i, ad_i on legs 0, 1, 2 of T2) - sum_p Rs_p W_i (x) r[p]
               + sum_p W(e_i succ e_p) (x) r[p] + sum_pq r[p][q] W_p (x) [e_i, e_q]
    with W(x) = ad(x) u + u Ls(x)^T linear in x, W_p = W(e_p); each sum is
    one leg contraction."""
    P, S, D, B = _scaled_pair(plsa)
    R, RT = scaled(r), scaled(mat_transpose(r))
    T1, T2 = _rr_scaled(P, S, D, B, r)
    u = mat_sub(r, mat_transpose(r))
    base, W = _two_sided(u, D, D), _two_sided(u, S, B)
    baseT = scaled_permute(base, (0, 2, 1))
    WT = scaled_permute(W, (0, 2, 1))
    Yp = scaled_leg(RT, P, 1)  # Yp[x][c][a] = sum_p r[p][c] prec[x][p][a]
    Ys = scaled_leg(RT, S, 1)
    # K[i][c][k] = sum_p r[p][c] succ[i][p][k] + sum_q r[k][q] br[i][q][c]
    K = scaled_combine(((1, Ys), (1, scaled_permute(scaled_leg(R, B, 1), (0, 2, 1)))))
    LsT, LdT, adT = (scaled_permute(t, (0, 2, 1)) for t in (S, D, B))
    R2, R3 = [], []
    for i in range(plsa[0].n):
        Ls, Ld, ad = LsT.plane(i), LdT.plane(i), adT.plane(i)
        R2.append(unscaled(scaled_combine((
            (-1, scaled_leg(Ls, T1, 0)), (-1, scaled_leg(Ld, T1, 1)),
            (-1, scaled_leg(Ld, T1, 2)),
            (1, scaled_permute(scaled_leg(baseT.plane(i), Yp, 0), (2, 0, 1)))))))
        R3.append(unscaled(scaled_combine((
            (1, scaled_leg(Ls, T2, 0)), (1, scaled_leg(Ls, T2, 1)),
            (1, scaled_leg(ad, T2, 2)),
            (1, scaled_permute(scaled_leg(K.plane(i), W, 0), (1, 2, 0))),
            (-1, scaled_permute(scaled_leg(WT.plane(i), Ys, 0), (2, 0, 1)))))))
    return list(unscaled(base)), R2, R3


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
    and the full bialgebra compatibility of the double.  The double's product
    pair and coproduct pair are each validated once (InvalidInput)."""
    try:
        inrep = plsba_check(plsa, cp)
    except InvalidInput as e:
        raise NotAPLSBA(str(e))
    require(inrep, NotAPLSBA, "bialgebra compatibility fails: %s at %s")
    pair_d = build_double_plsa(plsa, dualize_coproducts(cp))
    require(check_plsa(*pair_d), InvalidInput, "product pair invalid: %s at %s")
    n2 = pair_d[0].n
    r = canonical_r(n2 // 2)
    cp_d = coboundary_coproducts(pair_d, r)
    T1, T2 = rr_brackets(pair_d, r)
    viol = mat_violations("r-bracket-1", T1) + mat_violations("r-bracket-2", T2)
    P, S, D, B = _scaled_pair(pair_d)
    u = mat_sub(r, mat_transpose(r))
    # Ld_i u + u Ld_i^T and u Ls_i^T + ad_i u, interleaved entry by entry
    m1, m3 = _two_sided(u, D, D), _two_sided(u, S, B)
    for i in range(n2):
        for a in range(n2):
            for b in range(n2):
                for where, m in (("double-r-1", m1), ("double-r-3", m3)):
                    x = m.num[i][a][b]
                    if x:
                        viol.append(Violation(where, (i, a, b), Fraction(x, m.den)))
    # coboundary-1 of the double; its coboundary-2 half is not part of the report
    for i, C1 in enumerate(_coboundary_one(P, u)):
        for j in range(i, n2):
            viol += mat_violations("double-r-2", C1.plane(j), (i, j))
    crep = require(plsca_check(cp_d), InvalidInput, "coproduct pair invalid: %s at %s")
    rep = merge_reports("double", [crep, _plsba_identities(pair_d, cp_d)], viol)
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
        N = scaled(conn.c)
        X = scaled_combine(((1, scaled_leg(scaled(mat_transpose(E.m)), N, 1)),
                            (-1, scaled_leg(scaled(E.m), N, 2))))
        res = unscaled(scaled_combine(((1, X), (-1, scaled_permute(X, (1, 0, 2))))))
        viol += violations("conn-E-symmetric", combinations(range(n), 2),
                           lambda i, j: res[i][j])
    return merge_reports("para-kahler", parts, viol)


# ---------------------------------------------------------------------------
# the one-coproduct theory over an LSA

def slsba_check(lsa, alpha):
    """A single coproduct alpha over a product: raises NotAnLSA unless the
    product is left-symmetric, then _slsba_identities."""
    require(check_left_symmetric(lsa), NotAnLSA, "base product is not %s at %s")
    return _slsba_identities(lsa, alpha)


def _slsba_identities(lsa, alpha):
    """A single coproduct alpha over an LSA trusted to be one: the
    action-compatibility identity on all basis pairs plus vanishing
    co-left-symmetry.

    Whenever the dualized product is itself left-symmetric, the verdict of
    the action identity is compared against the matched-pair formulation
    with zero right actions; otherwise a note says the route was skipped."""
    n = lsa.n
    viol = []
    # alpha(e_i e_j) = L_i alpha_j + alpha_j L_i^T + alpha_i R_j^T
    C, AL = scaled(lsa.c), scaled(alpha)
    for i, defect in enumerate(_compat_defect(C, C, AL, AL)):
        for j in range(n):
            viol += mat_violations("coproduct-compat", defect.plane(j), (i, j))
    tops = _co_left_symmetry(alpha)
    viol += mat_violations("co-left-symmetry", tops)
    if all(t3_is_zero(t) for t in tops):
        mrep = check_matched_pair(_left_dual_actions(lsa, _dual_product(n, alpha)))
        compat_ok = not any(v.where == "coproduct-compat" for v in viol)
        if mrep.verdict != compat_ok:
            raise InternalMismatch("coproduct identity (%s) disagrees with the "
                                   "matched-pair route (%s)"
                                   % ("pass" if compat_ok else "fail",
                                      "pass" if mrep.verdict else "fail"))
        note = "matched-pair route agrees (%s)" % ("pass" if compat_ok else "fail")
    else:
        note = "matched-pair route skipped: dual product is not left-symmetric"
    return report("slsba", viol, [note])


def _left_dual_actions(lsa, dual):
    """The matched-pair candidate of an LSA and the dual product of its
    coproduct: each acts on the other's space by its dual left action, and
    both right actions are zero."""
    n = lsa.n
    return MatchedPairData(lsa, dual, dual_left_action(lsa), rep_zero(n),
                           dual_left_action(dual), rep_zero(n))


def _co_left_symmetry(alpha):
    """Per basis vector: D - swap12(D), where D[a][b][c] is
    sum_p A[p][c] alpha[p][a][b] - sum_q A[a][q] alpha[q][b][c], A = alpha_i."""
    al = scaled(alpha)
    alT = scaled_permute(al, (0, 2, 1))
    out = []
    for i in range(len(alpha)):
        D = scaled_combine(((1, scaled_permute(scaled_leg(alT.plane(i), al, 0), (1, 2, 0))),
                            (-1, scaled_leg(al.plane(i), al, 0))))
        out.append(unscaled(scaled_combine(((1, D), (-1, scaled_permute(D, (1, 0, 2)))))))
    return out


def slsba_coboundary(lsa, r):
    """alpha(x) = (id tensor R.(x)) r, over a product that must be
    left-symmetric (NotAnLSA); the report checks the action closure
    condition on all pairs and the vanishing of co-left-symmetry computed
    through the quadratic expression in r (cross-asserted against the
    direct evaluation)."""
    require(check_left_symmetric(lsa), NotAnLSA, "base product is not %s at %s")
    n = lsa.n
    R, C = scaled(r), scaled(lsa.c)
    Cr = scaled_permute(C, (1, 0, 2))  # Cr[j] = R_j^T, R_j right multiplication by e_j
    alpha = unscaled(scaled_leg(R, Cr, 1))  # alpha_i = r R_i^T
    base = _two_sided(r, C, C)  # L_i r + r L_i^T
    viol = []
    for i in range(n):
        cond = scaled_leg(base.plane(i), Cr, 1)  # base_i R_j^T over j
        for j in range(n):
            viol += mat_violations("action-condition", cond.plane(j), (i, j))
    # m3[a][b][s] = sum r[a][q] r[t][s] lsa[q][t][b] - (a <-> b)
    #             + sum r[a][q] r[b][t] br[q][t][s]
    Z = scaled_leg(scaled(mat_transpose(r)), scaled_leg(R, C, 0), 1)
    br = scaled_combine(((1, C), (-1, Cr)))
    m3 = scaled_combine(((1, scaled_permute(Z, (0, 2, 1))), (-1, scaled_permute(Z, (2, 0, 1))),
                         (1, scaled_leg(R, scaled_leg(R, br, 1), 0))))
    Rd = scaled_permute(C, (1, 2, 0))  # Rd[i] = R_i
    tq = [unscaled(scaled_leg(Rd.plane(i), m3, 2)) for i in range(n)]
    viol += mat_violations("co-left-symmetry", tq)
    if tuple(tq) != tuple(_co_left_symmetry(alpha)):
        raise InternalMismatch("co-left-symmetry via r disagrees with the "
                               "direct evaluation")
    return alpha, report("slsba-coboundary", viol,
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
    fullrep = _slsba_identities(lsa_d, alpha_d)
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
