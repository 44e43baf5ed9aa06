"""Coproduct pairs in duality with product pairs, coboundary coproducts
built from an element r of A tensor A, the operators deciding coproduct
validity (computed two ways and cross-asserted), doubles carrying the
canonical r, and para-Kahler verification.

A public verifier validates its preconditions, raising the typed error
(checks.require), then evaluates its identities.  A chain calls the public
verifiers and finds the preconditions it has verified kept (linalg._once,
whose module docstring gives the one account of what is kept and how;
plsca_check keeps its report on the pair).  A frozen pair keeps its Packed
tensors and the permutations of them the chains read (_scaled_pair), so
trying many r against one pair verifies and converts it once.  A
CoproductPair converts its tensors and builds its dual products once
(.scaled, .dual), and the pair coboundary_coproducts returns starts with
the Packed form it was unscaled from.  R_operators leaves its coproducts
and direct operators on the _ScaledPair as a hand-over, used once and never
cached: the next coboundary_coproducts on the pair drops it, and when its r
is equal it builds the pair from those coproducts and seeds it with the
operators, which that pair's plsca_check takes instead of evaluating them
again.  Each cross-check route runs once per object it checks: the
closed forms per R_operators call, the dual's check_plsa per coproduct
pair, check_matched_pair per call of plsba_check and slsba_check.

The primary routes contract on the packed kernel of linalg, whose module
docstring gives the one account of it.  An identity over pairs of basis
vectors is one stacked Packed tensor, plane i * n + j holding the matrix
of the pair (i, j), each term one contraction by every plane of a tensor
(scaled_leg_each, scaled_leg_planes); _pair_violations is the one collector
of the stacks.  Identities reported interleaved per tuple are merged by a
stable sort on the tuple.  r, r^T and u = r - r^T are converted once per
call (_r_forms); the routes that must agree entry for entry (R_operators'
direct and closed forms, slsba_coboundary's r route and the direct
co-left-symmetry) are compared on cross-multiplied numerators
(linalg.scaled_equal), and only what a public function returns is turned
into Fractions, when it is read: a violation's residual, a CoproductPair
that coboundary_coproducts returns and R_operators' ROperators are views
built on first read over the numerators they keep.  slsba_double checks
the coproduct of its double on the Packed alpha that slsba_coboundary's
core computed (_slsba_coboundary, _slsba_check).  The cross-checks
(check_plsa on dualized coproducts, check_matched_pair) are sparse
identities evaluated by checks._scatter, independent of the kernel;
_route_agrees compares the two verdicts.

Coordinate conventions: an element of A tensor A is the matrix r[p][q] of
coefficients of e_p tensor e_q; a coproduct is stored as one such matrix per
basis vector (alpha[i][p][q] is the e_p tensor e_q coefficient of the
coproduct of e_i); rank-3 tensors t[a][b][c] hold coefficients of
e_a tensor e_b tensor e_c.
"""

from dataclasses import dataclass
from itertools import combinations
from operator import le, lt

from .linalg import (
    InternalMismatch,
    Scaled,
    _kept,
    _once,
    mat_zero,
    scaled,
    scaled_blocks,
    scaled_combine,
    scaled_equal,
    scaled_leg,
    scaled_leg_each,
    scaled_leg_planes,
    scaled_permute,
    unscaled,
)
from .checks import (
    Endo,
    StructureTensor,
    Violation,
    _nonzeros,
    _permuted,
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
    """A pair built from its Packed form (coboundary_coproducts) keeps only
    that: alpha and beta are then views built on their first read.
    Equality, hashing and repr are the dataclass's, through the views."""
    n: int
    # alpha[i][p][q]: e_p tensor e_q coefficient of alpha(e_i)
    alpha: tuple = _kept(lambda self: unscaled(self.scaled[0]))
    beta: tuple = _kept(lambda self: unscaled(self.scaled[1]))

    @_kept
    def scaled(self):
        """(alpha, beta) as Packed tensors, converted on first use and shared
        by every route that contracts this pair; never mutated."""
        return scaled(self.alpha), scaled(self.beta)

    @_kept
    def dual(self):
        """The two dual products, listed off .scaled (_dual_product)."""
        return tuple(_dual_product(self.n, t) for t in self.scaled)


@dataclass(frozen=True, eq=False)
class ROperators:
    """R_operators' result: the three obstructions of an n-dimensional
    coboundary pair, kept Packed (.packed, as _coproduct_operators gives
    them).  first, a list of n matrices, and second and third, lists of n
    rank-3 tensors split off their stacks, are Fraction views built on their
    first read.  It is read as the tuple (first, second, third) it
    replaces: R1, R2, R3 = R_operators(...) unpacks it, indexing and len
    read that tuple, == compares it, and like that tuple of lists it is
    unhashable."""
    n: int
    packed: tuple

    @_kept
    def first(self):
        return list(unscaled(self.packed[0]))

    @_kept
    def second(self):
        return [unscaled(t) for t in self.packed[1].split(self.n)]

    @_kept
    def third(self):
        return [unscaled(t) for t in self.packed[2].split(self.n)]

    def _tuple(self):
        return self.first, self.second, self.third

    def __iter__(self):
        return iter(self._tuple())

    def __getitem__(self, i):
        return self._tuple()[i]

    def __len__(self):
        return 3

    def __eq__(self, other):
        if isinstance(other, ROperators):
            other = other._tuple()
        return self._tuple() == other if isinstance(other, tuple) else NotImplemented


@dataclass(frozen=True)
class ParaKahlerData:
    bracket: StructureTensor
    omega: object
    E: Endo
    conn: StructureTensor = None


# ---------------------------------------------------------------------------
# helpers

def zero_coproducts(n):
    z = (mat_zero(n),) * n
    return CoproductPair(n, z, z)


class _ScaledPair:
    """prec, succ, their sum dot and its commutator br of a product pair as
    Packed tensors P, S, D and B; iterating gives these four.  For a
    product X, plane i of X permuted by (0, 2, 1) is the matrix Lx_i of
    left multiplication by e_i, and plane j of X permuted by (1, 0, 2) is
    Rx_j^T, the transposed right multiplication by e_j."""

    def __init__(self, plsa):
        self.P, self.S = (op.scaled for op in plsa)
        self.D = scaled_combine(((1, self.P), (1, self.S)))
        self.B = scaled_combine(((1, self.D), (-1, scaled_permute(self.D, (1, 0, 2)))))
        self.handover = None  # R_operators' last evaluation (see there)

    def __iter__(self):
        return iter((self.P, self.S, self.D, self.B))

    def perm(self, name, axes):
        """The tensor name ("P", "S", "D" or "B") with its legs permuted by
        axes, kept per name and axes (_once)."""
        return _once(self, ("perm", name, axes), (),
                     lambda: scaled_permute(getattr(self, name), axes))


def _scaled_pair(plsa):
    """The _ScaledPair of a product pair, built once per pair of objects
    (_once)."""
    return _once(plsa[0], "scaled-pair", (plsa[1],), lambda: _ScaledPair(plsa))


def _r_forms(r):
    """r, r^T, u = r - r^T and u^T = -u as Scaled matrices over one
    denominator, from a single conversion of the Fraction matrix r."""
    R = scaled(r)
    RT = R.transposed()
    U = Scaled([[a - b for a, b in zip(x, y)] for x, y in zip(R.num, RT.num)], R.den)
    return R, RT, U, Scaled([[-a for a in row] for row in U.num], R.den)


def _two_sided(M, MT, X, YT):
    """Per basis vector e_i: m Lx_i^T + Ly_i m, for a Scaled matrix M = m,
    its transpose MT, a Packed product X and the Packed product Y permuted
    by (0, 2, 1), YT, with left multiplications Lx_i, Ly_i."""
    return scaled_combine(((1, scaled_leg(M, X, 1)), (1, scaled_leg(MT, YT, 2))))


def _swap_each(t, n):
    """The n tensors stacked in the Packed t, each with its legs 0 and 1
    swapped, stacked again: every packed row is kept."""
    k = len(t.num) // n
    return t._replace(num=[list(rows) for i in range(0, len(t.num), k)
                           for rows in zip(*t.num[i:i + k])])


def _pair_violations(n, *items):
    """The one collector of the stacked families: for items (where, t,
    keep), a violation at (i, j, a, b) with residual x / t.den, kept as
    numerators (Violation.of), for each nonzero numerator x at (a, b) of
    plane i * n + j of the Packed t, where keep is None or keep(i, j); in
    the order of (i, j), then of items, then of a and b.  Each packed row is
    tested against 0, and a tensor none of whose rows is read nonzero is
    never decoded."""
    out, of = [], Violation.of
    for p in range(n * n):
        for where, t, keep in items:
            plane = t.num[p]
            if any(plane) and (keep is None or keep(*divmod(p, n))):
                out += [of(where, (*divmod(p, n), a, b), x, t.den)
                        for a, (R, row) in enumerate(zip(plane, t.decoded[p])) if R
                        for b, x in enumerate(row) if x]
    return out


def _compat_defect(D, S, T, A):
    """Per basis vector e_i, stacked (scaled_leg_each), the tensor over
    (j, a, b) of

        sum_k D[i][j][k] T_k - Ls_i T_j - T_j Ld_i^T - A_i Rd_j^T

    for Packed products D, S (left multiplications Ld, Ls; right
    multiplications Rd of D) and Packed matrix families T, A."""
    Dr = scaled_permute(D, (1, 0, 2))  # Dr[j][p][b] = D[p][j][b]
    return scaled_combine(((1, scaled_leg_each(D, T, 0)),
                           (-1, scaled_leg_each(S, T, 1, transpose=True)),
                           (-1, scaled_leg_planes(D, T)),
                           (-1, scaled_leg_each(A, Dr, 1))))


# ---------------------------------------------------------------------------
# duality

def _dual_product(n, t):
    """The product on the dual space whose f_k coefficient of f_p f_q is
    t[k][p][q], the (p, q) coefficient of the coproduct of e_k, for a
    Packed t: its decoded rows listed, and the list re-bucketed."""
    return StructureTensor.listed(n, _permuted((t.den, _nonzeros(t.decoded)[1]), (n,) * 3,
                                               (1, 2, 0)))


def _coproduct_operators(al, be):
    """The three obstructions of the Packed coproducts al, be: one tensor
    over (i, p, q) for co-commutativity of alpha, and the stacked tensors
    of the basis vectors for mixed co-compatibility and for co-left-symmetry
    of beta."""
    alT = scaled_permute(al, (0, 2, 1))  # alT[i] = alpha_i transposed
    ab = scaled_combine(((1, al), (1, be)))
    # with A = alpha_i, B = beta_i: sum_q B[a][q] al[q][b][c]
    # - sum_p A[p][c] ab[p][a][b] - sum_q A[b][q] ab[q][a][c]
    R2 = scaled_combine(((1, scaled_leg_each(be, al, 0)),
                         (-1, scaled_leg_planes(al, ab, (1, 2, 0))),
                         (-1, scaled_leg_each(al, scaled_permute(ab, (1, 0, 2)), 1))))
    return scaled_combine(((1, al), (-1, alT))), R2, _co_left_symmetry(be)


def plsca_check(cp):
    """Coproduct-pair validity: all three obstruction tensors vanish.

    Per tuple, co-commutativity at (i, p, q) comes before co-compatibility
    and co-left-symmetry at each (i, p, q, s); one stable sort on the
    indices merges the three lists in that order.  The verdict is compared
    against check_plsa on the dualized products, which must agree by
    construction.  Evaluated once per pair object (_once); a pair
    coboundary_coproducts seeded with R_operators' direct operators gives
    them up to this evaluation instead of contracting them again."""
    def compute():
        R1, R2, R3 = cp.__dict__.pop("_operators", None) or _coproduct_operators(*cp.scaled)
        viol = mat_violations("co-commutativity", R1) + _pair_violations(
            cp.n, ("co-compatibility", R2, None), ("co-left-symmetry", R3, None))
        viol.sort(key=lambda v: v.indices)
        note = _route_agrees(not viol, check_plsa(*cp.dual).verdict,
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
    pair = _scaled_pair(plsa)
    P, S, D, B = pair
    AL, BE = cp.scaled
    AB = scaled_combine(((1, AL), (1, BE)))
    ALT, ABT = scaled_permute(AL, (0, 2, 1)), scaled_permute(AB, (0, 2, 1))
    Pr = pair.perm("P", (1, 0, 2))  # Pr[j][p][a] = P[p][j][a]: Pr[j] = Rp_j^T
    # each identity over (i, j), stacked (scaled_leg_each), one contraction
    # per term: al_j Ld_i^T, Ld_i al_j and so on
    b1 = scaled_combine((
        (1, scaled_leg_each(B, AL, 0)), (-1, scaled_leg_planes(D, AL)),
        (-1, scaled_leg_each(D, AL, 1, transpose=True)), (1, scaled_leg_each(AL, D, 1)),
        (1, scaled_leg_planes(AL, D, (0, 2, 1)))))
    common = _compat_defect(D, S, AB, BE)
    b2 = scaled_combine(((1, common), (1, scaled_leg_planes(AL, P, (0, 2, 1)))))  # Lp_j al_i
    b4 = scaled_combine(((1, common), (1, scaled_leg_planes(ALT, P, (1, 2, 0)))))  # Rp_j al_i^T
    # each side of 3 is M - M^T: M = ab(prec_ij) on the left and
    # ab_i Rp_j^T + ab_j Lp_i^T on the right; M^T is contracted as it is
    b3 = scaled_combine((
        (1, scaled_leg_each(P, AB, 0)), (-1, scaled_leg_each(AB, Pr, 1)),
        (-1, scaled_leg_planes(P, AB)), (-1, scaled_leg_each(P, ABT, 0)),
        (1, scaled_leg_planes(ABT, P, (1, 2, 0))),
        (1, scaled_leg_each(P, ABT, 1, transpose=True))))
    viol = _pair_violations(cp.n, ("bialgebra-1", b1, lt), ("bialgebra-2", b2, None),
                            ("bialgebra-4", b4, None), ("bialgebra-3", b3, None))
    del AB, ALT, ABT, common, b1, b2, b3, b4  # freed before the cross-check runs
    mrep = check_matched_pair(dual_actions(plsa, cp.dual))
    return report("plsba", viol, [_route_agrees(not viol, mrep.verdict, "tensor identities",
                                                "matched-pair route")])


# ---------------------------------------------------------------------------
# coboundary structures

def coboundary_coproducts(plsa, r):
    """The coproduct pair induced by r: per basis vector e_i,

        alpha_i = r Ldot_i^T + Ldot_i r
        beta_i  = -(r ad_i^T + Lsucc_i r)

    where Ldot, Lsucc, ad are left multiplication by e_i in the sum product,
    the second product, and the commutator bracket.  The pair is built from
    its Packed form, and alpha and beta are views of it.

    It takes the hand-over an R_operators call left on the product pair and
    drops it; when that call's r equals r, its coproducts are used and its
    operators seed the returned pair, for plsca_check to take."""
    pair = _scaled_pair(plsa)
    kept, pair.handover = pair.handover, None
    if kept is not None and kept[0] == tuple(map(tuple, r)):
        _, (al, be), ops = kept
    else:
        (al, be), ops = _coboundary_scaled(pair, _r_forms(r)), None
    cp = object.__new__(CoproductPair)
    cp.__dict__.update(n=plsa[0].n, scaled=(al, be), _operators=ops)
    return cp


def _coboundary_scaled(pair, rf):
    """coboundary_coproducts as Packed alpha, beta, from the _ScaledPair
    pair and the Scaled matrices rf of _r_forms."""
    (_, _, D, B), (R, RT, _, _) = pair, rf
    return (_two_sided(R, RT, D, pair.perm("D", (0, 2, 1))),
            scaled_combine(((-1, _two_sided(R, RT, B, pair.perm("S", (0, 2, 1)))),)))


def coboundary_conditions(plsa, r):
    """Two closure conditions on the skew part u = r - r^T, for a product
    pair that must be valid (InvalidInput): a quadratic identity in left
    multiplications of the first product per unordered basis pair
    (_coboundary_one), and the right-multiplication condition
    Rp_j (Ld_i u + u Ld_i^T) = 0 per ordered pair."""
    require(check_plsa(*plsa), InvalidInput, "product pair invalid: %s at %s")
    pair = _scaled_pair(plsa)
    _, _, U, UT = _r_forms(r)
    base = _two_sided(U, UT, pair.D, pair.perm("D", (0, 2, 1)))
    C2 = scaled_leg_planes(base, pair.P, (1, 2, 0))  # Rp_j base_i, stacked
    return report("coboundary-conditions", _pair_violations(
        plsa[0].n, ("coboundary-1", _coboundary_one(pair, UT), le),
        ("coboundary-2", C2, None)))


def _coboundary_one(pair, UT):
    """Per basis vector e_i, stacked (scaled_leg_each), the tensor over
    (j, a, b) of

        M u + u M^T - Lp_j u Lp_i^T - Lp_i u Lp_j^T,   M = Lp(e_i prec e_j),

    for the first product P of the _ScaledPair pair and the Scaled
    transpose UT of a skew matrix u.  With V_k = Lp_k u it is Z - Z^T for
    Z_j = M u - V_j Lp_i^T, as u^T = -u; Z^T is contracted from V^T."""
    P = pair.P
    V = scaled_leg(UT, pair.perm("P", (0, 2, 1)), 2)  # V[k] = Lp_k u
    VT = scaled_leg(UT, P, 1)
    return scaled_combine(((1, scaled_leg_each(P, V, 0)), (-1, scaled_leg_planes(P, V)),
                           (-1, scaled_leg_each(P, VT, 0)),
                           (1, scaled_leg_each(P, VT, 1, transpose=True))))


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
    """rr_brackets on the _ScaledPair pair and the Scaled matrices rf of
    _r_forms."""
    R, RT, _, _ = rf

    def uqt(c):  # sum r[u][q] r[v][t] c[q][t][w]
        return scaled_leg(R, scaled_leg(R, getattr(pair, c), 0), 1)

    def uqs(c):  # sum r[u][q] r[s][w] c[q][s][v]
        return scaled_leg(RT, scaled_leg(R, pair.perm(c, (0, 2, 1)), 0), 2)

    def pvs(c):  # sum r[p][v] r[s][w] c[p][s][u]
        return scaled_leg(RT, scaled_leg(RT, pair.perm(c, (2, 0, 1)), 2), 1)

    return (scaled_combine(((1, uqt("D")), (1, uqs("D")), (1, pvs("P")))),
            scaled_combine(((1, pvs("S")), (-1, uqs("S")), (-1, uqt("B")))))


def R_operators(plsa, r):
    """The three coproduct obstructions of the coboundary pair built from r
    (InvalidInput unless the product pair is valid), evaluated directly and
    again through closed forms in the quadratic tensors of r.  Both routes
    stay on packed numerators, which are compared entry for entry
    (scaled_equal; InternalMismatch when they differ).  The result is an
    ROperators over the direct route's tensors, whose Fraction views are
    built only when read.

    Once the routes agree, the product pair's _ScaledPair holds a hand-over
    for the next coboundary_coproducts call on it, which always drops it: a
    snapshot of r by value, the Packed coproducts and the direct operators.
    A call that raises leaves none."""
    require(check_plsa(*plsa), InvalidInput, "product pair invalid: %s at %s")
    pair = _scaled_pair(plsa)
    pair.handover = None
    rf = _r_forms(r)
    cop = _coboundary_scaled(pair, rf)
    ops = _coproduct_operators(*cop)
    for name, direct, closed in zip(("first", "second", "third"), ops,
                                    _closed_form_operators(pair, rf)):
        if not scaled_equal(direct, closed):
            raise InternalMismatch("%s operator: direct and closed-form routes "
                                   "disagree" % name)
    pair.handover = tuple(map(tuple, r)), cop, ops
    return ROperators(plsa[0].n, ops)


def _closed_form_operators(pair, rf):
    """The obstructions through T1, T2 = rr_brackets; u = r - r^T, and Ld,
    Ls, ad (left) and Rp, Rs (right multiplications) are per basis vector:
        R1_i = base_i = Ld_i u + u Ld_i^T
        R2_i = -(Ls_i, Ld_i, Ld_i on legs 0, 1, 2 of T1) + sum_p Rp_p base_i (x) r[p]
        R3_i = (Ls_i, Ls_i, ad_i on legs 0, 1, 2 of T2) - sum_p Rs_p W_i (x) r[p]
               + sum_p W(e_i succ e_p) (x) r[p] + sum_pq r[p][q] W_p (x) [e_i, e_q]
    with W(x) = ad(x) u + u Ls(x)^T linear in x, W_p = W(e_p); each sum is
    one leg contraction.  pair is the _ScaledPair and rf the Scaled matrices
    of _r_forms; the result is Packed, as _coproduct_operators'."""
    R, RT, U, UT = rf
    P, S, D, B = pair
    T1, T2 = _rr_scaled(pair, rf)
    base = _two_sided(U, UT, D, pair.perm("D", (0, 2, 1)))
    W = _two_sided(U, UT, S, pair.perm("B", (0, 2, 1)))
    # Yp[a][x][c] = sum_p r[p][c] prec[x][p][a], and Ys likewise for succ
    Yp = scaled_leg(RT, pair.perm("P", (2, 0, 1)), 2)
    Ys = scaled_leg(RT, pair.perm("S", (2, 0, 1)), 2)
    # KT[i][k][c] = sum_p r[p][c] succ[i][p][k] + sum_q r[k][q] br[i][q][c]
    KT = scaled_combine(((1, scaled_leg(RT, pair.perm("S", (0, 2, 1)), 2)),
                         (1, scaled_leg(R, B, 1))))
    # per basis vector e_i, stacked (scaled_leg_each)
    R2 = scaled_combine((
        (-1, scaled_leg_each(S, T1, 0, transpose=True)),
        (-1, scaled_leg_each(D, T1, 1, transpose=True)), (-1, scaled_leg_planes(D, T1)),
        (1, scaled_leg_each(base, Yp, 1, transpose=True))))
    R3 = scaled_combine((
        (1, scaled_leg_each(S, T2, 0, transpose=True)),
        (1, scaled_leg_each(S, T2, 1, transpose=True)), (1, scaled_leg_planes(B, T2)),
        (1, scaled_leg_planes(KT, W, (1, 2, 0))),
        (-1, scaled_leg_each(W, Ys, 1, transpose=True))))
    return base, R2, R3


# ---------------------------------------------------------------------------
# the double with canonical r

def canonical_r(n):
    """r = sum_i e_i tensor f_i on A + A*, as a 2n by 2n coefficient matrix."""
    return unscaled(scaled_blocks(n, (((0, None), (1, None)), ((0, None), (0, None)))))


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
    pair_d = build_double_plsa(plsa, cp.dual)
    n2 = pair_d[0].n
    r = canonical_r(n2 // 2)
    cp_d = coboundary_coproducts(pair_d, r)
    pair, rf = _scaled_pair(pair_d), _r_forms(r)
    _, _, U, UT = rf
    T1, T2 = _rr_scaled(pair, rf)  # rr_brackets, read off its numerators
    viol = mat_violations("r-bracket-1", T1) + mat_violations("r-bracket-2", T2)
    # Ld_i u + u Ld_i^T and u Ls_i^T + ad_i u, merged by (i, a, b) in a stable sort
    viol += sorted(mat_violations("double-r-1",
                                  _two_sided(U, UT, pair.D, pair.perm("D", (0, 2, 1))))
                   + mat_violations("double-r-3",
                                    _two_sided(U, UT, pair.S, pair.perm("B", (0, 2, 1)))),
                   key=lambda v: v.indices)
    # coboundary-1 of the double; its coboundary-2 half is not part of the report
    viol += _pair_violations(n2, ("double-r-2", _coboundary_one(pair, UT), le))
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
        res = scaled_combine(((1, X), (-1, scaled_permute(X, (1, 0, 2)))))
        viol += violations("conn-E-symmetric", combinations(range(n), 2),
                           lambda i, j: res.decoded[i][j], res.den)
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
    return _slsba_check(lsa, scaled(alpha))


def _slsba_check(lsa, AL):
    """slsba_check over a left-symmetric lsa, on the Packed form AL of alpha."""
    # alpha(e_i e_j) = L_i alpha_j + alpha_j L_i^T + alpha_i R_j^T
    C = lsa.scaled
    viol = _pair_violations(lsa.n, ("coproduct-compat", _compat_defect(C, C, AL, AL), None))
    cls = _pair_violations(lsa.n, ("co-left-symmetry", _co_left_symmetry(AL), None))
    if cls:
        note = "matched-pair route skipped: dual product is not left-symmetric"
    else:
        mrep = check_matched_pair(_left_dual_actions(lsa, _dual_product(lsa.n, AL)))
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
    """Stacked over the basis vectors e_i: D - swap12(D), where D[a][b][c]
    is sum_p A[p][c] alpha[p][a][b] - sum_q A[a][q] alpha[q][b][c],
    A = alpha_i, for the Packed coproduct al of alpha.  Both halves of D are
    one contraction each, and swap12 keeps their packed rows."""
    n = len(al.num)
    D1, D2 = scaled_leg_planes(al, al, (1, 2, 0)), scaled_leg_each(al, al, 0)
    return scaled_combine(((1, D1), (-1, D2), (-1, _swap_each(D1, n)),
                           (1, _swap_each(D2, n))))


def slsba_coboundary(lsa, r):
    """alpha(x) = (id tensor R.(x)) r, over a product that must be
    left-symmetric (NotAnLSA); the report checks the action closure
    condition on all pairs and the vanishing of co-left-symmetry computed
    through the quadratic expression in r, compared on numerators against
    the direct evaluation (InternalMismatch when they differ)."""
    AL, rep = _slsba_coboundary(lsa, r)
    return unscaled(AL), rep


def _slsba_coboundary(lsa, r):
    """slsba_coboundary with alpha returned Packed."""
    require(check_left_symmetric(lsa), NotAnLSA, "base product is not %s at %s")
    n = lsa.n
    C = lsa.scaled
    R, RT, _, _ = _r_forms(r)
    Cr = scaled_permute(C, (1, 0, 2))  # Cr[j] = R_j^T, R_j right multiplication by e_j
    AL = scaled_leg(R, Cr, 1)  # alpha_i = r R_i^T
    base = _two_sided(R, RT, C, scaled_permute(C, (0, 2, 1)))  # L_i r + r L_i^T
    # base_i R_j^T over j, per basis vector e_i
    viol = _pair_violations(n, ("action-condition", scaled_leg_each(base, Cr, 1), None))
    # m3[a][b][s] = sum r[a][q] r[t][s] lsa[q][t][b] - (a <-> b)
    #             + sum r[a][q] r[b][t] br[q][t][s]
    Z = scaled_leg(RT, scaled_leg(R, C, 0), 1)
    br = scaled_combine(((1, C), (-1, Cr)))
    m3 = scaled_combine(((1, scaled_permute(Z, (0, 2, 1))), (-1, scaled_permute(Z, (2, 0, 1))),
                         (1, scaled_leg(R, scaled_leg(R, br, 1), 0))))
    tq = scaled_leg_planes(Cr, m3)  # R_i on leg 2 of m3, per basis vector e_i
    viol += _pair_violations(n, ("co-left-symmetry", tq, None))
    if not scaled_equal(tq, _co_left_symmetry(AL)):
        raise InternalMismatch("co-left-symmetry via r disagrees with the "
                               "direct evaluation")
    return AL, report("slsba-coboundary", viol, ["direct co-left-symmetry route agrees"])


def slsba_double(slsba):
    """Double over an LSA bialgebra: the product on A + A* built from the
    two dual left actions, the canonical r coboundary coproduct, a full
    re-check, and the para-Kahler package (canonical skew pairing, the
    block reflection E, the glued product as connection)."""
    lsa, alpha = slsba
    require(slsba_check(lsa, alpha), NotAnSLSBA, "%s fails at %s")
    n = lsa.n
    lsa_d = glue_product(_left_dual_actions(lsa, _dual_product(n, scaled(alpha))))
    r = canonical_r(n)
    AL_d, cobrep = _slsba_coboundary(lsa_d, r)  # verifies lsa_d is an LSA
    fullrep = _slsba_check(lsa_d, AL_d)
    alpha_d = unscaled(AL_d)
    E = Endo.listed(2 * n, scaled_blocks(n, (((1, None), (0, None)), ((0, None), (-1, None)))))
    pk = ParaKahlerData(sub_adjacent(lsa_d), canonical_skew_pairing(n), E, lsa_d)
    pkrep = check_parakahler(pk)
    rep = merge_reports("slsba-double",
                        [relabel(cobrep, "coboundary"),
                         relabel(fullrep, "double-check"),
                         relabel(pkrep, "para-kahler")])
    return lsa_d, alpha_d, rep
