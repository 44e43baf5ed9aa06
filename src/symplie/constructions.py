"""Constructions on verified structures: dual actions, semidirect products,
tangent and cotangent doubles of a flat symplectic connection, the three
parameter families of anticommuting (J, E) pairs, product-pair extraction,
and the affine cotangent extension.

Every constructor validates its preconditions with the verifiers from
checks and refuses bad input with a typed error, so downstream code can
rely on the returned data without re-checking.
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    DimensionMismatch,
    InternalMismatch,
    basis_vec,
    frac,
    mat_identity,
    mat_inverse,
    mat_neg,
    mat_mul,
    mat_rank,
    mat_scale,
    mat_sub,
    mat_transpose,
    mat_vec,
    rational_sqrt,
    t3,
    t3_is_zero,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from .checks import (
    Endo,
    Form,
    RepTensor,
    StructureTensor,
    Violation,
    check_closed,
    check_flat,
    check_jacobi,
    check_left_symmetric,
    check_nondegenerate,
    check_plsa,
    check_representation,
    check_skew,
    check_special_symplectic,
    check_torsion_free,
    form_apply,
    left_mult_basis,
    mat_violations,
    merge_reports,
    op_apply,
    op_sub,
    relabel,
    rep_from_op_left,
    require,
)


class InvalidInput(ValueError):
    pass


class DegenerateForm(ValueError):
    pass


class BadParams(ValueError):
    pass


class IrrationalSquareRoot(BadParams):
    pass


class NotARepresentation(ValueError):
    pass


class NotAnLSA(ValueError):
    pass


@dataclass(frozen=True)
class SpecialSymplecticData:
    bracket: StructureTensor
    conn: StructureTensor
    omega: Form


@dataclass(frozen=True)
class DoubleData:
    bracket: StructureTensor  # on the 2n-dimensional sum
    conn: StructureTensor
    metric: Form
    omega_p: Form  # None for tangent doubles
    ranges: tuple  # ((0, n), (n, 2n)): index ranges of the two summands


@dataclass(frozen=True)
class FamilyParams:
    family: str  # "F1", "F2" or "F3"
    lam: Fraction
    mu: Fraction
    k: Fraction = None  # F3 only
    sign: int = 1


@dataclass(frozen=True)
class CotangentExtensionData:
    base: StructureTensor  # an LSA product on A
    l: RepTensor  # A acting on A*
    r: RepTensor  # A acting on A*
    phi: tuple  # phi[i][j][k]: e_k* coefficient of phi(e_i, e_j)


# ---------------------------------------------------------------------------
# dual actions

def dual_left_action(op):
    """Left multiplications of op pushed to the dual space.

    The matrix of x acting on a* is minus the transpose of left
    multiplication by x, so that <x.a*, y> = -<a*, x o y> on all triples.
    """
    ts = tuple(mat_neg(mat_transpose(left_mult_basis(op, i))) for i in range(op.n))
    return RepTensor(op.n, op.n, ts)


def dual_right_action(op):
    """Right multiplications on the dual: <x.a*, y> = -<a*, y o x>."""
    n = op.n
    ts = []
    for i in range(n):
        # right multiplication by e_i, then minus transpose
        rm = tuple(tuple(op.c[k][i][j] for k in range(n)) for j in range(n))
        ts.append(mat_neg(mat_transpose(rm)))
    return RepTensor(n, n, tuple(ts))


def coadjoint(br):
    """Bracket action on the dual: <x.a*, y> = -<a*, [x,y]>."""
    return dual_left_action(br)


# ---------------------------------------------------------------------------
# semidirect products and doubles

def semidirect_lie(br, rho):
    """Bracket on the sum of br's space and rho's module:
    [(x,u),(y,v)] = ([x,y], rho(x)v - rho(y)u)."""
    jac = check_jacobi(br)
    if not jac.verdict:
        raise NotARepresentation("bracket fails the Lie axioms at %s"
                                 % (jac.violations[0].indices,))
    rep = check_representation(br, rho)
    if not rep.verdict:
        raise NotARepresentation("action is not a representation at %s"
                                 % (rep.violations[0].indices,))
    return _semidirect_bracket(br, rho)


def _semidirect_bracket(br, rho):
    """semidirect_lie for a bracket and representation already verified."""
    n, m = br.n, rho.m
    d = n + m
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = br.c[i][j][k]
    for i in range(n):
        for j in range(m):
            for k in range(m):
                q = rho.t[i][k][j]
                if q:
                    c[i][n + j][n + k] = q
                    c[n + j][i][n + k] = -q
    return StructureTensor(d, t3(c))


def _require_special_symplectic(s):
    require(check_special_symplectic(s.bracket, s.conn, s.omega), InvalidInput,
            "not special symplectic: %s at %s")


def tangent_double(s):
    """Double on A + A with the connection acting on the second copy.

    Bracket [(x,u),(y,v)] = ([x,y], conn_x v - conn_y u); the doubled
    connection sends ((x,z),(y,w)) to (conn_x y, conn_x w); the metric pairs
    the two copies through omega.
    """
    _require_special_symplectic(s)  # Jacobi, and flatness: rho is a representation
    n = s.bracket.n
    rho = rep_from_op_left(s.conn)
    br2 = _semidirect_bracket(s.bracket, rho)
    d = 2 * n
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                q = s.conn.c[i][j][k]
                if q:
                    c[i][j][k] = q
                    c[i][n + j][n + k] = q
    conn2 = StructureTensor(d, t3(c))
    w = s.omega.m
    g = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            g[i][n + j] = w[i][j]
            g[n + i][j] = w[j][i]
    metric = Form(d, tuple(tuple(row) for row in g))
    return DoubleData(br2, conn2, metric, None, ((0, n), (n, d)))


def _cotangent_core(br, conn):
    n = br.n
    rho_star = dual_left_action(conn)
    # every caller has verified Jacobi and flatness, so rho_star is a representation
    br2 = _semidirect_bracket(br, rho_star)
    d = 2 * n
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if conn.c[i][j][k]:
                    c[i][j][k] = conn.c[i][j][k]
                q = rho_star.t[i][k][j]
                if q:
                    c[i][n + j][n + k] = q
    conn2 = StructureTensor(d, t3(c))
    g = [[Fraction(0)] * d for _ in range(d)]
    wp = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        g[i][n + i] = Fraction(1)
        g[n + i][i] = Fraction(1)
        wp[i][n + i] = Fraction(-1)
        wp[n + i][i] = Fraction(1)
    metric = Form(d, tuple(tuple(row) for row in g))
    omega_p = Form(d, tuple(tuple(row) for row in wp))
    return DoubleData(br2, conn2, metric, omega_p, ((0, n), (n, d)))


def cotangent_double(s):
    """Double on A + A* with the dual action of the connection.

    Bracket second component is the dual action commutator; the doubled
    connection sends ((x,a*),(y,b*)) to (conn_x y, x acting on b* dually);
    the metric is the canonical pairing and omega_p the canonical skew
    pairing of A with A*.
    """
    _require_special_symplectic(s)
    return _cotangent_core(s.bracket, s.conn)


def cotangent_double_from_connection(br, conn):
    """Relaxed entry point: only a flat torsion-free connection is needed,
    no symplectic form on the base; omega_p is produced on the double."""
    for rep in (check_jacobi(br), check_torsion_free(br, conn), check_flat(br, conn)):
        if not rep.verdict:
            v = rep.violations[0]
            raise InvalidInput("%s fails at %s" % (rep.check, v.indices))
    return _cotangent_core(br, conn)


# ---------------------------------------------------------------------------
# the (J, E) families

def phi_from_omega(w):
    """Matrix of x -> w(x, .) as a map into the dual basis; invertible."""
    if not check_nondegenerate(w).verdict:
        raise DegenerateForm("form has rank %d < %d" % (mat_rank(w.m), w.n))
    return Endo(w.n, mat_transpose(w.m))


def build_N(l1, l2, l3, l4, f):
    """Block operator [[l2*I, l1*f^-1], [l3*f, l4*I]] on V + V."""
    l1, l2, l3, l4 = frac(l1), frac(l2), frac(l3), frac(l4)
    n = f.n
    finv = mat_inverse(f.m)
    d = 2 * n
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        m[i][i] = l2
        m[n + i][n + i] = l4
        for j in range(n):
            m[i][n + j] = l1 * finv[i][j]
            m[n + i][j] = l3 * f.m[i][j]
    return Endo(d, tuple(tuple(row) for row in m))


def family_JE(p, f):
    """The anticommuting pair (J, E) of family p over the gluing map f.

    J is the same for all three families; E varies.  The defining algebra
    (J squares to minus the identity, E squares to the identity, JE = -EJ)
    is re-verified on the built matrices before returning.
    """
    lam, mu, sg = frac(p.lam), frac(p.mu), p.sign
    if sg not in (1, -1):
        raise BadParams("sign must be +1 or -1, got %r" % (p.sign,))
    if lam == 0:
        raise BadParams("lambda must be nonzero")
    J = build_N(lam, mu, (-1 - mu * mu) / lam, -mu, f)
    if p.family == "F1":
        E = build_N(0, 1, -2 * mu / lam, -1, f)
        E = Endo(E.n, mat_scale(sg, E.m))
    elif p.family == "F2":
        if mu == 0:
            raise BadParams("family F2 needs mu nonzero")
        khat = 2 * mu * lam / (1 + mu * mu)
        E = build_N(khat, 1, 0, -1, f)
        E = Endo(E.n, mat_scale(sg, E.m))
    elif p.family == "F3":
        if p.k is None:
            raise BadParams("family F3 needs the parameter k")
        k = frac(p.k)
        if k == 0:
            raise BadParams("family F3 needs k nonzero")
        if k * k > lam * lam:
            raise BadParams("family F3 needs k^2 <= lambda^2")
        if (mu * mu + 1) ** 2 * k * k == 4 * mu * mu * lam * lam:
            raise BadParams("degenerate F3 parameters: (mu^2+1)^2 k^2 = 4 mu^2 lambda^2")
        s = rational_sqrt(1 - k * k / (lam * lam))
        if s is None:
            raise IrrationalSquareRoot("1 - k^2/lambda^2 = %s is not a square"
                                       % (1 - k * k / (lam * lam),))
        e2 = k * mu / lam + sg * s
        E = build_N(k, e2, (1 - e2 * e2) / k, -e2, f)
    else:
        raise BadParams("unknown family %r" % (p.family,))
    d = J.n
    ident = mat_identity(d)
    if mat_mul(J.m, J.m) != mat_neg(ident):
        raise InternalMismatch("built J does not square to -id")
    if mat_mul(E.m, E.m) != ident:
        raise InternalMismatch("built E does not square to id")
    if mat_mul(J.m, E.m) != mat_neg(mat_mul(E.m, J.m)):
        raise InternalMismatch("J and E do not anticommute")
    return J, E


def hypersymplectic_from_tangent(s, p):
    """Hypersymplectic package (double, J, E, metric) on the tangent double,
    gluing the two copies with the identity map."""
    d = tangent_double(s)
    n = s.bracket.n
    J, E = family_JE(p, Endo(n, mat_identity(n)))
    return d, J, E, d.metric


def hypersymplectic_from_cotangent(s, p):
    """Same package on the cotangent double, gluing A to A* with the map
    induced by omega."""
    d = cotangent_double(s)
    J, E = family_JE(p, phi_from_omega(s.omega))
    return d, J, E, d.metric


# ---------------------------------------------------------------------------
# products from symplectic data

def lsa_from_symplectic(br, w):
    """The unique product with w([x,y],z) = -w(y, x.z); flat and torsion
    free for its own commutator bracket, which equals br."""
    for rep in (check_jacobi(br), check_skew(w), check_closed(br, w)):
        if not rep.verdict:
            v = rep.violations[0]
            raise InvalidInput("%s fails at %s" % (rep.check, v.indices))
    if not check_nondegenerate(w).verdict:
        raise DegenerateForm("form has rank %d < %d" % (mat_rank(w.m), w.n))
    n = br.n
    phinv = mat_inverse(mat_transpose(w.m))
    c = []
    for i in range(n):
        plane = [None] * n
        for k in range(n):
            ek = basis_vec(n, k)
            v = tuple(form_apply(w, br.c[i][j], ek) for j in range(n))
            plane[k] = mat_vec(phinv, v)
        c.append(tuple(plane))
    conn = StructureTensor(n, tuple(c))
    if not check_torsion_free(br, conn).verdict:
        raise InternalMismatch("derived product has torsion")
    if not check_flat(br, conn).verdict:
        raise InternalMismatch("derived product is not flat")
    return conn


def plsa_from_special_symplectic(s):
    """Split the connection into a commutative part and a left-symmetric
    part through omega:

        w(x prec y, z) = -w(y, z . x)      (. = the connection product)
        w(x succ y, z) =  w(y, [z, x])

    The two parts are derived independently and their sum is asserted to
    reproduce the connection exactly.
    """
    _require_special_symplectic(s)
    n = s.bracket.n
    phinv = mat_inverse(mat_transpose(s.omega.m))
    prec_c, succ_c = [], []
    for i in range(n):
        prow, srow = [], []
        for j in range(n):
            ej = basis_vec(n, j)
            vp = tuple(-form_apply(s.omega, ej, s.conn.c[k][i]) for k in range(n))
            vs = tuple(form_apply(s.omega, ej, s.bracket.c[k][i]) for k in range(n))
            prow.append(mat_vec(phinv, vp))
            srow.append(mat_vec(phinv, vs))
        prec_c.append(tuple(prow))
        succ_c.append(tuple(srow))
    prec = StructureTensor(n, tuple(prec_c))
    succ = StructureTensor(n, tuple(succ_c))
    if not t3_is_zero(op_sub(op_sub(s.conn, prec), succ).c):
        raise InternalMismatch("parts do not sum back to the connection")
    if not check_plsa(prec, succ).verdict:
        raise InternalMismatch("derived pair fails the product-pair axioms")
    return prec, succ


# ---------------------------------------------------------------------------
# affine cotangent extension

def affine_cotangent_extension(d):
    """Product on A + A* given by (x,a*)(y,b*) = (x.y, l(x)b* + r(y)a* + phi(x,y)),
    plus the report deciding whether it is left-symmetric with the canonical
    skew pairing parallel for it.

    The report verifies three things: l is the dual left action of the base
    product; the pair derived from r (x prec y paired against a* equals
    minus <r(x)a*, y>, succ = base - prec) passes check_plsa; and phi is
    symmetric in its last two pairings and satisfies the cocycle identity
    (its defect r(z)phi(x,y) + phi(x.y,z) - l(x)phi(y,z) - phi(x,y.z) must
    be symmetric in x and y).
    """
    base, l, r, phi = d.base, d.l, d.r, d.phi
    require(check_left_symmetric(base), NotAnLSA, "base product is not %s at %s")
    n = base.n
    dd = 2 * n
    c = [[[Fraction(0)] * dd for _ in range(dd)] for _ in range(dd)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = base.c[i][j][k]
                c[i][j][n + k] = phi[i][j][k]
                c[i][n + j][n + k] = l.t[i][k][j]
                c[n + j][i][n + k] = r.t[i][k][j]
    product = StructureTensor(dd, t3(c))

    dla = dual_left_action(base)
    viol = mat_violations("l-is-dual-left-action",
                          [mat_sub(l.t[i], dla.t[i]) for i in range(n)])

    prec = StructureTensor(n, tuple(tuple(tuple(-r.t[i][j][k] for k in range(n))
                                          for j in range(n)) for i in range(n)))
    succ = op_sub(base, prec)
    pair_rep = check_plsa(prec, succ)

    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                q = phi[i][j][k] - phi[i][k][j]
                if q:
                    viol.append(Violation("phi-symmetry", (i, j, k), q))

    def cocycle(i, j, k):
        out = mat_vec(r.t[k], phi[i][j])
        out = vec_add(out, tuple(sum((base.c[i][j][p] * phi[p][k][q] for p in range(n)),
                                     Fraction(0)) for q in range(n)))
        out = vec_sub(out, mat_vec(l.t[i], phi[j][k]))
        out = vec_sub(out, tuple(sum((base.c[j][k][p] * phi[i][p][q] for p in range(n)),
                                     Fraction(0)) for q in range(n)))
        return out

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                res = vec_sub(cocycle(i, j, k), cocycle(j, i, k))
                if not vec_is_zero(res):
                    viol.append(Violation("phi-cocycle", (i, j, k), res))

    rep = merge_reports("affine-cotangent-extension", [pair_rep], viol)
    return product, rep


def post_affine_check(nabla, nabla_tilde, br):
    """Whether nabla is a post-connection for nabla_tilde over br: both flat
    and torsion free, and nabla_x(D(y,z)) = D(z, nabla_tilde_x y) +
    D(y, nabla_tilde_x z) with D = nabla_tilde - nabla on all basis triples.

    The same content phrased through check_plsa on (D, nabla) is computed
    as a second route and the agreement of the two routes is noted.
    """
    if not (nabla.n == nabla_tilde.n == br.n):
        raise DimensionMismatch("dimensions %d, %d, %d"
                                % (nabla.n, nabla_tilde.n, br.n))
    n = br.n
    parts = [relabel(check_torsion_free(br, nabla), "torsion-free(nabla)"),
             relabel(check_flat(br, nabla), "flat(nabla)"),
             relabel(check_torsion_free(br, nabla_tilde), "torsion-free(nabla-tilde)"),
             relabel(check_flat(br, nabla_tilde), "flat(nabla-tilde)")]
    D = op_sub(nabla_tilde, nabla)
    viol = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = op_apply(nabla, basis_vec(n, i), D.c[j][k])
                rhs = vec_add(op_apply(D, basis_vec(n, k), nabla_tilde.c[i][j]),
                              op_apply(D, basis_vec(n, j), nabla_tilde.c[i][k]))
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    viol.append(Violation("post-connection", (i, j, k), res))
    identity_ok = not viol
    pair_rep = check_plsa(D, nabla)
    notes = []
    flats_ok = all(p.verdict for p in parts)
    if flats_ok and identity_ok != pair_rep.verdict:
        notes.append("ALERT: direct identity (%s) disagrees with the product-pair "
                     "route (%s) on flat torsion-free input; report a bug"
                     % ("pass" if identity_ok else "fail",
                        "pass" if pair_rep.verdict else "fail"))
    else:
        notes.append("product-pair route agrees: %s"
                     % ("pass" if pair_rep.verdict else "fail"))
    return merge_reports("post-affine", parts, viol, notes)
