"""Constructions on verified structures: dual actions, the glued product on
a sum of two spaces, semidirect products, tangent and cotangent doubles of a
flat symplectic connection, the three parameter families of anticommuting
(J, E) pairs, product-pair extraction, and the affine cotangent extension.

glue_product is the one builder of a product on a sum of two spaces: two
products on the diagonal blocks and four actions on the mixed ones.  The
semidirect bracket, the doubled connection, the affine cotangent product and
matched's double products and double extension are all glued through it.

Every constructor validates its preconditions with the verifiers from
checks and refuses bad input with a typed error, so downstream code can
rely on the returned data without re-checking.

A family of (J, E) pairs lives on one fixed double of a package, so what
depends on the package alone is built once per package object and kept on
it (linalg._once, whose module docstring gives the one account): its
tangent and cotangent doubles, the identity gluing map of the tangent
double, the form's map phi_from_omega (kept on the form), and each gluing
map's inverse (kept on the map).  A sweep over the family parameters then
builds only J and E at each point, and the checks it runs on the double
find their reports kept on the double's bracket and metric.

lsa_from_symplectic and plsa_from_special_symplectic contract their input
on the exact integer kernel of linalg (Packed) and list its decoded rows;
the identities that post_affine_check and affine_cotangent_extension
evaluate on basis tuples are sparse identities declared as signed terms and
evaluated by checks._scatter, except affine_cotangent_extension's two linear
ones, l-is-dual-left-action and phi-symmetry, which are the entries of a sum
of nonzero lists (_nonzeros_sum) that checks.mat_violations collects.  The
dual actions and glue_product build their nonzero lists from their inputs'
(checks._permuted, _rebucket).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import (
    DimensionMismatch,
    InternalMismatch,
    _once,
    rational_sqrt,
    scaled_blocks,
    scaled_combine,
    scaled_equal,
    scaled_inverse,
    scaled_leg,
    scaled_permute,
)
from .checks import (
    Endo,
    Form,
    RepTensor,
    StructureTensor,
    _fits,
    _negated,
    _nonzeros,
    _nonzeros_sum,
    _permuted,
    _rebucket,
    _sparse_violations,
    anticommute_violations,
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
    mat_violations,
    merge_reports,
    op_sub,
    relabel,
    rep_from_op_left,
    rep_neg,
    rep_zero,
    require,
    require_dims,
    square_violations,
    st,
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
class MatchedPairData:
    A1: StructureTensor
    A2: StructureTensor
    l1: RepTensor  # A1 acting on A2's space
    r1: RepTensor
    l2: RepTensor  # A2 acting on A1's space
    r2: RepTensor


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
    multiplication by x, so that <x.a*, y> = -<a*, x o y> on all triples:
    t[i][j][k] = -c[i][j][k].
    """
    return RepTensor.listed(op.n, op.n, _negated(op))


def dual_right_action(op):
    """Right multiplications on the dual: <x.a*, y> = -<a*, y o x>, so
    t[i][a][b] = -c[a][i][b]."""
    return RepTensor.listed(op.n, op.n, _permuted(op.nonzeros, op.shape, (1, 0, 2), -1))


def coadjoint(br):
    """Bracket action on the dual: <x.a*, y> = -<a*, [x,y]>."""
    return dual_left_action(br)


# ---------------------------------------------------------------------------
# products on a sum of two spaces

def glue_product(mp):
    """The bowtie product on the sum of mp's two spaces, without the
    matched-pair check:

        (x+a)(y+b) = (x.y + l2(a)y + r2(b)x) + (a.b + l1(x)b + r1(y)a).
    """
    n, m = mp.A1.n, mp.A2.n
    # (tensor, legs, at) for _rebucket: e_i . f_b is column i of r2(f_b) plus
    # column b of l1(e_i), f_a . e_j alike; in a row the columns ascend
    blocks = ((mp.A1, (0, 1, 2), (0, 0, 0)), (mp.r2, (2, 0, 1), (0, n, 0)),
              (mp.l1, (0, 2, 1), (0, n, n)), (mp.l2, (0, 2, 1), (n, 0, 0)),
              (mp.r1, (2, 0, 1), (n, 0, n)), (mp.A2, (0, 1, 2), (n, n, n)))
    den = lcm(*(t.nonzeros[0] for t, _, _ in blocks))
    nz = [[[] for _ in range(n + m)] for _ in range(n + m)]
    for t, legs, at in blocks:
        _rebucket(nz, t.nonzeros[1], legs, den // t.nonzeros[0], at)
    return StructureTensor.listed(n + m, (den, nz))


def _antidiagonal_form(n, upper, lower):
    """The form [[0, upper], [lower, 0]] on the sum of two n-dimensional
    spaces, for blocks (q, M) as linalg.scaled_blocks takes them."""
    return Form.listed(2 * n, scaled_blocks(n, (((0, None), upper), (lower, (0, None)))))


def canonical_skew_pairing(n):
    """omega_p on A + A*: -<x,b*> + <a*,y> in block form [[0,-I],[I,0]]."""
    return _antidiagonal_form(n, (-1, None), (1, None))


# ---------------------------------------------------------------------------
# semidirect products and doubles

def semidirect_lie(br, rho):
    """Bracket on the sum of br's space and rho's module:
    [(x,u),(y,v)] = ([x,y], rho(x)v - rho(y)u)."""
    require(check_jacobi(br), NotARepresentation, "bracket fails the Lie axioms (%s) at %s")
    require(check_representation(br, rho), NotARepresentation, "action is not a %s at %s")
    return _semidirect_bracket(br, rho)


def _semidirect_bracket(br, rho):
    """semidirect_lie for a bracket and representation already verified."""
    zero = rep_zero(rho.m, br.n)
    return glue_product(MatchedPairData(br, st(rho.m), rho, rep_neg(rho), zero, zero))


def _double(br, conn, rho, metric, omega_p):
    """The double on the sum of br's space and rho's module: the semidirect
    bracket, and the connection sending ((x,u),(y,v)) to (conn_x y, rho(x)v)."""
    n, m = br.n, rho.m
    zero = rep_zero(m, n)
    conn2 = glue_product(MatchedPairData(conn, st(m), rho, rep_zero(n, m), zero, zero))
    return DoubleData(_semidirect_bracket(br, rho), conn2, metric, omega_p,
                      ((0, n), (n, n + m)))


def _require_special_symplectic(s):
    require(check_special_symplectic(s.bracket, s.conn, s.omega), InvalidInput,
            "not special symplectic: %s at %s")


def tangent_double(s):
    """Double on A + A with the connection acting on the second copy.

    Bracket [(x,u),(y,v)] = ([x,y], conn_x v - conn_y u); the doubled
    connection sends ((x,z),(y,w)) to (conn_x y, conn_x w); the metric pairs
    the two copies through omega.  Built once per package object
    (linalg._once): a repeat call with s returns the same object.
    """
    _require_special_symplectic(s)  # Jacobi, and flatness: rho is a representation
    w = s.omega
    return _once(s, "tangent-double", (), lambda: _double(
        s.bracket, s.conn, rep_from_op_left(s.conn),
        _antidiagonal_form(w.n, (1, w.scaled), (1, w.scaled_t)), None))


def _cotangent_core(br, conn):
    # every caller has verified Jacobi and flatness, so the dual action is a
    # representation
    return _double(br, conn, dual_left_action(conn),
                   _antidiagonal_form(br.n, (1, None), (1, None)), canonical_skew_pairing(br.n))


def cotangent_double(s):
    """Double on A + A* with the dual action of the connection.

    Bracket second component is the dual action commutator; the doubled
    connection sends ((x,a*),(y,b*)) to (conn_x y, x acting on b* dually);
    the metric is the canonical pairing and omega_p the canonical skew
    pairing of A with A*.  Built once per package object (linalg._once): a
    repeat call with s returns the same object.
    """
    _require_special_symplectic(s)
    return _once(s, "cotangent-double", (), lambda: _cotangent_core(s.bracket, s.conn))


def cotangent_double_from_connection(br, conn):
    """Relaxed entry point: only a flat torsion-free connection is needed,
    no symplectic form on the base; omega_p is produced on the double."""
    for rep in (check_jacobi(br), check_torsion_free(br, conn), check_flat(br, conn)):
        require(rep, InvalidInput, "%s fails at %s")
    return _cotangent_core(br, conn)


# ---------------------------------------------------------------------------
# the (J, E) families

def _require_nondegenerate(w):
    """DegenerateForm naming the rank of w unless w is nondegenerate; the
    rank is read off check_nondegenerate's residual n - rank."""
    rep = check_nondegenerate(w)
    if not rep.verdict:
        raise DegenerateForm("form has rank %d < %d"
                             % (w.n - int(rep.violations[0].residual), w.n))


def phi_from_omega(w):
    """Matrix of x -> w(x, .) as a map into the dual basis; invertible.
    Built once per form object (linalg._once): a repeat call with w returns
    the same object."""
    _require_nondegenerate(w)
    return _once(w, "phi", (), lambda: Endo.listed(w.n, w.scaled_t))


def build_N(l1, l2, l3, l4, f, finv):
    """Block operator [[l2*I, l1*f^-1], [l3*f, l4*I]] on V + V, for the
    Endo f and the Scaled finv = scaled_inverse(f.scaled), which family_JE
    computes once per f (linalg._once) for all the operators it builds over
    f; stored as the int rows of linalg.scaled_blocks."""
    return Endo.listed(2 * f.n, scaled_blocks(f.n, (((l2, None), (l1, finv)),
                                                   ((l3, f.scaled), (l4, None)))))


def family_JE(p, f):
    """The anticommuting pair (J, E) of family p over the gluing map f.

    J is the same for all three families; E varies.  The defining algebra
    (J squares to minus the identity, E squares to the identity, JE = -EJ)
    is re-verified on the built matrices before returning.
    """
    lam, mu, sg = Fraction(p.lam), Fraction(p.mu), p.sign
    if sg not in (1, -1):
        raise BadParams("sign must be +1 or -1, got %r" % (p.sign,))
    if lam == 0:
        raise BadParams("lambda must be nonzero")
    finv = _once(f, "inverse", (), lambda: scaled_inverse(f.scaled))
    J = build_N(lam, mu, (-1 - mu * mu) / lam, -mu, f, finv)
    if p.family == "F1":
        E = build_N(0, sg, -2 * sg * mu / lam, -sg, f, finv)
    elif p.family == "F2":
        if mu == 0:
            raise BadParams("family F2 needs mu nonzero")
        khat = 2 * mu * lam / (1 + mu * mu)
        E = build_N(sg * khat, sg, 0, -sg, f, finv)
    elif p.family == "F3":
        if p.k is None:
            raise BadParams("family F3 needs the parameter k")
        k = Fraction(p.k)
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
        E = build_N(k, e2, (1 - e2 * e2) / k, -e2, f, finv)
    else:
        raise BadParams("unknown family %r" % (p.family,))
    if square_violations("J^2+id", J, -1):
        raise InternalMismatch("built J does not square to -id")
    if square_violations("E^2-id", E, 1):
        raise InternalMismatch("built E does not square to id")
    if anticommute_violations("JE+EJ", J, E):
        raise InternalMismatch("J and E do not anticommute")
    return J, E


def hypersymplectic_from_tangent(s, p):
    """Hypersymplectic package (double, J, E, metric) on the tangent double,
    gluing the two copies with the identity map, kept on s (linalg._once)."""
    d = tangent_double(s)
    n = s.bracket.n
    J, E = family_JE(p, _once(s, "identity", (),
                              lambda: Endo.listed(n, scaled_blocks(n, (((1, None),),)))))
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
        require(rep, InvalidInput, "%s fails at %s")
    _require_nondegenerate(w)
    # w(e_i . e_k, e_j) = w([e_i, e_j], e_k) for each j, solved through (w^T)^-1
    conn = _unpacked(br.n, _through_form(scaled_inverse(w.scaled_t), w.scaled_t, br.scaled))
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
    reproduce the connection exactly, compared on the Packed forms
    (linalg.scaled_equal).
    """
    _require_special_symplectic(s)
    n = s.bracket.n
    phinv = scaled_inverse(s.omega.scaled_t)

    def split(op):  # w(e_i o e_j, e_k) = w(e_j, op(e_k, e_i)) for each k, solved as above
        return _through_form(phinv, s.omega.scaled, scaled_permute(op.scaled, (1, 0, 2)))

    P, S = scaled_combine(((-1, split(s.conn)),)), split(s.bracket)
    prec, succ = _unpacked(n, P), _unpacked(n, S)
    if not scaled_equal(scaled_combine(((1, P), (1, S))), s.conn.scaled):
        raise InternalMismatch("parts do not sum back to the connection")
    if not check_plsa(prec, succ).verdict:
        raise InternalMismatch("derived pair fails the product-pair axioms")
    return prec, succ


def _unpacked(n, t):
    """The StructureTensor of the Packed t, listed off its decoded rows."""
    return StructureTensor.listed(n, (t.den, _nonzeros(t.decoded)[1]))


def _through_form(phinv, m, t):
    """out[i][j][l] = sum_k phinv[l][k] sum_b m[j][b] t[i][k][b], for Scaled
    matrices phinv and m and a Packed rank-3 t: row (i, j) of out is phinv
    applied to the vector of the sums over b."""
    v = scaled_leg(m, t, 2)  # v[i][k][j]
    return scaled_permute(scaled_leg(phinv, v, 1), (0, 2, 1))


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
    be symmetric in x and y).  The first and the last two are evaluated on
    nonzero lists, so no dense view is read.  Unless l and r are n x n x n
    actions for the base's n and phi is n x n x n, DimensionMismatch is
    raised before any work.
    """
    base, l, r, phi = d.base, d.l, d.r, d.phi
    n = base.n
    if not (all(a.n == a.m == n and _fits(a, n, n) for a in (l, r)) and len(phi) == n
            and all(len(p) == n and all(len(row) == n for row in p) for p in phi)):
        raise DimensionMismatch("l, r and phi of a %d-dim base must be %d x %d x %d"
                                % (n, n, n, n))
    require(check_left_symmetric(base), NotAnLSA, "base product is not %s at %s")
    g = glue_product(MatchedPairData(base, st(n), l, r, rep_zero(n), rep_zero(n)))
    Phi = StructureTensor(n, phi)
    # phi(x, y) is the A* part of x.y, where g has none
    shifted = [[[] for _ in range(2 * n)] for _ in range(2 * n)]
    _rebucket(shifted, Phi.nonzeros[1], (0, 1, 2), 1, (0, 0, n))
    ext = StructureTensor.listed(2 * n, _nonzeros_sum(g.nonzeros, (Phi.nonzeros[0], shifted)))

    # l(e_i) minus the dual left action -c[i] of e_i
    viol = mat_violations("l-is-dual-left-action", _nonzeros_sum(l.nonzeros, base.nonzeros))

    prec = StructureTensor.listed(n, _negated(r))
    succ = op_sub(base, prec)
    pair_rep = check_plsa(prec, succ)

    # phi[i][j][k] - phi[i][k][j] on j < k: phi's list minus its (0, 2, 1) permutation
    den, nz = _nonzeros_sum(Phi.nonzeros, _permuted(Phi.nonzeros, Phi.shape, (0, 2, 1), -1))
    upper = [[[(k, x) for k, x in row if j < k] for j, row in enumerate(p)] for p in nz]
    viol += mat_violations("phi-symmetry", (den, upper))

    # the defect at (e_i, e_j, e_k) minus the defect at (e_j, e_i, e_k), on i < j
    viol += _sparse_violations("ijk", dict.fromkeys("ijkt", n), [("phi-cocycle", "ij", (
        (1, Phi, "ijs", r, "kts"), (1, base, "ijs", Phi, "skt"),
        (-1, Phi, "jks", l, "its"), (-1, base, "jks", Phi, "ist"),
        (-1, Phi, "jis", r, "kts"), (-1, base, "jis", Phi, "skt"),
        (1, Phi, "iks", l, "jts"), (1, base, "iks", Phi, "jst")))])

    rep = merge_reports("affine-cotangent-extension", [pair_rep], viol)
    return ext, rep


def post_affine_check(nabla, nabla_tilde, br):
    """Whether nabla is a post-connection for nabla_tilde over the Lie
    bracket br: br satisfies Jacobi, both connections are flat and torsion
    free, and nabla_x(D(y,z)) = D(z, nabla_tilde_x y) +
    D(y, nabla_tilde_x z) with D = nabla_tilde - nabla on all basis triples.

    The same content phrased through check_plsa on (D, nabla) is computed
    as a second route, and a note gives the two verdicts, or the one they
    agree on.  When all five sub-reports pass they must agree: the two
    torsion-freeness checks make D commutative and flatness makes nabla
    left-symmetric, so both routes state the same identity.  A disagreement
    there raises InternalMismatch; elsewhere it is a note, since a failing
    flatness or torsion-freeness leaves the two routes free to differ.
    """
    require_dims("dimensions %d, %d, %d", nabla, nabla_tilde, br)
    n = br.n
    parts = [check_jacobi(br),
             relabel(check_torsion_free(br, nabla), "torsion-free(nabla)"),
             relabel(check_flat(br, nabla), "flat(nabla)"),
             relabel(check_torsion_free(br, nabla_tilde), "torsion-free(nabla-tilde)"),
             relabel(check_flat(br, nabla_tilde), "flat(nabla-tilde)")]
    D = op_sub(nabla_tilde, nabla)
    # nabla(e_i, D(e_j, e_k)) - D(e_k, nabla-tilde(e_i, e_j)) - D(e_j, nabla-tilde(e_i, e_k))
    viol = _sparse_violations("ijk", dict.fromkeys("ijkt", n), [("post-connection", "", (
        (1, D, "jks", nabla, "ist"), (-1, nabla_tilde, "ijs", D, "kst"),
        (-1, nabla_tilde, "iks", D, "jst")))])
    words = "pass" if not viol else "fail", "pass" if check_plsa(D, nabla).verdict else "fail"
    if words[0] == words[1]:
        note = "product-pair route agrees: %s" % words[1]
    elif all(p.verdict for p in parts):
        raise InternalMismatch("direct identity (%s) disagrees with the product-pair "
                               "route (%s) on flat torsion-free input" % words)
    else:
        note = "direct identity (%s) and product-pair route (%s) disagree" % words
    return merge_reports("post-affine", parts, viol, [note])
