"""Structure-constant data model and pointwise axiom verifiers.

An n-dimensional bilinear operation is a StructureTensor: c[i][j][k] is the
e_k coefficient of e_i o e_j.  Forms, endomorphisms and representations are
matrices over Fraction.  Every verifier returns a CheckReport listing each
violating basis tuple with its exact residual, so a failing check pinpoints
the offending structure constants.  One collector, violations, lists the
nonzero residuals of either route below over the basis tuples it is given;
mat_violations lists them from a residual tensor of any rank, and require
turns a failing report into the caller's typed error.

Every identity on basis tuples takes one of two routes.  check_closed,
check_parallel_form and nijenhuis_torsion contract the whole input once on
the exact integer kernel of linalg (Scaled) and read each tuple's residual
off the result.  check_plsa, check_left_symmetric, check_jacobi,
check_bimodule, check_flat and check_representation evaluate sparse sums
over the nonzero structure constants (and action entries) in plain Fraction
(_residual); the first four stay off Scaled because they are the
independent cross-check routes.  The matrix identities (N^2 = +-id,
JE = -EJ, N^T B N = +-B) and three_forms contract on the kernel through one
helper, _mat_chain; the remaining verifiers compare entries directly.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from .linalg import (
    DimensionMismatch,
    Scaled,
    mat_identity,
    mat_rank,
    mat_transpose,
    mat_zero,
    scaled,
    scaled_combine,
    scaled_leg,
    t3_add,
    t3_neg,
    t3_sub,
    unscaled,
    vec_add,
    vec_sub,
)


@dataclass(frozen=True)
class StructureTensor:
    n: int
    c: tuple  # c[i][j][k]: e_i o e_j = sum_k c[i][j][k] e_k


@dataclass(frozen=True)
class Form:
    n: int
    m: tuple  # m[i][j] = B(e_i, e_j)


@dataclass(frozen=True)
class Endo:
    n: int
    m: tuple  # acts on column coordinates


@dataclass(frozen=True)
class RepTensor:
    n: int  # acting algebra dimension
    m: int  # module dimension
    t: tuple  # t[i] = the m x m matrix of rho(e_i)


@dataclass(frozen=True)
class Violation:
    where: str
    indices: tuple  # 0-based basis indices
    residual: object  # Fraction, or tuple of Fractions


@dataclass(frozen=True)
class CheckReport:
    check: str
    verdict: bool
    violations: tuple
    notes: tuple = field(default=())


def report(check, viol, notes=()):
    viol = tuple(viol)
    return CheckReport(check, not viol, viol, tuple(notes))


def require(rep, error, fmt):
    """Raise error(fmt % (where, indices)) of the first violation when rep
    fails, else return rep.  An explicit raise, so it runs under python -O."""
    if not rep.verdict:
        v = rep.violations[0]
        raise error(fmt % (v.where, v.indices))
    return rep


def relabel(rep, name):
    """The report rep under another check name."""
    return CheckReport(name, rep.verdict, rep.violations, rep.notes)


def merge_reports(check, parts, extra_violations=(), notes=()):
    """Combine sub-reports, prefixing each violation with its sub-check name."""
    viol = list(extra_violations)
    all_notes = list(notes)
    for sub in parts:
        for v in sub.violations:
            viol.append(Violation("%s: %s" % (sub.check, v.where) if v.where else sub.check,
                                  v.indices, v.residual))
        all_notes.extend("%s: %s" % (sub.check, note) for note in sub.notes)
    return report(check, viol, all_notes)


# ---------------------------------------------------------------------------
# small helpers on the domain types

def st(n, entries=None):
    """StructureTensor from {(i,j,k): coefficient} (0-based), default zero."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), q in (entries or {}).items():
        c[i][j][k] = Fraction(q)
    return StructureTensor(n, tuple(tuple(tuple(row) for row in plane) for plane in c))


def op_add(a, b):
    if a.n != b.n:
        raise DimensionMismatch("operations on dimensions %d and %d" % (a.n, b.n))
    return StructureTensor(a.n, t3_add(a.c, b.c))


def op_sub(a, b):
    if a.n != b.n:
        raise DimensionMismatch("operations on dimensions %d and %d" % (a.n, b.n))
    return StructureTensor(a.n, t3_sub(a.c, b.c))


def op_swap_args(a):
    n = a.n
    return StructureTensor(n, tuple(tuple(a.c[j][i] for j in range(n)) for i in range(n)))


def sub_adjacent(op):
    """The commutator bracket [x,y] = x o y - y o x."""
    return op_sub(op, op_swap_args(op))


def rep_from_op_left(op):
    """Left multiplications of op packaged as a representation tensor: the
    matrix of e_i is t[i][k][j] = c[i][j][k] on column coordinates."""
    return RepTensor(op.n, op.n, tuple(mat_transpose(plane) for plane in op.c))


def rep_neg(rep):
    return RepTensor(rep.n, rep.m, t3_neg(rep.t))


def rep_zero(n, m=None):
    if m is None:
        m = n
    return RepTensor(n, m, tuple(mat_zero(m) for _ in range(n)))


# ---------------------------------------------------------------------------
# verifiers

def check_skew(B):
    m = B.m
    return report("skew", violations("skew", combinations_with_replacement(range(B.n), 2),
                                     lambda i, j: m[i][j] + m[j][i]))


def check_nondegenerate(B):
    r = mat_rank(B.m)
    viol = []
    if r != B.n:
        viol.append(Violation("rank", (), Fraction(B.n - r)))
    return report("nondegenerate", viol)


def _nonzeros(t):
    """nz[i][j] = [(k, t[i][j][k]) for each nonzero entry] of a rank-3 tensor."""
    return [[[(k, q) for k, q in enumerate(row) if q] for row in plane]
            for plane in t]


def _residual(n, terms):
    """The vector sum of sign * q * p * e_t over the (outer, rows, sign)
    terms, with (s, q) in outer and (t, p) in rows[s]."""
    acc = [Fraction(0)] * n
    for outer, rows, sign in terms:
        for s, q in outer:
            for t, p in rows[s]:
                acc[t] = acc[t] + q * p if sign > 0 else acc[t] - q * p
    return tuple(acc)


def check_jacobi(br):
    n, c = br.n, br.c
    viol = violations("antisymmetry", combinations_with_replacement(range(n), 2),
                      lambda i, j: vec_add(c[i][j], c[j][i]))
    nz = _nonzeros(c)
    col = list(zip(*nz))  # col[k][s] = nz[s][k]
    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    viol += violations("jacobi", combinations(range(n), 3), lambda i, j, k: _residual(
        n, ((nz[i][j], col[k], 1), (nz[j][k], col[i], 1), (nz[k][i], col[j], 1))))
    return report("jacobi", viol)


def check_left_symmetric(op):
    # the defect is antisymmetric under swapping the first two arguments,
    # so i < j covers everything
    n = op.n
    nz = _nonzeros(op.c)
    col = list(zip(*nz))
    # (e_i e_j) e_k - e_i (e_j e_k) - (e_j e_i) e_k + e_j (e_i e_k)
    return report("left-symmetric", violations(
        "left-symmetric", pairs_then(n, n), lambda i, j, k: _residual(
            n, ((nz[i][j], col[k], 1), (nz[j][k], nz[i], -1),
                (nz[j][i], col[k], -1), (nz[i][k], nz[j], 1)))))


def check_commutative(op):
    c = op.c
    return report("commutative", violations("commutative", combinations(range(op.n), 2),
                                            lambda i, j: vec_sub(c[i][j], c[j][i])))


def check_plsa(prec, succ):
    """Commutative prec, left-symmetric succ, and the mixed compatibility
    x succ (y prec z) = (x.y) prec z + y prec (x.z) with . = prec + succ.

    The sum product is an LSA exactly when succ is (given the rest), so its
    left-symmetry is re-verified and the agreement of the two left-symmetry
    checks is recorded as a note.
    """
    if prec.n != succ.n:
        raise DimensionMismatch("prec dim %d, succ dim %d" % (prec.n, succ.n))
    n = prec.n
    total = op_add(prec, succ)
    comm = check_commutative(prec)
    lsymm = check_left_symmetric(succ)
    nzp, nzs, nzt = _nonzeros(prec.c), _nonzeros(succ.c), _nonzeros(total.c)
    colp = list(zip(*nzp))
    # e_i succ (e_j prec e_k) - (e_i . e_j) prec e_k - e_j prec (e_i . e_k)
    viol = violations("compatibility", product(range(n), repeat=3), lambda i, j, k: _residual(
        n, ((nzp[j][k], nzs[i], 1), (nzt[i][j], colp[k], -1), (nzt[i][k], nzp[j], -1))))
    sum_ls = check_left_symmetric(total)
    notes = []
    if sum_ls.verdict == lsymm.verdict:
        notes.append("sum-product left-symmetry agrees with succ left-symmetry (%s)"
                     % ("pass" if sum_ls.verdict else "fail"))
    else:
        notes.append("ALERT: sum-product left-symmetry (%s) disagrees with succ "
                     "left-symmetry (%s)"
                     % ("pass" if sum_ls.verdict else "fail",
                        "pass" if lsymm.verdict else "fail"))
        if comm.verdict and not viol:
            notes.append("ALERT: disagreement despite commutativity and compatibility "
                         "holding; this indicates a verifier bug")
    return merge_reports("plsa", [comm, lsymm], viol, notes)


def check_torsion_free(br, conn):
    if br.n != conn.n:
        raise DimensionMismatch("bracket dim %d, connection dim %d" % (br.n, conn.n))
    c, b = conn.c, br.c
    return report("torsion-free", violations(
        "torsion-free", combinations(range(br.n), 2),
        lambda i, j: vec_sub(vec_sub(c[i][j], c[j][i]), b[i][j])))


def check_flat(br, conn):
    """Curvature (L(x)L(y) - L(y)L(x) - L([x,y])) vanishes, L = left mult of conn."""
    if br.n != conn.n:
        raise DimensionMismatch("bracket dim %d, connection dim %d" % (br.n, conn.n))
    n = br.n
    nz, nzb = _nonzeros(conn.c), _nonzeros(br.c)
    col = list(zip(*nz))  # col[k][s] = nz[s][k]
    # e_i (e_j e_k) - e_j (e_i e_k) - [e_i, e_j] e_k
    return report("flat", violations("flat", pairs_then(n, n), lambda i, j, k: _residual(
        n, ((nz[j][k], nz[i], 1), (nz[i][k], nz[j], -1), (nzb[i][j], col[k], -1)))))


def check_closed(br, w):
    """dw(e_i, e_j, e_k) = w(e_i, [e_j, e_k]) + w(e_j, [e_k, e_i])
    + w(e_k, [e_i, e_j]) vanishes on all triples i < j < k."""
    if br.n != w.n:
        raise DimensionMismatch("bracket dim %d, form dim %d" % (br.n, w.n))
    n = br.n
    # T[a][b][c] = sum_s w[c][s] br[a][b][s] = w(e_c, [e_a, e_b])
    T, den = scaled_leg(scaled(w.m), scaled(br.c), 2)
    return report("closed", violations(
        "closed", combinations(range(n), 3),
        lambda i, j, k: T[j][k][i] + T[k][i][j] + T[i][j][k], den))


def check_parallel_form(conn, w):
    """w(conn_x y, z) = w(conn_x z, y) on all basis triples."""
    if conn.n != w.n:
        raise DimensionMismatch("connection dim %d, form dim %d" % (conn.n, w.n))
    n = conn.n
    # P[i][j][k] = sum_a w[a][k] conn[i][j][a] = w(conn_i e_j, e_k)
    P, den = scaled_leg(scaled(mat_transpose(w.m)), scaled(conn.c), 2)
    return report("parallel-form", violations(
        "parallel", ((i, j, k) for i in range(n) for j, k in combinations(range(n), 2)),
        lambda i, j, k: P[i][j][k] - P[i][k][j], den))


def check_special_symplectic(br, conn, w):
    """Flat torsion-free connection plus a parallel nondegenerate skew form.

    Closedness of the form follows from the other conditions, so it is
    evaluated as a consistency probe: if it fails while skewness,
    torsion-freeness and parallelism all pass, that is flagged loudly, since
    it can only mean a verifier bug.
    """
    if not (br.n == conn.n == w.n):
        raise DimensionMismatch("dimensions %d, %d, %d" % (br.n, conn.n, w.n))
    parts = [check_jacobi(br), check_torsion_free(br, conn), check_flat(br, conn),
             check_skew(w), check_nondegenerate(w), check_parallel_form(conn, w)]
    closed = check_closed(br, w)
    notes = []
    extra = []
    if not closed.verdict:
        skew_ok = parts[3].verdict
        tf_ok = parts[1].verdict
        par_ok = parts[5].verdict
        if skew_ok and tf_ok and par_ok:
            notes.append("ALERT: form is parallel for a torsion-free connection yet "
                         "not closed; mathematically impossible, report a bug")
            extra = [Violation("closed (consequence): %s" % v.where, v.indices, v.residual)
                     for v in closed.violations]
    return merge_reports("special-symplectic", parts, extra, notes)


def nijenhuis_torsion(br, N):
    """T(N)(x,y) = [Nx,Ny] + N^2[x,y] - N([Nx,y] + [x,Ny]) as a StructureTensor."""
    if br.n != N.n:
        raise DimensionMismatch("bracket dim %d, endomorphism dim %d" % (br.n, N.n))
    C = scaled(br.c)
    M = scaled(N.m)
    Mt = scaled(mat_transpose(N.m))
    A = scaled_leg(Mt, C, 0)  # A[i][j] = [Ne_i, e_j]
    B = scaled_leg(Mt, C, 1)  # B[i][j] = [e_i, Ne_j]
    T = scaled_combine([(1, scaled_leg(Mt, A, 1)),
                        (1, scaled_leg(M, scaled_leg(M, C, 2), 2)),
                        (-1, scaled_leg(M, scaled_combine([(1, A), (1, B)]), 2))])
    return StructureTensor(br.n, unscaled(T))


def violations(where, tuples, residual, den=None):
    """A violation at each index tuple idx of tuples, in the order given,
    whose residual r = residual(*idx) is nonzero: a scalar other than 0, or
    a tuple with a nonzero entry.  With den, each r is an int numerator
    read off a Scaled and is stored as Fraction(r, den)."""
    out = []
    for idx in tuples:
        r = residual(*idx)
        if (any(r) if isinstance(r, tuple) else r != 0):
            out.append(Violation(where, idx, r if den is None else Fraction(r, den)))
    return out


def pairs_then(n, m):
    """(i, j, k) for each i < j < n, then each k < m."""
    return ((i, j, k) for i, j in combinations(range(n), 2) for k in range(m))


def mat_violations(where, t, at=()):
    """A violation at indices at + index for each nonzero scalar of the
    nested tuples or lists t, in row-major order.  For a Scaled t each
    residual is the Fraction of a nonzero numerator over t.den."""
    if isinstance(t, Scaled):
        return [Violation(where, idx, Fraction(x, t.den))
                for idx, x in _nonzero_entries(t.num, at)]
    return [Violation(where, idx, x) for idx, x in _nonzero_entries(t, at)]


def _nonzero_entries(t, at):
    for i, x in enumerate(t):
        if isinstance(x, (tuple, list)):
            yield from _nonzero_entries(x, at + (i,))
        elif x != 0:
            yield at + (i,), x


# ---------------------------------------------------------------------------
# identities of a complex structure J, a product structure E and a form,
# shared by check_complex_product, check_metric_compatible,
# bialgebra.check_parakahler and the self-check of constructions.family_JE

def _minus_scalar(m, q):
    """m - q id, as lists."""
    return [[x - q if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]


def _mat_chain(terms):
    """sum k * M1 M2 ... over the (k, (M1, M2, ...)) terms of square Fraction
    matrices, as a one-plane Scaled tensor: the last matrix of each term is
    the plane, and the others act on it in turn through leg 1."""
    parts = []
    for k, mats in terms:
        last = scaled(mats[-1])
        t = Scaled([last.num], last.den)
        for m in reversed(mats[:-1]):
            t = scaled_leg(scaled(m), t, 1)
        parts.append((k, t))
    return scaled_combine(parts)


def square_violations(where, N, sign):
    """N^2 = sign * id: sign -1 for a complex structure, +1 for a product
    structure."""
    res = _mat_chain(((1, (N.m, N.m)), (-sign, (mat_identity(N.n),))))
    return mat_violations(where, res.plane(0))


def anticommute_violations(where, J, E):
    """JE = -EJ."""
    return mat_violations(where, _mat_chain(((1, (J.m, E.m)), (1, (E.m, J.m)))).plane(0))


def congruence_violations(where, B, N, sign):
    """N^T B N = sign * B for the form B and the endomorphism N."""
    res = _mat_chain(((1, (mat_transpose(N.m), B.m, N.m)), (-sign, (B.m,))))
    return mat_violations(where, res.plane(0))


def torsion_violations(where, br, N):
    """The Nijenhuis torsion of N vanishes, on basis pairs i < j."""
    T = nijenhuis_torsion(br, N).c
    return violations(where, combinations(range(br.n), 2), lambda i, j: T[i][j])


def eigenspace_violations(E):
    """The +1 and -1 eigenspaces of E have equal dimension."""
    dplus = E.n - mat_rank(_minus_scalar(E.m, 1))
    dminus = E.n - mat_rank(_minus_scalar(E.m, -1))
    if dplus == dminus:
        return []
    return [Violation("eigenspace-dims", (), Fraction(dplus - dminus))]


def check_complex_product(br, J, E):
    """J^2 = -id, E^2 = id (E not +-id), JE = -EJ, both torsion-free, and the
    two eigenspaces of E have equal dimension."""
    if not (br.n == J.n == E.n):
        raise DimensionMismatch("dimensions %d, %d, %d" % (br.n, J.n, E.n))
    viol = square_violations("J^2+id", J, -1) + square_violations("E^2-id", E, 1)
    for q in (1, -1):
        if not any(map(any, _minus_scalar(E.m, q))):  # E = q id
            viol.append(Violation("E-is-scalar", (), Fraction(q)))
            break
    viol += anticommute_violations("JE+EJ", J, E)
    viol += torsion_violations("torsion-J", br, J) + torsion_violations("torsion-E", br, E)
    viol += eigenspace_violations(E)
    return report("complex-product", viol)


def check_metric_compatible(g, J, E):
    """g symmetric nondegenerate with g(Jx,Jy)=g(x,y) and g(Ex,Ey)=-g(x,y)."""
    if not (g.n == J.n == E.n):
        raise DimensionMismatch("dimensions %d, %d, %d" % (g.n, J.n, E.n))
    m = g.m
    viol = violations("symmetric", combinations(range(g.n), 2), lambda i, j: m[i][j] - m[j][i])
    viol += check_nondegenerate(g).violations
    viol += congruence_violations("J-invariance", g, J, 1)
    viol += congruence_violations("E-anti-invariance", g, E, -1)
    return report("metric-compatible", viol)


def three_forms(g, J, E):
    """The forms w1 = g(J.,.), w2 = g(E.,.), w3 = g(JE.,.) as Form values:
    J^T g, E^T g and (JE)^T g = E^T J^T g."""
    Jt, Et = mat_transpose(J.m), mat_transpose(E.m)
    return tuple(Form(g.n, unscaled(_mat_chain(((1, mats),)))[0])
                 for mats in ((Jt, g.m), (Et, g.m), (Et, Jt, g.m)))


def check_hypersymplectic(br, J, E, g):
    """Complex product structure with compatible metric whose three associated
    forms are all closed.  If the first form is closed while a later one is
    not, that contradicts how the three forms are tied together, so it is
    flagged as a consistency alert."""
    if not (br.n == J.n == E.n == g.n):
        raise DimensionMismatch("dimensions %d, %d, %d, %d" % (br.n, J.n, E.n, g.n))
    parts = [check_jacobi(br), check_complex_product(br, J, E),
             check_metric_compatible(g, J, E)]
    w1, w2, w3 = three_forms(g, J, E)
    closed = [check_closed(br, w1), check_closed(br, w2), check_closed(br, w3)]
    viol = []
    for name, rep_ in zip(("dw1", "dw2", "dw3"), closed):
        viol.extend(Violation("%s: %s" % (name, v.where), v.indices, v.residual)
                    for v in rep_.violations)
    notes = []
    if parts[1].verdict and parts[2].verdict and closed[0].verdict and \
            not (closed[1].verdict and closed[2].verdict):
        notes.append("ALERT: first form closed but a companion form is not, despite "
                     "a valid complex product structure and compatible metric; "
                     "mathematically impossible, report a bug")
    return merge_reports("hypersymplectic", parts, viol, notes)


def check_representation(br, rho):
    """rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) on all basis pairs."""
    if rho.n != br.n:
        raise DimensionMismatch("bracket dim %d, representation dim %d" % (br.n, rho.n))
    nzb, rl = _nonzeros(br.c), _nonzeros(rho.t)
    rlt = list(zip(*rl))  # rlt[a][s] = rl[s][a], row a of rho(e_s)
    # row a of rho([e_i, e_j]) - rho(e_i)rho(e_j) + rho(e_j)rho(e_i)
    return report("representation", violations(
        "representation", pairs_then(br.n, rho.m), lambda i, j, a: _residual(
            rho.m, ((nzb[i][j], rlt[a], 1), (rl[i][a], rl[j], -1), (rl[j][a], rl[i], 1)))))


def check_bimodule(lsa, l, r):
    """The two action identities making (l, r) a bimodule of the product:

        l(x)l(y) - l(x.y) = l(y)l(x) - l(y.x)
        l(x)r(y) - r(y)l(x) = r(x.y) - r(y)r(x)
    """
    if l.n != lsa.n or r.n != lsa.n:
        raise DimensionMismatch("algebra dim %d, actions on dims %d, %d"
                                % (lsa.n, l.n, r.n))
    n, m = lsa.n, l.m
    if r.m != m or len(l.t) != l.n or len(r.t) != r.n or any(
            len(mat) != m or any(len(row) != m for row in mat) for mat in (*l.t, *r.t)):
        raise DimensionMismatch("actions on a module of dim %d must be %d x %d matrices"
                                % (m, m, m))
    nz, rl, rr = _nonzeros(lsa.c), _nonzeros(l.t), _nonzeros(r.t)
    rlt, rrt = list(zip(*rl)), list(zip(*rr))  # rlt[a][s] = rl[s][a], row a of l(e_s)
    viol = []
    for i in range(n):
        for j in range(i + 1, n):
            # row a of l(e_i)l(e_j) - l(e_i e_j) - l(e_j)l(e_i) + l(e_j e_i)
            diff = [_residual(m, ((rl[i][a], rl[j], 1), (nz[i][j], rlt[a], -1),
                                  (rl[j][a], rl[i], -1), (nz[j][i], rlt[a], 1)))
                    for a in range(m)]
            viol += mat_violations("bimodule-1 at (%d,%d)" % (i, j), diff)
    for i in range(n):
        for j in range(n):
            # row a of l(e_i)r(e_j) - r(e_j)l(e_i) - r(e_i e_j) + r(e_j)r(e_i)
            diff = [_residual(m, ((rl[i][a], rr[j], 1), (rr[j][a], rl[i], -1),
                                  (nz[i][j], rrt[a], -1), (rr[j][a], rr[i], 1)))
                    for a in range(m)]
            viol += mat_violations("bimodule-2 at (%d,%d)" % (i, j), diff)
    return report("bimodule", viol)
