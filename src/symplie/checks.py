"""Structure-constant data model and pointwise axiom verifiers.

An n-dimensional bilinear operation is a StructureTensor: c[i][j][k] is the
e_k coefficient of e_i o e_j.  Forms, endomorphisms and representations are
matrices over Fraction.  Every verifier returns a CheckReport listing each
violating basis tuple with its exact residual, so a failing check pinpoints
the offending structure constants; mat_violations lists them from a residual
tensor of any rank, and require turns a failing report into the caller's
typed error.

check_closed, check_parallel_form and nijenhuis_torsion contract the whole
input once on the exact integer kernel of linalg (Scaled) and read each
tuple's residual off the result.  check_plsa, check_left_symmetric,
check_jacobi and check_bimodule evaluate sparse sums over the nonzero
structure constants (and action entries) in plain Fraction; they stay off
Scaled because they are the independent cross-check routes.  The remaining
verifiers walk the basis tuples with matrix and vector helpers.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    DimensionMismatch,
    basis_vec,
    mat_add,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_rank,
    mat_sub,
    mat_transpose,
    scaled,
    scaled_combine,
    scaled_leg,
    t3_add,
    t3_sub,
    tensor_contract,
    unscaled,
    vec_add,
    vec_is_zero,
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


def report(check, violations, notes=()):
    violations = tuple(violations)
    return CheckReport(check, not violations, violations, tuple(notes))


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
    violations = list(extra_violations)
    all_notes = list(notes)
    for sub in parts:
        for v in sub.violations:
            violations.append(Violation("%s: %s" % (sub.check, v.where) if v.where else sub.check,
                                        v.indices, v.residual))
        all_notes.extend("%s: %s" % (sub.check, note) for note in sub.notes)
    return report(check, violations, all_notes)


# ---------------------------------------------------------------------------
# small helpers on the domain types

def st(n, entries=None):
    """StructureTensor from {(i,j,k): coefficient} (0-based), default zero."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), q in (entries or {}).items():
        c[i][j][k] = Fraction(q)
    return StructureTensor(n, tuple(tuple(tuple(row) for row in plane) for plane in c))


def op_apply(op, x, y):
    """Coordinates of x o y for coordinate vectors x, y."""
    n = op.n
    out = [Fraction(0)] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            q = x[i] * y[j]
            row = op.c[i][j]
            for k in range(n):
                if row[k]:
                    out[k] += q * row[k]
    return tuple(out)


def left_mult(op, x):
    """Matrix of y -> x o y on column coordinates."""
    return mat_transpose(tensor_contract(op.c, x, 0))


def right_mult(op, y):
    """Matrix of x -> x o y on column coordinates."""
    return mat_transpose(tensor_contract(op.c, y, 1))


def left_mult_basis(op, i):
    return left_mult(op, basis_vec(op.n, i))


def right_mult_basis(op, j):
    return right_mult(op, basis_vec(op.n, j))


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
    """Left multiplications of op packaged as a representation tensor."""
    return RepTensor(op.n, op.n, tuple(left_mult_basis(op, i) for i in range(op.n)))


def rep_apply(rho, xvec):
    """The matrix rho(x) for a coordinate vector x."""
    out = [[Fraction(0)] * rho.m for _ in range(rho.m)]
    for i in range(rho.n):
        if xvec[i] == 0:
            continue
        ti = rho.t[i]
        for a in range(rho.m):
            for b in range(rho.m):
                if ti[a][b]:
                    out[a][b] += xvec[i] * ti[a][b]
    return tuple(tuple(row) for row in out)


def rep_zero(n, m=None):
    if m is None:
        m = n
    from .linalg import mat_zero
    return RepTensor(n, m, tuple(mat_zero(m) for _ in range(n)))


def form_apply(w, x, y):
    return sum((x[i] * sum((w.m[i][j] * y[j] for j in range(w.n)), Fraction(0))
                for i in range(w.n)), Fraction(0))


# ---------------------------------------------------------------------------
# verifiers

def check_skew(B):
    viol = []
    for i in range(B.n):
        for j in range(i, B.n):
            r = B.m[i][j] + B.m[j][i]
            if r != 0:
                viol.append(Violation("skew", (i, j), r))
    return report("skew", viol)


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
    n = br.n
    viol = []
    for i in range(n):
        for j in range(i, n):
            r = vec_add(br.c[i][j], br.c[j][i])
            if not vec_is_zero(r):
                viol.append(Violation("antisymmetry", (i, j), r))
    nz = _nonzeros(br.c)
    col = list(zip(*nz))  # col[k][s] = nz[s][k]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
                r = _residual(n, ((nz[i][j], col[k], 1), (nz[j][k], col[i], 1),
                                  (nz[k][i], col[j], 1)))
                if any(r):
                    viol.append(Violation("jacobi", (i, j, k), r))
    return report("jacobi", viol)


def check_left_symmetric(op):
    # the defect is antisymmetric under swapping the first two arguments,
    # so i < j covers everything
    n = op.n
    nz = _nonzeros(op.c)
    col = list(zip(*nz))
    viol = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                # (e_i e_j) e_k - e_i (e_j e_k) - (e_j e_i) e_k + e_j (e_i e_k)
                r = _residual(n, ((nz[i][j], col[k], 1), (nz[j][k], nz[i], -1),
                                  (nz[j][i], col[k], -1), (nz[i][k], nz[j], 1)))
                if any(r):
                    viol.append(Violation("left-symmetric", (i, j, k), r))
    return report("left-symmetric", viol)


def check_commutative(op):
    viol = []
    for i in range(op.n):
        for j in range(i + 1, op.n):
            r = vec_sub(op.c[i][j], op.c[j][i])
            if not vec_is_zero(r):
                viol.append(Violation("commutative", (i, j), r))
    return report("commutative", viol)


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
    viol = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # e_i succ (e_j prec e_k) - (e_i . e_j) prec e_k - e_j prec (e_i . e_k)
                r = _residual(n, ((nzp[j][k], nzs[i], 1), (nzt[i][j], colp[k], -1),
                                  (nzt[i][k], nzp[j], -1)))
                if any(r):
                    viol.append(Violation("compatibility", (i, j, k), r))
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
    viol = []
    for i in range(br.n):
        for j in range(i + 1, br.n):
            r = vec_sub(vec_sub(conn.c[i][j], conn.c[j][i]), br.c[i][j])
            if not vec_is_zero(r):
                viol.append(Violation("torsion-free", (i, j), r))
    return report("torsion-free", viol)


def check_flat(br, conn):
    """Curvature (L(x)L(y) - L(y)L(x) - L([x,y])) vanishes, L = left mult of conn."""
    if br.n != conn.n:
        raise DimensionMismatch("bracket dim %d, connection dim %d" % (br.n, conn.n))
    n = br.n
    L = [left_mult_basis(conn, i) for i in range(n)]
    viol = []
    for i in range(n):
        for j in range(i + 1, n):
            cur = mat_sub(mat_sub(mat_mul(L[i], L[j]), mat_mul(L[j], L[i])),
                          left_mult(conn, br.c[i][j]))
            for k in range(n):
                col = tuple(cur[a][k] for a in range(n))
                if not vec_is_zero(col):
                    viol.append(Violation("flat", (i, j, k), col))
    return report("flat", viol)


def check_closed(br, w):
    """dw(e_i, e_j, e_k) = w(e_i, [e_j, e_k]) + w(e_j, [e_k, e_i])
    + w(e_k, [e_i, e_j]) vanishes on all triples i < j < k."""
    if br.n != w.n:
        raise DimensionMismatch("bracket dim %d, form dim %d" % (br.n, w.n))
    n = br.n
    # T[a][b][c] = sum_s w[c][s] br[a][b][s] = w(e_c, [e_a, e_b])
    T, den = scaled_leg(scaled(w.m), scaled(br.c), 2)
    viol = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = T[j][k][i] + T[k][i][j] + T[i][j][k]
                if r:
                    viol.append(Violation("closed", (i, j, k), Fraction(r, den)))
    return report("closed", viol)


def check_parallel_form(conn, w):
    """w(conn_x y, z) = w(conn_x z, y) on all basis triples."""
    if conn.n != w.n:
        raise DimensionMismatch("connection dim %d, form dim %d" % (conn.n, w.n))
    n = conn.n
    # P[i][j][k] = sum_a w[a][k] conn[i][j][a] = w(conn_i e_j, e_k)
    P, den = scaled_leg(scaled(mat_transpose(w.m)), scaled(conn.c), 2)
    viol = []
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                r = P[i][j][k] - P[i][k][j]
                if r:
                    viol.append(Violation("parallel", (i, j, k), Fraction(r, den)))
    return report("parallel-form", viol)


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


def mat_violations(where, t, at=()):
    """A violation at indices at + index for each nonzero scalar of the
    nested tuples or lists t, in row-major order."""
    viol = []
    for i, x in enumerate(t):
        if isinstance(x, (tuple, list)):
            viol += mat_violations(where, x, at + (i,))
        elif x != 0:
            viol.append(Violation(where, at + (i,), x))
    return viol


def check_complex_product(br, J, E):
    """J^2 = -id, E^2 = id (E not +-id), JE = -EJ, both torsion-free, and the
    two eigenspaces of E have equal dimension."""
    if not (br.n == J.n == E.n):
        raise DimensionMismatch("dimensions %d, %d, %d" % (br.n, J.n, E.n))
    n = br.n
    ident = mat_identity(n)
    viol = []
    viol += mat_violations("J^2+id", mat_sub(mat_mul(J.m, J.m), mat_neg(ident)))
    viol += mat_violations("E^2-id", mat_sub(mat_mul(E.m, E.m), ident))
    if E.m == ident:
        viol.append(Violation("E-is-scalar", (), Fraction(1)))
    elif E.m == mat_neg(ident):
        viol.append(Violation("E-is-scalar", (), Fraction(-1)))
    viol += mat_violations("JE+EJ", mat_add(mat_mul(J.m, E.m), mat_mul(E.m, J.m)))
    for name, N in (("torsion-J", J), ("torsion-E", E)):
        T = nijenhuis_torsion(br, N)
        for i in range(n):
            for j in range(i + 1, n):
                if not vec_is_zero(T.c[i][j]):
                    viol.append(Violation(name, (i, j), T.c[i][j]))
    dplus = n - mat_rank(mat_sub(E.m, ident))
    dminus = n - mat_rank(mat_add(E.m, ident))
    if dplus != dminus:
        viol.append(Violation("eigenspace-dims", (), Fraction(dplus - dminus)))
    return report("complex-product", viol)


def check_metric_compatible(g, J, E):
    """g symmetric nondegenerate with g(Jx,Jy)=g(x,y) and g(Ex,Ey)=-g(x,y)."""
    if not (g.n == J.n == E.n):
        raise DimensionMismatch("dimensions %d, %d, %d" % (g.n, J.n, E.n))
    viol = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            r = g.m[i][j] - g.m[j][i]
            if r != 0:
                viol.append(Violation("symmetric", (i, j), r))
    viol += check_nondegenerate(g).violations
    viol += mat_violations("J-invariance",
                            mat_sub(mat_mul(mat_transpose(J.m), mat_mul(g.m, J.m)), g.m))
    viol += mat_violations("E-anti-invariance",
                            mat_add(mat_mul(mat_transpose(E.m), mat_mul(g.m, E.m)), g.m))
    return report("metric-compatible", viol)


def three_forms(g, J, E):
    """The forms w1 = g(J.,.), w2 = g(E.,.), w3 = g(JE.,.) as Form values."""
    n = g.n
    w1 = mat_mul(mat_transpose(J.m), g.m)
    w2 = mat_mul(mat_transpose(E.m), g.m)
    w3 = mat_mul(mat_transpose(mat_mul(J.m, E.m)), g.m)
    return Form(n, w1), Form(n, w2), Form(n, w3)


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
    viol = []
    for i in range(br.n):
        for j in range(i + 1, br.n):
            lhs = rep_apply(rho, br.c[i][j])
            rhs = mat_sub(mat_mul(rho.t[i], rho.t[j]), mat_mul(rho.t[j], rho.t[i]))
            diff = mat_sub(lhs, rhs)
            if not mat_is_zero(diff):
                for a in range(rho.m):
                    col = tuple(diff[a][b] for b in range(rho.m))
                    if not vec_is_zero(col):
                        viol.append(Violation("representation", (i, j, a), col))
    return report("representation", viol)


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
