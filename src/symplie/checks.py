"""Structure-constant data model and pointwise axiom verifiers.

An n-dimensional bilinear operation is a StructureTensor: c[i][j][k] is the
e_k coefficient of e_i o e_j.  Forms, endomorphisms and representations are
matrices over Fraction.  Every verifier walks basis tuples literally and
returns a CheckReport listing each violating tuple with its exact residual,
so a failing check pinpoints the offending structure constants.
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
    mat_vec,
    t3_add,
    t3_sub,
    tensor_contract,
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


def check_jacobi(br):
    n = br.n
    viol = []
    for i in range(n):
        for j in range(i, n):
            r = vec_add(br.c[i][j], br.c[j][i])
            if not vec_is_zero(r):
                viol.append(Violation("antisymmetry", (i, j), r))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = vec_add(
                    vec_add(op_apply(br, br.c[i][j], basis_vec(n, k)),
                            op_apply(br, br.c[j][k], basis_vec(n, i))),
                    op_apply(br, br.c[k][i], basis_vec(n, j)))
                if not vec_is_zero(r):
                    viol.append(Violation("jacobi", (i, j, k), r))
    return report("jacobi", viol)


def _associator(op, i, j, k):
    """(e_i o e_j) o e_k - e_i o (e_j o e_k) as a coordinate vector."""
    n = op.n
    return vec_sub(op_apply(op, op.c[i][j], basis_vec(n, k)),
                   op_apply(op, basis_vec(n, i), op.c[j][k]))


def check_left_symmetric(op):
    # the defect is antisymmetric under swapping the first two arguments,
    # so i < j covers everything
    viol = []
    for i in range(op.n):
        for j in range(i + 1, op.n):
            for k in range(op.n):
                r = vec_sub(_associator(op, i, j, k), _associator(op, j, i, k))
                if not vec_is_zero(r):
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
    viol = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = op_apply(succ, basis_vec(n, i), prec.c[j][k])
                rhs = vec_add(op_apply(prec, total.c[i][j], basis_vec(n, k)),
                              op_apply(prec, basis_vec(n, j), total.c[i][k]))
                r = vec_sub(lhs, rhs)
                if not vec_is_zero(r):
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
    if br.n != w.n:
        raise DimensionMismatch("bracket dim %d, form dim %d" % (br.n, w.n))
    n = br.n
    viol = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = basis_vec(n, i), basis_vec(n, j), basis_vec(n, k)
                r = (form_apply(w, ei, br.c[j][k])
                     + form_apply(w, ej, br.c[k][i])
                     + form_apply(w, ek, br.c[i][j]))
                if r != 0:
                    viol.append(Violation("closed", (i, j, k), r))
    return report("closed", viol)


def check_parallel_form(conn, w):
    """w(conn_x y, z) = w(conn_x z, y) on all basis triples."""
    if conn.n != w.n:
        raise DimensionMismatch("connection dim %d, form dim %d" % (conn.n, w.n))
    n = conn.n
    viol = []
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                ej, ek = basis_vec(n, j), basis_vec(n, k)
                r = form_apply(w, conn.c[i][j], ek) - form_apply(w, conn.c[i][k], ej)
                if r != 0:
                    viol.append(Violation("parallel", (i, j, k), r))
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
    n = br.n
    Ncols = [tuple(N.m[a][i] for a in range(n)) for i in range(n)]
    NN = mat_mul(N.m, N.m)
    planes = []
    for i in range(n):
        rows = []
        for j in range(n):
            t = op_apply(br, Ncols[i], Ncols[j])
            t = vec_add(t, mat_vec(NN, br.c[i][j]))
            mixed = vec_add(op_apply(br, Ncols[i], basis_vec(n, j)),
                            op_apply(br, basis_vec(n, i), Ncols[j]))
            t = vec_sub(t, mat_vec(N.m, mixed))
            rows.append(t)
        planes.append(tuple(rows))
    return StructureTensor(n, tuple(planes))


def _mat_violations(where, m):
    viol = []
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if x != 0:
                viol.append(Violation(where, (i, j), x))
    return viol


def check_complex_product(br, J, E):
    """J^2 = -id, E^2 = id (E not +-id), JE = -EJ, both torsion-free, and the
    two eigenspaces of E have equal dimension."""
    if not (br.n == J.n == E.n):
        raise DimensionMismatch("dimensions %d, %d, %d" % (br.n, J.n, E.n))
    n = br.n
    ident = mat_identity(n)
    viol = []
    viol += _mat_violations("J^2+id", mat_sub(mat_mul(J.m, J.m), mat_neg(ident)))
    viol += _mat_violations("E^2-id", mat_sub(mat_mul(E.m, E.m), ident))
    if E.m == ident:
        viol.append(Violation("E-is-scalar", (), Fraction(1)))
    elif E.m == mat_neg(ident):
        viol.append(Violation("E-is-scalar", (), Fraction(-1)))
    viol += _mat_violations("JE+EJ", mat_add(mat_mul(J.m, E.m), mat_mul(E.m, J.m)))
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
    viol += _mat_violations("J-invariance",
                            mat_sub(mat_mul(mat_transpose(J.m), mat_mul(g.m, J.m)), g.m))
    viol += _mat_violations("E-anti-invariance",
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
    if l.m != r.m:
        raise DimensionMismatch("module dims %d and %d" % (l.m, r.m))
    n = lsa.n
    viol = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = mat_sub(mat_mul(l.t[i], l.t[j]), rep_apply(l, lsa.c[i][j]))
            rhs = mat_sub(mat_mul(l.t[j], l.t[i]), rep_apply(l, lsa.c[j][i]))
            diff = mat_sub(lhs, rhs)
            viol.extend(Violation("bimodule-1 at (%d,%d)" % (i, j), (a, b), x)
                        for (a, b), x in _nonzero_entries(diff))
    for i in range(n):
        for j in range(n):
            lhs = mat_sub(mat_mul(l.t[i], r.t[j]), mat_mul(r.t[j], l.t[i]))
            rhs = mat_sub(rep_apply(r, lsa.c[i][j]), mat_mul(r.t[j], r.t[i]))
            diff = mat_sub(lhs, rhs)
            viol.extend(Violation("bimodule-2 at (%d,%d)" % (i, j), (a, b), x)
                        for (a, b), x in _nonzero_entries(diff))
    return report("bimodule", viol)


def _nonzero_entries(m):
    out = []
    for a, row in enumerate(m):
        for b, x in enumerate(row):
            if x != 0:
                out.append(((a, b), x))
    return out
