"""Independent reference implementations used to cross-check the package.

Everything here is written directly from definitions with plain loops and
Fraction arithmetic, deliberately avoiding the package's own linear algebra
and checker code paths.
"""

import math
import random
from fractions import Fraction

from symplie.bialgebra import CoproductPair


# --- plain Gaussian elimination over Fraction (vs the package's fraction-free
# Bareiss routines) ---

def gauss_rank(m):
    rows = [list(map(Fraction, row)) for row in m]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def gauss_inverse(m):
    n = len(m)
    aug = [list(map(Fraction, m[i])) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_mul_plain(a, b):
    """(a b)[i][j] = sum_t a[i][t] b[t][j], summed over the t where neither
    factor is zero (a zero factor adds nothing)."""
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(k) if a[i][t] and b[t][j]),
                           Fraction(0))
                       for j in range(m)) for i in range(n))


def mat_vec_plain(m, v):
    """(m v)[a] = sum_b m[a][b] v[b], over the b where neither factor is zero."""
    return tuple(sum((m[a][b] * v[b] for b in range(len(v)) if m[a][b] and v[b]),
                     Fraction(0))
                 for a in range(len(m)))


def left_mult_plain(c, i):
    """The matrix of y -> e_i o y on column coordinates: entry (k, j) is
    c[i][j][k]."""
    n = len(c)
    return tuple(tuple(c[i][j][k] for j in range(n)) for k in range(n))


# --- the sparse sum of the cross-check routes, one Fraction product at a
# time (vs checks._scatter's int sums over one common denominator) ---

def residual_plain(n, terms):
    """sum of sign * q * p e_t over the (outer, rows, sign) terms, with
    (s, q) in outer and (t, p) in rows[s], as a tuple of n Fractions."""
    acc = [Fraction(0)] * n
    for outer, rows, sign in terms:
        for s, q in outer:
            for t, p in rows[s]:
                acc[t] += sign * Fraction(q) * Fraction(p)
    return tuple(acc)


# --- rank-3 tensor operations, entry by entry (vs the package's scaled
# int-numerator kernel) ---

def _shape(t):
    return len(t), len(t[0]), len(t[0][0])


def leg_plain(m, t, leg):
    """out = m applied to one leg of t: the leg index of out runs over the
    rows of m, and sum_p m[row][p] replaces that index of t by p."""
    shape = list(_shape(t))
    shape[leg] = len(m)
    out = {}
    for a in range(shape[0]):
        for b in range(shape[1]):
            for c in range(shape[2]):
                idx = [a, b, c]
                s = Fraction(0)
                for p in range(len(m[0])):
                    j = list(idx)
                    j[leg] = p
                    s += m[idx[leg]][p] * t[j[0]][j[1]][j[2]]
                out[a, b, c] = s
    return _from_dict(out, shape)


def permute_plain(t, axes):
    """numpy.transpose semantics: out[i0][i1][i2] = t[j] with j[axes[k]] = i_k."""
    shape = [_shape(t)[a] for a in axes]
    out = {}
    for a in range(shape[0]):
        for b in range(shape[1]):
            for c in range(shape[2]):
                j = [0, 0, 0]
                for k, i in zip(axes, (a, b, c)):
                    j[k] = i
                out[a, b, c] = t[j[0]][j[1]][j[2]]
    return _from_dict(out, shape)


def combine_plain(terms):
    """sum k * t over (k, t) pairs."""
    shape = _shape(terms[0][1])
    out = {}
    for a in range(shape[0]):
        for b in range(shape[1]):
            for c in range(shape[2]):
                out[a, b, c] = sum((k * t[a][b][c] for k, t in terms), Fraction(0))
    return _from_dict(out, shape)


def contract_plain(t, v, slot):
    """v contracted into slot 0, 1 or 2 of t: the matrix over the other two
    indices in order, each entry sum_p v[p] t[...p...] with p in that slot."""
    shape = _shape(t)
    rest = [k for k in range(3) if k != slot]
    out = [[Fraction(0)] * shape[rest[1]] for _ in range(shape[rest[0]])]
    for a in range(shape[0]):
        for b in range(shape[1]):
            for c in range(shape[2]):
                idx = (a, b, c)
                out[idx[rest[0]]][idx[rest[1]]] += v[idx[slot]] * t[a][b][c]
    return tuple(map(tuple, out))


def _from_dict(out, shape):
    return tuple(tuple(tuple(out[a, b, c] for c in range(shape[2]))
                       for b in range(shape[1])) for a in range(shape[0]))


# --- products from raw structure constants ---

def product_vec(c, u, v):
    """w = u o v for nested-tuple structure constants c[i][j][k]."""
    n = len(c)
    w = [Fraction(0)] * n
    for i in range(n):
        if u[i] == 0:
            continue
        for j in range(n):
            if v[j] == 0:
                continue
            q = u[i] * v[j]
            for k in range(n):
                w[k] += q * c[i][j][k]
    return tuple(w)


def _basis(n, i):
    return tuple(Fraction(int(j == i)) for j in range(n))


def brute_left_symmetric(c):
    """Direct evaluation of (x,y,z) -> (x o y) o z - x o (y o z) being
    symmetric in x and y over every basis triple."""
    n = len(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = _basis(n, i), _basis(n, j), _basis(n, k)
                a1 = tuple(p - q for p, q in zip(
                    product_vec(c, product_vec(c, x, y), z),
                    product_vec(c, x, product_vec(c, y, z))))
                a2 = tuple(p - q for p, q in zip(
                    product_vec(c, product_vec(c, y, x), z),
                    product_vec(c, y, product_vec(c, x, z))))
                if a1 != a2:
                    return False
    return True


def brute_jacobi(c):
    n = len(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = _basis(n, i), _basis(n, j), _basis(n, k)
                total = [Fraction(0)] * n
                for (a, b, d) in ((x, y, z), (y, z, x), (z, x, y)):
                    term = product_vec(c, a, product_vec(c, b, d))
                    total = [p + q for p, q in zip(total, term)]
                if any(total):
                    return False
    return True


def brute_skew(c):
    n = len(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return False
    return True


def form_value(m, u, v):
    return sum(u[i] * m[i][j] * v[j]
               for i in range(len(u)) for j in range(len(v)))


def brute_closed(bracket_c, form_m):
    """omega([x,y],z) + omega([y,z],x) + omega([z,x],y) = 0 on basis triples."""
    n = len(bracket_c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = _basis(n, i), _basis(n, j), _basis(n, k)
                s = (form_value(form_m, product_vec(bracket_c, x, y), z)
                     + form_value(form_m, product_vec(bracket_c, y, z), x)
                     + form_value(form_m, product_vec(bracket_c, z, x), y))
                if s != 0:
                    return False
    return True


# --- the verifiers that contract on the scaled kernel, one basis tuple at a
# time (vs checks.check_closed, check_parallel_form and nijenhuis_torsion) ---

def closed_violations(bracket_c, form_m):
    """check_closed's violations as (where, indices, residual): dw(e_i, e_j,
    e_k) = w(e_i, [e_j, e_k]) + w(e_j, [e_k, e_i]) + w(e_k, [e_i, e_j]) on
    each triple i < j < k with a nonzero value."""
    n = len(bracket_c)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = (form_value(form_m, _basis(n, i), bracket_c[j][k])
                     + form_value(form_m, _basis(n, j), bracket_c[k][i])
                     + form_value(form_m, _basis(n, k), bracket_c[i][j]))
                if r != 0:
                    out.append(("closed", (i, j, k), r))
    return out


def parallel_violations(conn_c, form_m):
    """check_parallel_form's violations: w(e_i . e_j, e_k) - w(e_i . e_k, e_j)
    on each i and j < k with a nonzero value."""
    n = len(conn_c)
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                r = (form_value(form_m, conn_c[i][j], _basis(n, k))
                     - form_value(form_m, conn_c[i][k], _basis(n, j)))
                if r != 0:
                    out.append(("parallel", (i, j, k), r))
    return out


def nijenhuis_plain(bracket_c, m):
    """T(N)(e_i, e_j) = [Ne_i, Ne_j] + N^2[e_i, e_j] - N([Ne_i, e_j] + [e_i, Ne_j])
    for the matrix m of N acting on column coordinates."""
    n = len(bracket_c)

    def apply(v):
        return tuple(sum((m[a][b] * v[b] for b in range(n)), Fraction(0))
                     for a in range(n))

    cols = [apply(_basis(n, i)) for i in range(n)]
    planes = []
    for i in range(n):
        rows = []
        for j in range(n):
            mixed = [p + q for p, q in zip(product_vec(bracket_c, cols[i], _basis(n, j)),
                                           product_vec(bracket_c, _basis(n, i), cols[j]))]
            rows.append(tuple(a + b - d for a, b, d in zip(
                product_vec(bracket_c, cols[i], cols[j]),
                apply(apply(bracket_c[i][j])),
                apply(mixed))))
        planes.append(tuple(rows))
    return tuple(planes)


# --- the verifiers that sum over sparse structure constants, one basis tuple
# at a time through full products (vs checks.check_left_symmetric,
# check_jacobi and check_plsa's compatibility loop) ---

def _vsub(u, v):
    return tuple(p - q for p, q in zip(u, v))


def _vadd(u, v):
    return tuple(p + q for p, q in zip(u, v))


def left_symmetric_violations(c):
    """check_left_symmetric's violations: the associator (x o y) o z -
    x o (y o z) minus the same with x and y swapped, on each basis triple
    with i < j and a nonzero value."""
    n = len(c)

    def assoc(i, j, k):
        return _vsub(product_vec(c, c[i][j], _basis(n, k)),
                     product_vec(c, _basis(n, i), c[j][k]))

    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                r = _vsub(assoc(i, j, k), assoc(j, i, k))
                if any(r):
                    out.append(("left-symmetric", (i, j, k), r))
    return out


def jacobi_violations(c):
    """check_jacobi's violations: [e_i, e_j] + [e_j, e_i] on each i <= j,
    then the cyclic sum of [[e_i, e_j], e_k] on each i < j < k."""
    n = len(c)
    out = []
    for i in range(n):
        for j in range(i, n):
            r = _vadd(c[i][j], c[j][i])
            if any(r):
                out.append(("antisymmetry", (i, j), r))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = _vadd(_vadd(product_vec(c, c[i][j], _basis(n, k)),
                                product_vec(c, c[j][k], _basis(n, i))),
                          product_vec(c, c[k][i], _basis(n, j)))
                if any(r):
                    out.append(("jacobi", (i, j, k), r))
    return out


def plsa_compat_violations(prec_c, succ_c):
    """check_plsa's compatibility violations: e_i succ (e_j prec e_k) -
    (e_i . e_j) prec e_k - e_j prec (e_i . e_k), with . = prec + succ, on
    each basis triple with a nonzero value."""
    n = len(prec_c)
    total = [[_vadd(prec_c[i][j], succ_c[i][j]) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = product_vec(succ_c, _basis(n, i), prec_c[j][k])
                rhs = _vadd(product_vec(prec_c, total[i][j], _basis(n, k)),
                            product_vec(prec_c, _basis(n, j), total[i][k]))
                r = _vsub(lhs, rhs)
                if any(r):
                    out.append(("compatibility", (i, j, k), r))
    return out


# --- the verifiers that compare single matrices or structure constants
# entry by entry, written as plain loops (vs checks.check_skew,
# check_commutative, check_torsion_free, check_metric_compatible and
# check_complex_product) ---

def skew_violations(m):
    """check_skew's violations: B(e_i, e_j) + B(e_j, e_i) on each i <= j."""
    n = len(m)
    out = []
    for i in range(n):
        for j in range(i, n):
            r = m[i][j] + m[j][i]
            if r != 0:
                out.append(("skew", (i, j), r))
    return out


def commutative_violations(c):
    """check_commutative's violations: e_i o e_j - e_j o e_i on each i < j."""
    n = len(c)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            r = _vsub(c[i][j], c[j][i])
            if any(r):
                out.append(("commutative", (i, j), r))
    return out


def torsion_free_violations(br_c, conn_c):
    """check_torsion_free's violations: conn(e_i, e_j) - conn(e_j, e_i) -
    [e_i, e_j] on each i < j."""
    n = len(br_c)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            r = _vsub(_vsub(conn_c[i][j], conn_c[j][i]), br_c[i][j])
            if any(r):
                out.append(("torsion-free", (i, j), r))
    return out


def _ident_plus(m, q):
    """m + q id."""
    return tuple(tuple(x + q if a == b else x for b, x in enumerate(row))
                 for a, row in enumerate(m))


def metric_compatible_violations(g, J, E):
    """check_metric_compatible's violations: g(e_i, e_j) - g(e_j, e_i) on
    each i < j, the rank defect of g, then the nonzero entries of
    J^T g J - g and of E^T g E + g."""
    n = len(g)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            r = g[i][j] - g[j][i]
            if r != 0:
                out.append(("symmetric", (i, j), r))
    rank = gauss_rank(g)
    if rank != n:
        out.append(("rank", (), Fraction(n - rank)))
    mm = mat_mul_plain
    out += _entries("J-invariance", _msub(mm(_mT(J), mm(g, J)), g))
    out += _entries("E-anti-invariance", _madd(mm(_mT(E), mm(g, E)), g))
    return out


def torsion_plain_violations(where, bracket_c, m):
    """The Nijenhuis torsion of m (nijenhuis_plain) at each i < j with a
    nonzero value."""
    t = nijenhuis_plain(bracket_c, m)
    n = len(bracket_c)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if any(t[i][j]):
                out.append((where, (i, j), t[i][j]))
    return out


def complex_product_violations(bracket_c, J, E):
    """check_complex_product's violations: the nonzero entries of J^2 + id
    and E^2 - id, E equal to +-id, the entries of JE + EJ, the torsion of J
    and of E on each i < j, and unequal +1 and -1 eigenspace dimensions."""
    n = len(J)
    mm = mat_mul_plain
    out = _entries("J^2+id", _ident_plus(mm(J, J), 1))
    out += _entries("E^2-id", _ident_plus(mm(E, E), -1))
    for sign in (1, -1):
        if all(E[a][b] == (sign if a == b else 0) for a in range(n) for b in range(n)):
            out.append(("E-is-scalar", (), Fraction(sign)))
    out += _entries("JE+EJ", _madd(mm(J, E), mm(E, J)))
    out += torsion_plain_violations("torsion-J", bracket_c, J)
    out += torsion_plain_violations("torsion-E", bracket_c, E)
    dplus = n - gauss_rank(_ident_plus(E, -1))
    dminus = n - gauss_rank(_ident_plus(E, 1))
    if dplus != dminus:
        out.append(("eigenspace-dims", (), Fraction(dplus - dminus)))
    return out


def parakahler_violations(bracket_c, w, E):
    """check_parakahler's own violations without a connection: the nonzero
    entries of E^2 - id, the torsion of E on each i < j, unequal +1 and -1
    eigenspace dimensions, then the entries of E^T w E + w."""
    n = len(E)
    mm = mat_mul_plain
    out = _entries("E-squared", _ident_plus(mm(E, E), -1))
    out += torsion_plain_violations("E-torsion", bracket_c, E)
    dplus = n - gauss_rank(_ident_plus(E, -1))
    dminus = n - gauss_rank(_ident_plus(E, 1))
    if dplus != dminus:
        out.append(("eigenspace-dims", (), Fraction(dplus - dminus)))
    out += _entries("compatibility", _madd(mm(_mT(E), mm(w, E)), w))
    return out


# --- the matched-pair route, one basis tuple at a time through dense
# matrices and full products (vs checks.check_bimodule and matched._mixed_12;
# an action is a tuple of square matrices, one per basis vector) ---

def _msub(a, b):
    return tuple(_vsub(p, q) for p, q in zip(a, b))


def _act(t, x):
    """sum_i x[i] t[i], the action of the vector x."""
    size = len(t[0])
    return tuple(tuple(sum((x[i] * t[i][a][b] for i in range(len(t))), Fraction(0))
                       for b in range(size)) for a in range(size))


def _entries(where, m):
    return [(where, (a, b), x) for a, row in enumerate(m) for b, x in enumerate(row) if x]


def bimodule_violations(c, l, r):
    """check_bimodule's violations for the product c and actions l, r:
    l(e_i)l(e_j) - l(e_i e_j) - (l(e_j)l(e_i) - l(e_j e_i)) on each i < j,
    then l(e_i)r(e_j) - r(e_j)l(e_i) - (r(e_i e_j) - r(e_j)r(e_i)) on each
    (i, j), one violation per nonzero matrix entry."""
    n = len(c)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = _msub(mat_mul_plain(l[i], l[j]), _act(l, c[i][j]))
            rhs = _msub(mat_mul_plain(l[j], l[i]), _act(l, c[j][i]))
            out += _entries("bimodule-1 at (%d,%d)" % (i, j), _msub(lhs, rhs))
    for i in range(n):
        for j in range(n):
            lhs = _msub(mat_mul_plain(l[i], r[j]), mat_mul_plain(r[j], l[i]))
            rhs = _msub(_act(r, c[i][j]), mat_mul_plain(r[j], r[i]))
            out += _entries("bimodule-2 at (%d,%d)" % (i, j), _msub(lhs, rhs))
    return out


def mixed_compat_violations(c, lA, rA, lB, rB, name1, name2):
    """_mixed_12's violations: products in A (constants c), A's actions lA,
    rA on the other space, and the other algebra's actions lB, rB on A.  For
    each basis vector f_d of the other space, identity 1 on each i < j, then
    identity 2 on each (i, j), with a nonzero value."""
    n, m = len(c), len(lB)
    out = []
    for d in range(m):
        f = _basis(m, d)
        for i in range(n):
            ei = _basis(n, i)
            for j in range(n):
                ej = _basis(n, j)
                if i < j:
                    res = mat_vec_plain(rB[d], _vsub(c[i][j], c[j][i]))
                    res = _vsub(res, mat_vec_plain(_act(rB, mat_vec_plain(lA[j], f)), ei))
                    res = _vadd(res, mat_vec_plain(_act(rB, mat_vec_plain(lA[i], f)), ej))
                    res = _vsub(res, product_vec(c, ei, mat_vec_plain(rB[d], ej)))
                    res = _vadd(res, product_vec(c, ej, mat_vec_plain(rB[d], ei)))
                    if any(res):
                        out.append((name1, (i, j, d), res))
                res = mat_vec_plain(lB[d], c[i][j])
                res = _vadd(res, mat_vec_plain(
                    _act(lB, _vsub(mat_vec_plain(lA[i], f), mat_vec_plain(rA[i], f))), ej))
                res = _vsub(res, product_vec(
                    c, _vsub(mat_vec_plain(lB[d], ei), mat_vec_plain(rB[d], ei)), ej))
                res = _vsub(res, mat_vec_plain(_act(rB, mat_vec_plain(rA[j], f)), ei))
                res = _vsub(res, product_vec(c, ei, mat_vec_plain(lB[d], ej)))
                if any(res):
                    out.append((name2, (i, j, d), res))
    return out


# --- the identities that walked basis tuples with dense matrix products,
# written the same way with plain loops (vs the kernel and sparse-sum routes
# of bialgebra, checks.check_flat, check_representation and constructions);
# a product or coproduct is nested tuples of Fractions, an action a tuple of
# square matrices, one per basis vector ---

def _madd(a, b):
    return tuple(_vadd(p, q) for p, q in zip(a, b))


def _mneg(a):
    return tuple(tuple(-x for x in row) for row in a)


def _mT(a):
    return tuple(zip(*a))


def right_mult_plain(c, j):
    """The matrix of x -> x o e_j on column coordinates: entry (k, i) is
    c[i][j][k]."""
    n = len(c)
    return tuple(tuple(c[i][j][k] for i in range(n)) for k in range(n))


def _sum_and_bracket(prec_c, succ_c):
    n = len(prec_c)
    dot = tuple(tuple(_vadd(prec_c[i][j], succ_c[i][j]) for j in range(n)) for i in range(n))
    br = tuple(tuple(_vsub(dot[i][j], dot[j][i]) for j in range(n)) for i in range(n))
    return dot, br


def nonzero_entries(where, t, at=()):
    """(where, at + index, x) for each nonzero scalar x of the nested tuples
    or lists t, in row-major order."""
    out = []
    for i, x in enumerate(t):
        if isinstance(x, (tuple, list)):
            out += nonzero_entries(where, x, at + (i,))
        elif x:
            out.append((where, at + (i,), x))
    return out


def plsba_violations(prec_c, succ_c, al, be):
    """The four bialgebra compatibility identities on each basis pair (i, j):
    bialgebra-1 (i < j only), then -2, -4 and -3, one violation per nonzero
    matrix entry, indices (i, j, a, b)."""
    n = len(prec_c)
    dot, br = _sum_and_bracket(prec_c, succ_c)
    mm = mat_mul_plain
    ab = [_madd(al[k], be[k]) for k in range(n)]
    sab = [_mT(m) for m in ab]
    skew = [_msub(ab[k], sab[k]) for k in range(n)]
    Ld = [left_mult_plain(dot, i) for i in range(n)]
    Ls = [left_mult_plain(succ_c, i) for i in range(n)]
    Lp = [left_mult_plain(prec_c, i) for i in range(n)]
    Rd = [right_mult_plain(dot, j) for j in range(n)]
    Rp = [right_mult_plain(prec_c, j) for j in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            if i < j:
                rhs = _madd(mm(al[j], _mT(Ld[i])), mm(Ld[i], al[j]))
                rhs = _msub(_msub(rhs, mm(al[i], _mT(Ld[j]))), mm(Ld[j], al[i]))
                out += nonzero_entries("bialgebra-1", _msub(_act(al, br[i][j]), rhs), (i, j))
            lhs2 = _act(ab, dot[i][j])
            common = _madd(_madd(mm(Ls[i], ab[j]), mm(ab[j], _mT(Ld[i]))),
                           mm(be[i], _mT(Rd[j])))
            out += nonzero_entries("bialgebra-2",
                            _msub(lhs2, _msub(common, mm(Lp[j], al[i]))), (i, j))
            out += nonzero_entries("bialgebra-4",
                            _msub(lhs2, _msub(common, mm(Rp[j], _mT(al[i])))), (i, j))
            rhs3 = _madd(_mneg(mm(Rp[j], sab[i])), mm(ab[i], _mT(Rp[j])))
            rhs3 = _msub(_madd(rhs3, mm(ab[j], _mT(Lp[i]))), mm(Lp[i], sab[j]))
            out += nonzero_entries("bialgebra-3", _msub(_act(skew, prec_c[i][j]), rhs3), (i, j))
    return out


def coboundary_coproducts_plain(prec_c, succ_c, r):
    """alpha_i = r Ldot_i^T + Ldot_i r and beta_i = -(r ad_i^T + Lsucc_i r)."""
    n = len(prec_c)
    dot, br = _sum_and_bracket(prec_c, succ_c)
    mm = mat_mul_plain
    alpha, beta = [], []
    for i in range(n):
        Ld, Ls, ad = (left_mult_plain(c, i) for c in (dot, succ_c, br))
        alpha.append(_madd(mm(r, _mT(Ld)), mm(Ld, r)))
        beta.append(_mneg(_madd(mm(r, _mT(ad)), mm(Ls, r))))
    return tuple(alpha), tuple(beta)


def coboundary_violations(prec_c, succ_c, r):
    """coboundary-1 on each i <= j, then coboundary-2 on each (i, j), for
    u = r - r^T; indices (i, j, a, b)."""
    n = len(prec_c)
    dot, _ = _sum_and_bracket(prec_c, succ_c)
    mm = mat_mul_plain
    u = _msub(r, _mT(r))
    Lp = [left_mult_plain(prec_c, i) for i in range(n)]
    Rp = [right_mult_plain(prec_c, j) for j in range(n)]
    Ld = [left_mult_plain(dot, i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            if i <= j:
                M = _act(Lp, prec_c[i][j])
                res = _madd(mm(M, u), mm(u, _mT(M)))
                res = _msub(res, mm(Lp[j], mm(u, _mT(Lp[i]))))
                res = _msub(res, mm(Lp[i], mm(u, _mT(Lp[j]))))
                out += nonzero_entries("coboundary-1", res, (i, j))
            res2 = mm(Rp[j], _madd(mm(Ld[i], u), mm(u, _mT(Ld[i]))))
            out += nonzero_entries("coboundary-2", res2, (i, j))
    return out


def rr_brackets_plain(prec_c, succ_c, r):
    """The two quadratic tensors of r over a product pair, entry by entry."""
    n = len(prec_c)
    dot, br = _sum_and_bracket(prec_c, succ_c)
    rng = range(n)
    first, second = {}, {}
    for u in rng:
        for v in rng:
            for w in rng:
                first[u, v, w] = sum(
                    (r[u][q] * r[v][t] * dot[q][t][w] for q in rng for t in rng),
                    Fraction(0)) + sum(
                    (r[u][q] * r[s][w] * dot[q][s][v] for q in rng for s in rng),
                    Fraction(0)) + sum(
                    (r[p][v] * r[s][w] * prec_c[p][s][u] for p in rng for s in rng),
                    Fraction(0))
                second[u, v, w] = sum(
                    (r[p][v] * r[s][w] * succ_c[p][s][u] for p in rng for s in rng),
                    Fraction(0)) - sum(
                    (r[u][q] * r[s][w] * succ_c[q][s][v] for q in rng for s in rng),
                    Fraction(0)) - sum(
                    (r[u][q] * r[v][t] * br[q][t][w] for q in rng for t in rng),
                    Fraction(0))
    return _from_dict(first, (n, n, n)), _from_dict(second, (n, n, n))


def double_r_violations(prec_c, succ_c, r):
    """drinfeld_double's closure conditions of r on the double's pair:
    double-r-1 (Ld_i u + u Ld_i^T) and double-r-3 (u Ls_i^T + ad_i u)
    interleaved entry by entry, indices (i, a, b); then double-r-2, the
    coboundary-1 condition, indices (i, j, a, b)."""
    n = len(prec_c)
    dot, br = _sum_and_bracket(prec_c, succ_c)
    mm = mat_mul_plain
    u = _msub(r, _mT(r))
    out = []
    for i in range(n):
        Ld, Ls, ad = (left_mult_plain(c, i) for c in (dot, succ_c, br))
        m1 = _madd(mm(Ld, u), mm(u, _mT(Ld)))
        m3 = _madd(mm(u, _mT(Ls)), mm(ad, u))
        for a in range(n):
            for b in range(n):
                if m1[a][b]:
                    out.append(("double-r-1", (i, a, b), m1[a][b]))
                if m3[a][b]:
                    out.append(("double-r-3", (i, a, b), m3[a][b]))
    return out + [("double-r-2", idx, x) for where, idx, x
                  in coboundary_violations(prec_c, succ_c, r) if where == "coboundary-1"]


def coproduct_compat_violations(c, alpha):
    """slsba's coproduct-compat identity alpha(e_i e_j) = L_i alpha_j +
    alpha_j L_i^T + alpha_i R_j^T on each (i, j); indices (i, j, a, b)."""
    n = len(c)
    mm = mat_mul_plain
    out = []
    for i in range(n):
        L = left_mult_plain(c, i)
        for j in range(n):
            rhs = _madd(mm(L, alpha[j]), _madd(mm(alpha[j], _mT(L)),
                                               mm(alpha[i], _mT(right_mult_plain(c, j)))))
            out += nonzero_entries("coproduct-compat", _msub(_act(alpha, c[i][j]), rhs), (i, j))
    return out


def co_left_symmetry_plain(alpha):
    """Per basis vector e_i, with A = alpha_i: D[a][b][c] - D[b][a][c] for
    D[a][b][c] = sum_p A[p][c] alpha[p][a][b] - sum_q A[a][q] alpha[q][b][c]."""
    n = len(alpha)
    out = []
    for i in range(n):
        A = alpha[i]

        def d(a, b, c):
            return (sum((A[p][c] * alpha[p][a][b] for p in range(n)), Fraction(0))
                    - sum((A[a][q] * alpha[q][b][c] for q in range(n)), Fraction(0)))

        out.append(tuple(tuple(tuple(d(a, b, c) - d(b, a, c) for c in range(n))
                               for b in range(n)) for a in range(n)))
    return out


def plsca_violations(alpha, beta):
    """plsca_check's violations in one loop over (i, p, q): co-commutativity
    alpha_i[p][q] - alpha_i[q][p] at (i, p, q), then for each s the
    co-compatibility
        sum_k B[p][k] alpha[k][q][s] - A[k][s] ab[k][p][q] - A[q][k] ab[k][p][s]
    and the co-left-symmetry of beta at (i, p, q, s); A = alpha_i,
    B = beta_i and ab = alpha + beta."""
    n = len(alpha)
    ab = [_madd(alpha[k], beta[k]) for k in range(n)]
    cls = co_left_symmetry_plain(beta)
    out = []
    for i in range(n):
        A, B = alpha[i], beta[i]
        for p in range(n):
            for q in range(n):
                if A[p][q] - A[q][p]:
                    out.append(("co-commutativity", (i, p, q), A[p][q] - A[q][p]))
                for s in range(n):
                    x = sum((B[p][k] * alpha[k][q][s] - A[k][s] * ab[k][p][q]
                             - A[q][k] * ab[k][p][s] for k in range(n)), Fraction(0))
                    if x:
                        out.append(("co-compatibility", (i, p, q, s), x))
                    if cls[i][p][q][s]:
                        out.append(("co-left-symmetry", (i, p, q, s), cls[i][p][q][s]))
    return out


def slsba_coboundary_plain(c, r):
    """alpha_i = r R_i^T and the action-condition (L_i r + r L_i^T) R_j^T on
    each (i, j); indices (i, j, a, b)."""
    n = len(c)
    mm = mat_mul_plain
    R = [right_mult_plain(c, i) for i in range(n)]
    alpha = tuple(mm(r, _mT(R[i])) for i in range(n))
    out = []
    for i in range(n):
        L = left_mult_plain(c, i)
        base = _madd(mm(L, r), mm(r, _mT(L)))
        for j in range(n):
            out += nonzero_entries("action-condition", mm(base, _mT(R[j])), (i, j))
    return alpha, out


def conn_e_violations(conn_c, e):
    """check_parakahler's conn-E-symmetric residual on each i < j:
    conn(e_i, E e_j) - E conn(e_i, e_j) minus the same with i and j swapped."""
    n = len(conn_c)
    ecols = [tuple(e[a][j] for a in range(n)) for j in range(n)]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            di = _vsub(product_vec(conn_c, _basis(n, i), ecols[j]),
                       mat_vec_plain(e, conn_c[i][j]))
            dj = _vsub(product_vec(conn_c, _basis(n, j), ecols[i]),
                       mat_vec_plain(e, conn_c[j][i]))
            res = _vsub(di, dj)
            if any(res):
                out.append(("conn-E-symmetric", (i, j), res))
    return out


def flat_violations(br_c, conn_c):
    """check_flat's violations: column k of L_i L_j - L_j L_i - L([e_i, e_j])
    on each i < j, L the left multiplications of the connection."""
    n = len(br_c)
    mm = mat_mul_plain
    L = [left_mult_plain(conn_c, i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            cur = _msub(_msub(mm(L[i], L[j]), mm(L[j], L[i])), _act(L, br_c[i][j]))
            for k in range(n):
                col = tuple(cur[a][k] for a in range(n))
                if any(col):
                    out.append(("flat", (i, j, k), col))
    return out


def representation_violations(br_c, rho):
    """check_representation's violations: row a of rho([e_i, e_j]) -
    (rho_i rho_j - rho_j rho_i) on each i < j."""
    n = len(br_c)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            diff = _msub(_act(rho, br_c[i][j]),
                         _msub(mat_mul_plain(rho[i], rho[j]), mat_mul_plain(rho[j], rho[i])))
            for a, row in enumerate(diff):
                if any(row):
                    out.append(("representation", (i, j, a), tuple(row)))
    return out


def post_connection_violations(nabla_c, tilde_c):
    """post_affine_check's identity nabla(e_i, D(e_j, e_k)) = D(e_k,
    tilde(e_i, e_j)) + D(e_j, tilde(e_i, e_k)), D = tilde - nabla, on each
    basis triple."""
    n = len(nabla_c)
    d = tuple(tuple(_vsub(tilde_c[i][j], nabla_c[i][j]) for j in range(n)) for i in range(n))
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = product_vec(nabla_c, _basis(n, i), d[j][k])
                rhs = _vadd(product_vec(d, _basis(n, k), tilde_c[i][j]),
                            product_vec(d, _basis(n, j), tilde_c[i][k]))
                res = _vsub(lhs, rhs)
                if any(res):
                    out.append(("post-connection", (i, j, k), res))
    return out


def phi_cocycle_violations(base_c, l, r, phi):
    """affine_cotangent_extension's cocycle defect r(z)phi(x,y) + phi(x.y, z)
    - l(x)phi(y,z) - phi(x, y.z), minus the same with x and y swapped, on
    each (i, j, k) with i < j."""
    n = len(base_c)

    def cocycle(i, j, k):
        out = mat_vec_plain(r[k], phi[i][j])
        out = _vadd(out, tuple(sum((base_c[i][j][p] * phi[p][k][q] for p in range(n)),
                                   Fraction(0)) for q in range(n)))
        out = _vsub(out, mat_vec_plain(l[i], phi[j][k]))
        return _vsub(out, tuple(sum((base_c[j][k][p] * phi[i][p][q] for p in range(n)),
                                    Fraction(0)) for q in range(n)))

    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                res = _vsub(cocycle(i, j, k), cocycle(j, i, k))
                if any(res):
                    out.append(("phi-cocycle", (i, j, k), res))
    return out


def lsa_from_symplectic_plain(br_c, w):
    """The product with w(e_i . e_k, e_j) = w([e_i, e_j], e_k), solved for
    e_i . e_k through the inverse of w^T."""
    n = len(br_c)
    phinv = gauss_inverse(_mT(w))
    return tuple(tuple(
        mat_vec_plain(phinv, tuple(form_value(w, br_c[i][j], _basis(n, k)) for j in range(n)))
        for k in range(n)) for i in range(n))


def plsa_from_special_symplectic_plain(br_c, conn_c, w):
    """w(x prec y, z) = -w(y, z . x) and w(x succ y, z) = w(y, [z, x]),
    solved through the inverse of w^T."""
    n = len(br_c)
    phinv = gauss_inverse(_mT(w))
    prec, succ = [], []
    for i in range(n):
        prow, srow = [], []
        for j in range(n):
            ej = _basis(n, j)
            prow.append(mat_vec_plain(phinv, tuple(-form_value(w, ej, conn_c[k][i])
                                                   for k in range(n))))
            srow.append(mat_vec_plain(phinv, tuple(form_value(w, ej, br_c[k][i])
                                                   for k in range(n))))
        prec.append(tuple(prow))
        succ.append(tuple(srow))
    return tuple(prec), tuple(succ)


# --- products on a sum of two spaces, block by block with plain loops (vs
# constructions.glue_product and its callers: matched.build_double_plsa, the
# semidirect bracket, the doubles and affine_cotangent_extension); an action
# is a tuple of matrices, t[i][k][j] the e_k coefficient of e_i acting on
# e_j ---

def t3_is_zero(t):
    """Whether every entry of the rank-3 tensor t is zero, by a plain loop."""
    for plane in t:
        for row in plane:
            for x in row:
                if x != 0:
                    return False
    return True


def _zero3(d):
    return [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]


def _frozen(c):
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def glue_plain(c1, c2, l1, r1, l2, r2):
    """(x+a)(y+b) = (x.y + l2(a)y + r2(b)x) + (a.b + l1(x)b + r1(y)a)."""
    n, m = len(c1), len(c2)
    c = _zero3(n + m)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = c1[i][j][k]
    for a in range(m):
        for b in range(m):
            for k in range(m):
                c[n + a][n + b][n + k] = c2[a][b][k]
    for i in range(n):
        for b in range(m):
            for k in range(n):
                c[i][n + b][k] = r2[b][k][i]
                c[n + b][i][k] = l2[b][k][i]
            for k in range(m):
                c[i][n + b][n + k] = l1[i][k][b]
                c[n + b][i][n + k] = r1[i][k][b]
    return _frozen(c)


def double_plsa_plain(precA, succA, precB, succB):
    """The product pair on A + A*: each side's pair on its diagonal block and,
    for e_i in A and f_a in A*, with o the sum product of each side,

        e_i prec f_a = f_a prec e_i = -sum_k (f_k o f_a)_i e_k
                                      - sum_k (e_k o e_i)_a f_k,
        e_i succ f_a = sum_k (f_k succ f_a)_i e_k - sum_k [e_i, e_k]_a f_k,
        f_a succ e_i = -sum_k [f_a, f_k]_i e_k + sum_k (e_k succ e_i)_a f_k.
    """
    n = len(precA)
    dotA, brA = _sum_and_bracket(precA, succA)
    dotB, brB = _sum_and_bracket(precB, succB)
    prec, succ = _zero3(2 * n), _zero3(2 * n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prec[i][j][k], succ[i][j][k] = precA[i][j][k], succA[i][j][k]
                prec[n + i][n + j][n + k] = precB[i][j][k]
                succ[n + i][n + j][n + k] = succB[i][j][k]
    for i in range(n):
        for a in range(n):
            for k in range(n):
                prec[i][n + a][k] = prec[n + a][i][k] = -dotB[k][a][i]
                prec[i][n + a][n + k] = prec[n + a][i][n + k] = -dotA[k][i][a]
                succ[i][n + a][k] = succB[k][a][i]
                succ[i][n + a][n + k] = -brA[i][k][a]
                succ[n + a][i][k] = -brB[a][k][i]
                succ[n + a][i][n + k] = succA[k][i][a]
    return _frozen(prec), _frozen(succ)


def semidirect_plain(br, rho):
    """[(x,u),(y,v)] = ([x,y], rho(x)v - rho(y)u)."""
    n, m = len(br), len(rho[0])
    c = _zero3(n + m)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = br[i][j][k]
        for j in range(m):
            for k in range(m):
                c[i][n + j][n + k] = rho[i][k][j]
                c[n + j][i][n + k] = -rho[i][k][j]
    return _frozen(c)


def double_conn_plain(conn, rho):
    """The doubled connection ((x,u),(y,v)) -> (conn_x y, rho(x)v)."""
    n, m = len(conn), len(rho[0])
    c = _zero3(n + m)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = conn[i][j][k]
        for j in range(m):
            for k in range(m):
                c[i][n + j][n + k] = rho[i][k][j]
    return _frozen(c)


def antidiagonal_plain(upper, lower):
    """The matrix [[0, upper], [lower, 0]]."""
    n = len(upper)
    g = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            g[i][n + j] = upper[i][j]
            g[n + i][j] = lower[i][j]
    return tuple(tuple(row) for row in g)


def block_plain(a, b, c, d):
    """The matrix [[a, b], [c, d]] of four n x n blocks, entry by entry."""
    n = len(a)
    g = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            g[i][j], g[i][n + j] = a[i][j], b[i][j]
            g[n + i][j], g[n + i][n + j] = c[i][j], d[i][j]
    return tuple(tuple(row) for row in g)


def scalar_plain(n, q):
    """q times the n x n identity."""
    return tuple(tuple(Fraction(q) if i == j else Fraction(0) for j in range(n))
                 for i in range(n))


def family_plain(double, omega, p):
    """(J, E, g) of the hypersymplectic package of the family point p on the
    tangent or cotangent double of a special symplectic package with the
    n x n form omega, entry by entry from the definitions: f is the identity
    (tangent) or omega^T (cotangent), N(l1, l2, l3, l4) is the block matrix
    [[l2 I, l1 f^-1], [l3 f, l4 I]], J = N(lam, mu, -(1 + mu^2)/lam, -mu), E
    the family's N, and g is [[0, omega], [omega^T, 0]] (tangent) or
    [[0, I], [I, 0]] (cotangent)."""
    n = len(omega)
    one = scalar_plain(n, 1)
    if double == "tangent":
        f, g = one, antidiagonal_plain(omega, [[omega[j][i] for j in range(n)] for i in range(n)])
    else:
        f, g = [[omega[j][i] for j in range(n)] for i in range(n)], antidiagonal_plain(one, one)
    finv = gauss_inverse(f)

    def N(l1, l2, l3, l4):
        return block_plain(scalar_plain(n, l2), [[l1 * x for x in row] for row in finv],
                           [[l3 * x for x in row] for row in f], scalar_plain(n, l4))

    lam, mu, sg = Fraction(p.lam), Fraction(p.mu), p.sign
    J = N(lam, mu, -(1 + mu * mu) / lam, -mu)
    if p.family == "F1":
        E = N(0, sg, -2 * sg * mu / lam, -sg)
    elif p.family == "F2":
        E = N(sg * 2 * mu * lam / (1 + mu * mu), sg, 0, -sg)
    else:
        k = Fraction(p.k)
        q = 1 - k * k / (lam * lam)
        s = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
        assert s * s == q
        e2 = k * mu / lam + sg * s
        E = N(k, e2, (1 - e2 * e2) / k, -e2)
    return J, E, g


def pair_violations_plain(n, items):
    """(where, (i, j, a, b), Fraction(x, den)) for each nonzero int x at
    (a, b) of plane i * n + j of each item (where, num, den, keep), num the
    nested int lists of a stacked tensor, on the pairs where keep is None or
    keep(i, j): nested loops over i, j, the items, a and b."""
    out = []
    for i in range(n):
        for j in range(n):
            for where, num, den, keep in items:
                if keep is not None and not keep(i, j):
                    continue
                plane = num[i * n + j]
                for a in range(len(plane)):
                    for b in range(len(plane[a])):
                        if plane[a][b] != 0:
                            out.append((where, (i, j, a, b), Fraction(plane[a][b], den)))
    return out


def affine_product_plain(base, l, r, phi):
    """(x,a*)(y,b*) = (x.y, l(x)b* + r(y)a* + phi(x,y))."""
    n = len(base)
    c = _zero3(2 * n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = base[i][j][k]
                c[i][j][n + k] = phi[i][j][k]
                c[i][n + j][n + k] = l[i][k][j]
                c[n + j][i][n + k] = r[i][k][j]
    return _frozen(c)


def coproducts_from_products(prec, succ):
    """The coproduct pair whose dual products are prec and succ (the inverse
    of CoproductPair.dual): alpha[k][p][q] = prec.c[p][q][k]."""
    n = prec.n
    alpha = tuple(tuple(tuple(prec.c[p][q][k] for q in range(n)) for p in range(n))
                  for k in range(n))
    beta = tuple(tuple(tuple(succ.c[p][q][k] for q in range(n)) for p in range(n))
                 for k in range(n))
    return CoproductPair(n, alpha, beta)


# --- the .alg emitter as one loop per section (vs the section table) ---

def _terms_plain(v):
    return " + ".join("%s*e%d" % (q, k + 1) for k, q in enumerate(v) if q != 0)


def emit_plain(af):
    """Canonical .alg text of af: sections op, form, map, tensor2, rep,
    labels sorted, indices ascending, zero entries omitted."""
    lines = ["algebra %s" % af.name, "dim %d" % af.dim]
    n = af.dim
    for label in sorted(af.ops):
        t = af.ops[label]
        for i in range(n):
            for j in range(n):
                body = _terms_plain(t.c[i][j])
                if body:
                    lines.append("op %s %d %d = %s" % (label, i + 1, j + 1, body))
    for label in sorted(af.forms):
        m = af.forms[label].m
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    lines.append("form %s %d %d = %s" % (label, i + 1, j + 1, m[i][j]))
    for label in sorted(af.maps):
        m = af.maps[label].m
        for i in range(n):
            body = _terms_plain(tuple(m[a][i] for a in range(n)))
            if body:
                lines.append("map %s %d = %s" % (label, i + 1, body))
    for label in sorted(af.tensor2s):
        m = af.tensor2s[label]
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    lines.append("tensor2 %s %d %d = %s" % (label, i + 1, j + 1, m[i][j]))
    for label in sorted(af.reps):
        t = af.reps[label].t
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[i][j][k]:
                        lines.append("rep %s %d %d %d = %s"
                                     % (label, i + 1, j + 1, k + 1, t[i][j][k]))
    return "\n".join(lines) + "\n"


# --- sparse plain loops for the dims the iterated doubles reach (16 and
# up), where the dense loops above are too slow: the same identities, the
# same violations in the same order, with a vector a dict {index: nonzero
# Fraction} and a rank-3 tensor read through its nonzero rows (vs
# check_plsa and check_matched_pair) ---

def sparse_rows(t):
    """{(a, b): {c: t[a][b][c]}} over the nonzero entries of a rank-3 tensor."""
    out = {}
    for a, plane in enumerate(t):
        for b, row in enumerate(plane):
            for c, q in enumerate(row):
                if q:
                    out.setdefault((a, b), {})[c] = q
    return out


def _sv_sum(terms):
    """sum f * v over the (f, v) of terms, its zero entries dropped."""
    out = {}
    for f, v in terms:
        for k, q in v.items():
            out[k] = out.get(k, 0) + f * q
    return {k: q for k, q in out.items() if q}


def _sv_product(rows, u, v):
    """u o v for the nonzero rows of a product."""
    return _sv_sum((p * q, rows.get((i, j), {})) for i, p in u.items() for j, q in v.items())


def sparse_planes(t):
    """{i: {a: {b: t[i][a][b]}}} over the nonzero entries of an action t."""
    out = {}
    for (i, a), row in sparse_rows(t).items():
        out.setdefault(i, {})[a] = row
    return out


def _sv_act(planes, x, v):
    """(sum_i x_i t[i]) v for the sparse_planes of an action t, whose t[i]
    acts on column vectors."""
    out = {}
    for i, p in x.items():
        for a, row in planes.get(i, {}).items():
            for b, q in row.items():
                if b in v:
                    out[a] = out.get(a, 0) + p * q * v[b]
    return {a: q for a, q in out.items() if q}


def _sv_dense(v, n):
    return tuple(v.get(k, Fraction(0)) for k in range(n))


def left_symmetric_sparse(c):
    """left_symmetric_violations by sparse loops."""
    n, rows = len(c), sparse_rows(c)

    def assoc(i, j, k):  # (e_i o e_j) o e_k - e_i o (e_j o e_k)
        return _sv_sum(((1, _sv_product(rows, rows.get((i, j), {}), {k: 1})),
                        (-1, _sv_product(rows, {i: 1}, rows.get((j, k), {})))))
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                r = _sv_sum(((1, assoc(i, j, k)), (-1, assoc(j, i, k))))
                if r:
                    out.append(("left-symmetric", (i, j, k), _sv_dense(r, n)))
    return out


def plsa_compat_sparse(prec_c, succ_c):
    """plsa_compat_violations by sparse loops."""
    n, P, S = len(prec_c), sparse_rows(prec_c), sparse_rows(succ_c)
    dot = {key: _sv_sum(((1, P.get(key, {})), (1, S.get(key, {})))) for key in {*P, *S}}
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = _sv_sum(((1, _sv_product(S, {i: 1}, P.get((j, k), {}))),
                             (-1, _sv_product(P, dot.get((i, j), {}), {k: 1})),
                             (-1, _sv_product(P, {j: 1}, dot.get((i, k), {})))))
                if r:
                    out.append(("compatibility", (i, j, k), _sv_dense(r, n)))
    return out


def bimodule_sparse(c, l, r):
    """bimodule_violations by sparse loops: each matrix identity evaluated
    on the basis vectors e_b, its entries then listed row by row."""
    n, m, C, L, R = len(c), len(l[0]), sparse_rows(c), sparse_planes(l), sparse_planes(r)
    # lb[j][b] = l(e_j) e_b and rb[j][b] = r(e_j) e_b
    lb = [[_sv_act(L, {j: 1}, {b: 1}) for b in range(m)] for j in range(n)]
    rb = [[_sv_act(R, {j: 1}, {b: 1}) for b in range(m)] for j in range(n)]

    def entries(where, cols):
        return [(where, (a, b), cols[b][a]) for a in range(m) for b in range(m)
                if a in cols[b]]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = {i: 1}, {j: 1}
            out += entries("bimodule-1 at (%d,%d)" % (i, j), [_sv_sum((
                (1, _sv_act(L, ei, lb[j][b])), (-1, _sv_act(L, C.get((i, j), {}), {b: 1})),
                (-1, _sv_act(L, ej, lb[i][b])), (1, _sv_act(L, C.get((j, i), {}), {b: 1}))))
                for b in range(m)])
    for i in range(n):
        for j in range(n):
            ei, ej = {i: 1}, {j: 1}
            out += entries("bimodule-2 at (%d,%d)" % (i, j), [_sv_sum((
                (1, _sv_act(L, ei, rb[j][b])), (-1, _sv_act(R, ej, lb[i][b])),
                (-1, _sv_act(R, C.get((i, j), {}), {b: 1})), (1, _sv_act(R, ej, rb[i][b]))))
                for b in range(m)])
    return out


def mixed_compat_sparse(c, lA, rA, lB, rB, name1, name2):
    """mixed_compat_violations by sparse loops."""
    n, m, C = len(c), len(lB), sparse_rows(c)
    LA, RA, LB, RB = map(sparse_planes, (lA, rA, lB, rB))
    out = []
    for d in range(m):
        f = {d: 1}
        # per basis vector e_i: lA(e_i) f, rA(e_i) f, lB(f) e_i and rB(f) e_i
        la, ra = ([_sv_act(T, {i: 1}, f) for i in range(n)] for T in (LA, RA))
        lb, rb = ([_sv_act(T, f, {i: 1}) for i in range(n)] for T in (LB, RB))
        for i in range(n):
            ei = {i: 1}
            for j in range(n):
                ej = {j: 1}
                if i < j:
                    res = _sv_sum((
                        (1, _sv_act(RB, f, C.get((i, j), {}))),
                        (-1, _sv_act(RB, f, C.get((j, i), {}))),
                        (-1, _sv_act(RB, la[j], ei)), (1, _sv_act(RB, la[i], ej)),
                        (-1, _sv_product(C, ei, rb[j])), (1, _sv_product(C, ej, rb[i]))))
                    if res:
                        out.append((name1, (i, j, d), _sv_dense(res, n)))
                res = _sv_sum((
                    (1, _sv_act(LB, f, C.get((i, j), {}))),
                    (1, _sv_act(LB, la[i], ej)), (-1, _sv_act(LB, ra[i], ej)),
                    (-1, _sv_product(C, lb[i], ej)), (1, _sv_product(C, rb[i], ej)),
                    (-1, _sv_act(RB, ra[j], ei)), (-1, _sv_product(C, ei, lb[j]))))
                if res:
                    out.append((name2, (i, j, d), _sv_dense(res, n)))
    return out


# --- seeded random rational data ---

_POOL = [Fraction(q) for q in
         (0, 0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2),
          Fraction(1, 3), Fraction(-2, 3))]


def rng(seed):
    return random.Random(seed)


def rand_q(r):
    return r.choice(_POOL)


def rand_vec(r, n):
    return tuple(rand_q(r) for _ in range(n))


def rand_mat(r, n, m=None):
    m = n if m is None else m
    return tuple(tuple(rand_q(r) for _ in range(m)) for _ in range(n))


def rand_invertible(r, n):
    while True:
        m = rand_mat(r, n)
        if gauss_inverse(m) is not None:
            return m


def rand_tensor(r, n):
    return tuple(tuple(tuple(rand_q(r) for _ in range(n))
                       for _ in range(n)) for _ in range(n))


def rand_over(r, shape, den):
    """A dense tensor of the given shape whose entries are k/den, k in
    -3..3, with the first entry 1/den, so that den is the lcm of its
    denominators."""
    d0, d1, d2 = shape
    t = [[[Fraction(r.randint(-3, 3), den) for _ in range(d2)] for _ in range(d1)]
         for _ in range(d0)]
    t[0][0][0] = Fraction(1, den)
    return tuple(tuple(map(tuple, plane)) for plane in t)


def rand_share_tensor(r, n, share):
    """An n x n x n tensor whose entries are each nonzero (from _POOL) with
    probability share and Fraction(0) otherwise: share 0 gives the zero
    tensor, 1 a tensor with no zero entry."""
    nonzero = [q for q in _POOL if q]
    return tuple(tuple(tuple(r.choice(nonzero) if r.random() < share else Fraction(0)
                             for _ in range(n)) for _ in range(n)) for _ in range(n))


def transport_product(c, p):
    """Structure constants of the conjugated product x o' y = P^-1(Px o Py)."""
    n = len(c)
    pinv = gauss_inverse(p)
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            img = product_vec(c, tuple(p[a][i] for a in range(n)),
                              tuple(p[a][j] for a in range(n)))
            w = tuple(sum(pinv[k][a] * img[a] for a in range(n))
                      for k in range(n))
            for k in range(n):
                out[i][j][k] = w[k]
    return tuple(tuple(tuple(row) for row in plane) for plane in out)
