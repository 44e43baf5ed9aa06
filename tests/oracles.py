"""Independent reference implementations used to cross-check the package.

Everything here is written directly from definitions with plain loops and
Fraction arithmetic, deliberately avoiding the package's own linear algebra
and checker code paths.
"""

import random
from fractions import Fraction


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
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k))
                       for j in range(m)) for i in range(n))


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


# --- the matched-pair route, one basis tuple at a time through dense
# matrices and full products (vs checks.check_bimodule and matched._mixed_12;
# an action is a tuple of square matrices, one per basis vector) ---

def _mat_vec(m, v):
    return tuple(sum((m[a][b] * v[b] for b in range(len(v))), Fraction(0))
                 for a in range(len(m)))


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
                    res = _mat_vec(rB[d], _vsub(c[i][j], c[j][i]))
                    res = _vsub(res, _mat_vec(_act(rB, _mat_vec(lA[j], f)), ei))
                    res = _vadd(res, _mat_vec(_act(rB, _mat_vec(lA[i], f)), ej))
                    res = _vsub(res, product_vec(c, ei, _mat_vec(rB[d], ej)))
                    res = _vadd(res, product_vec(c, ej, _mat_vec(rB[d], ei)))
                    if any(res):
                        out.append((name1, (i, j, d), res))
                res = _mat_vec(lB[d], c[i][j])
                res = _vadd(res, _mat_vec(
                    _act(lB, _vsub(_mat_vec(lA[i], f), _mat_vec(rA[i], f))), ej))
                res = _vsub(res, product_vec(
                    c, _vsub(_mat_vec(lB[d], ei), _mat_vec(rB[d], ei)), ej))
                res = _vsub(res, _mat_vec(_act(rB, _mat_vec(rA[j], f)), ei))
                res = _vsub(res, product_vec(c, ei, _mat_vec(lB[d], ej)))
                if any(res):
                    out.append((name2, (i, j, d), res))
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
