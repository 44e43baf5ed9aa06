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
