"""Structure-constant data model and pointwise axiom verifiers.

An n-dimensional bilinear operation is a StructureTensor: c[i][j][k] is the
e_k coefficient of e_i o e_j.  A representation is a RepTensor, t[i] the
matrix of e_i; a bilinear form is a Form and an endomorphism an Endo, m
their n x n matrix over Fraction.  Every verifier returns a CheckReport
listing each violating basis tuple with its exact residual.  violations
lists the nonzero residuals, int numerators over the den it is given, at
the basis tuples it is given, mat_violations those of one Scaled matrix or
Packed tensor, row by row, and _scatter those of the sparse identities
below; bialgebra._pair_violations is the one collector of bialgebra's stacked
families.  A collector keeps each residual as its int numerators over one
den, an int or a row of ints (Violation.of, .numerators), and residual is
a view, a Fraction or a tuple of them, built on its first read; equality,
hashing, repr and pickling are the dataclass's, through the view.
prefixed renames violations for a parent report and keeps their
numerators.  require turns a failing report into the caller's typed error,
and require_dims objects of different n into DimensionMismatch.

A StructureTensor or RepTensor is stored as its dimensions and its nonzero
list .nonzeros = (den, nz), row-wise sparse (Gustavson 1978): nz[i][j]
lists (k, x), k increasing, for each nonzero entry x / den, x an int; a
list is never mutated.  The dense constructor lists its entries once
(_nonzeros, den their lcm); a producer that holds a list passes it to
.listed, den perhaps a multiple of that lcm: sums (_nonzeros_sum),
negations and leg permutations (_permuted), glue_product's six blocks
(_rebucket), st, rep_zero and a Packed result's kept list
(linalg.Packed.nonzeros).  c (t for a RepTensor) is a view of nested
Fraction tuples built on its first read, linalg.ZERO at a zero entry; no
route reads it.  .scaled packs the list (linalg.packed_sparse) for the
routes that contract whole rows; the routes that read single entries
(_by_form, _torsion) walk the list itself and build no dense plane.

A Form or Endo is stored as its Scaled rows .scaled: lists of int rows over
one positive den, which need not be the least.  A producer that holds rows
passes them to .listed(n, rows): the block matrices of linalg.scaled_blocks
(the doubles' metrics, the skew pairing, the hypersymplectic operators and
the gluing identity), phi_from_omega's transpose and three_forms'
contractions.  m is a view built from the rows on its first read
(linalg.unscaled), linalg.ZERO at a zero entry; no verifier reads it, so a
family is built and verified on ints.  The dense constructor Form(n, m)
keeps m and takes scaled() of it on first use.  .scaled_t is the transpose,
zipped once.  For all four types equality and hashing are the dataclass's,
on the fields, so they read the view.

Every identity on basis tuples takes one of two routes.  The kernel route
contracts on the exact integer kernel of linalg, whose module docstring
gives the one account of it.  Here, check_closed and check_parallel_form
share one product of an operation by the form (_by_form), each row (a, b)
summed from the listed entries of that row times the nonzero entries of
the form's rows, and read each tuple's residual off it.  torsion_violations
lists the Nijenhuis torsion row by row, walking the bracket's list and the
nonzero columns of N (_torsion, row-wise as Gustavson 1978), only the rows
j > i it reads, and keeps a violating pair's row of numerators;
nijenhuis_torsion takes every row from the same core, as its list.  Both
multiply listed entries only (_combination).  The matrix identities
(N^2 = +-id, JE = -EJ, N^T B N = +-B) and three_forms go through
_mat_chain, and skewness and symmetry compare int rows; ranks and
eigenspace dimensions eliminate fresh copies of those rows (_sub_scalar).
No Fraction is built until a violation's residual is read.

The other route, off the kernel, is the independent cross-checks:
check_plsa, check_left_symmetric, check_jacobi, check_bimodule, check_flat,
check_representation, matched._mixed_12 and the phi-cocycle and
post-connection identities of constructions.  Each identity is declared
once as signed terms (sign, X, xlegs, Y, ylegs), each sign * sum_s X[xlegs]
Y[ylegs] for a StructureTensor or RepTensor X and Y whose legs name the
index they bind: s the summed one, t the entry of the residual vector (a
leg of Y), and the others the indices of the reported tuple, two bound by X
and one by Y.  One loop, _scatter, evaluates them all by scatter: for each
nonzero X[..][..][s] it walks the nonempty rows of Y that meet s and adds
each product into one int slot list per tuple it lands on, so a tuple no
product lands on costs nothing.  Each tensor's list is read with its legs
reordered (_view, each view kept on the tensor by its leg order), and each
identity brings its terms over one common denominator by one int factor per
term, so a slot sums ints and a nonzero residual keeps its slot as its
numerators.  A hit is the tuple the route reports: the identity's chain
names the indices that increase along its tuples (i < j for the half of a
defect antisymmetric in i and j, i < j < k for Jacobi's cyclic sum), and a
product off the chain is skipped, on X's two indices before its row is
walked and on Y's while it is: Y's rows come in increasing order of that
index, so the walk skips a row below the chain and stops at the first above
it.  Violations come in the lexicographic order of their tuples, identity 1
before identity 2 at one tuple; a caller that lists them otherwise sorts
them stably (matched._mixed_12 by c, check_bimodule by identity, all of
bimodule-1 before bimodule-2).  check_plsa reads the sum product as the
listed sum of prec and succ, and only the verdict of its left-symmetry, off
the hits: no violation is built for it.

A self-check fails one way: an explicit InternalMismatch raise, which
survives python -O.  check_plsa, check_special_symplectic,
check_hypersymplectic and constructions.post_affine_check each test an
implication between verdicts: when every hypothesis it uses passes, as the
verifiers check them, and its consequence fails, they raise.  torsion-free
and closed read pairs i < j and triples i < j < k only, so an implication
through them needs Jacobi for its antisymmetry half.  Each docstring gives
the condition and the argument for it.  On input that fails a hypothesis
nothing is raised; a disagreement a verifier records there is a note.

A frozen input is verified once per object (linalg._once; the linalg
docstring gives the one account of what is kept): check_jacobi, check_plsa,
check_left_symmetric, check_special_symplectic, check_nondegenerate,
square_violations, anticommute_violations and bialgebra.plsca_check keep
their result on their first operand, the others its partners, so a chain
finds the preconditions it has verified kept.  The views c, t, m, residual
and bialgebra's alpha and beta are linalg._kept fields.
"""

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from math import lcm
from operator import itemgetter

from .linalg import (
    ZERO,
    DimensionMismatch,
    InternalMismatch,
    Packed,
    Scaled,
    _kept,
    _once,
    fractions,
    int_mat_mul,
    int_rank,
    packed_sparse,
    scaled,
    unscaled,
)


def _dense(obj):
    """The dense view of a _Stored tensor, built from its list."""
    (den, nz), cols = obj.nonzeros, obj.shape[2]
    zrow = (ZERO,) * cols
    return tuple(tuple([_row(cols, den, r) if r else zrow for r in plane]) for plane in nz)


class _Stored:
    """The stored form of StructureTensor and RepTensor (module docstring):
    listed(*dimensions, nonzeros) takes a list as it is."""

    def __post_init__(self):
        self.__dict__["nonzeros"] = _nonzeros(getattr(self, fields(self)[-1].name))

    @classmethod
    def listed(cls, *args):
        obj = object.__new__(cls)
        obj.__dict__.update(zip([f.name for f in fields(cls)], args[:-1]), nonzeros=args[-1])
        return obj


@dataclass(frozen=True)
class StructureTensor(_Stored):
    n: int
    c: tuple = _kept(_dense)  # c[i][j][k]: e_i o e_j = sum_k c[i][j][k] e_k

    @_kept
    def scaled(self):
        """The Packed form of linalg, packed from the list once, for every
        kernel route."""
        return packed_sparse(*self.nonzeros, self.n)

    shape = property(lambda self: (self.n, self.n, self.n))


class _ScaledMatrix:
    """The stored form of Form and Endo (module docstring): listed(n, rows)
    takes Scaled rows as they are.  .scaled and .scaled_t are no fields:
    equality, hashing and dataclasses.fields see n and m only."""

    @classmethod
    def listed(cls, n, rows):
        obj = object.__new__(cls)
        obj.__dict__.update(n=n, scaled=rows)
        return obj

    @_kept
    def scaled(self):
        return scaled(self.m)

    @_kept
    def scaled_t(self):
        return self.scaled.transposed()


def _dense_matrix(obj):
    """The dense view of a Form or Endo, built from its Scaled rows."""
    return unscaled(obj.scaled)


@dataclass(frozen=True)
class Form(_ScaledMatrix):
    n: int
    m: tuple = _kept(_dense_matrix)  # m[i][j] = B(e_i, e_j)


@dataclass(frozen=True)
class Endo(_ScaledMatrix):
    n: int
    m: tuple = _kept(_dense_matrix)  # acts on column coordinates


@dataclass(frozen=True)
class RepTensor(_Stored):
    n: int  # acting algebra dimension
    m: int  # module dimension
    t: tuple = _kept(_dense)  # t[i] = the m x m matrix of rho(e_i)
    shape = property(lambda self: (self.n, self.m, self.m))


def _residual(v):
    """The residual view of a Violation kept as numerators (Violation.of):
    Fraction(x, den) for an int x, linalg.fractions(xs, den) for an int row."""
    x, den = v.numerators
    return Fraction(x, den) if isinstance(x, int) else fractions(x, den)


@dataclass(frozen=True)
class Violation:
    where: str
    indices: tuple  # 0-based basis indices
    residual: object = _kept(_residual)  # Fraction, or tuple of Fractions

    @classmethod
    def of(cls, where, indices, x, den):
        """The violation whose residual is x / den, for an int x or a row of
        ints x, kept as .numerators = (x, den); residual is the view."""
        obj = object.__new__(cls)
        d = obj.__dict__
        d["where"], d["indices"], d["numerators"] = where, indices, (x, den)
        return obj


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


def require_dims(fmt, *objs):
    """Raise DimensionMismatch(fmt % (each object's n)) unless all of objs
    share one n.  An explicit raise, so it runs under python -O."""
    dims = tuple(obj.n for obj in objs)
    if dims.count(dims[0]) != len(dims):
        raise DimensionMismatch(fmt % dims)


def relabel(rep, name):
    """The report rep under another check name."""
    return CheckReport(name, rep.verdict, rep.violations, rep.notes)


def prefixed(name, viol):
    """The violations viol with each where read as "name: where" (name
    alone for an empty where)."""
    return [_renamed(v, "%s: %s" % (name, v.where) if v.where else name) for v in viol]


def _renamed(v, where):
    """The violation v at where instead: a copy of its state, so a residual
    kept as numerators stays so."""
    obj = object.__new__(Violation)
    obj.__dict__.update(v.__dict__, where=where)
    return obj


def merge_reports(check, parts, extra_violations=(), notes=()):
    """Combine sub-reports, prefixing each violation with its sub-check name."""
    viol = list(extra_violations)
    all_notes = list(notes)
    for sub in parts:
        viol += prefixed(sub.check, sub.violations)
        all_notes.extend("%s: %s" % (sub.check, note) for note in sub.notes)
    return report(check, viol, all_notes)


# ---------------------------------------------------------------------------
# small helpers on the domain types

def st(n, entries=None):
    """StructureTensor from {(i,j,k): coefficient} (0-based), default zero."""
    qs = sorted((idx, Fraction(q)) for idx, q in (entries or {}).items() if q)
    den = lcm(*(q.denominator for _, q in qs))
    nz = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j, k), q in qs:
        nz[i][j].append((k, q.numerator * (den // q.denominator)))
    return StructureTensor.listed(n, (den, nz))


def op_add(a, b):
    require_dims("operations on dimensions %d and %d", a, b)
    return StructureTensor.listed(a.n, _nonzeros_sum(a.nonzeros, b.nonzeros))


def op_sub(a, b):
    require_dims("operations on dimensions %d and %d", a, b)
    return StructureTensor.listed(a.n, _nonzeros_sum(a.nonzeros, _negated(b)))


def sub_adjacent(op):
    """The commutator bracket [x,y] = x o y - y o x, summed on op's list,
    built once per product object (_once), so every caller of one product
    shares one bracket."""
    return _once(op, "sub-adjacent", (), _sub_adjacent, op)


def _sub_adjacent(op):
    return StructureTensor.listed(op.n, _nonzeros_sum(
        op.nonzeros, _permuted(op.nonzeros, op.shape, (1, 0, 2), -1)))


def rep_from_op_left(op):
    """Left multiplications of op packaged as a representation tensor: the
    matrix of e_i is t[i][k][j] = c[i][j][k] on column coordinates."""
    return RepTensor.listed(op.n, op.n, _permuted(op.nonzeros, op.shape, (0, 2, 1)))


def rep_neg(rep):
    return RepTensor.listed(rep.n, rep.m, _negated(rep))


def rep_zero(n, m=None):
    m = n if m is None else m
    return RepTensor.listed(n, m, (1, [[[] for _ in range(m)] for _ in range(n)]))


# ---------------------------------------------------------------------------
# verifiers

def check_skew(B):
    S = B.scaled.num
    return report("skew", violations("skew", combinations_with_replacement(range(B.n), 2),
                                     lambda i, j: S[i][j] + S[j][i], B.scaled.den))


def check_nondegenerate(B):
    """Full rank, evaluated once per form object (_once)."""
    return _once(B, "nondegenerate", (), _nondegenerate, B)


def _nondegenerate(B):
    r = int_rank([list(row) for row in B.scaled.num])  # a copy: int_rank works in place
    viol = []
    if r != B.n:
        viol.append(Violation.of("rank", (), B.n - r, 1))
    return report("nondegenerate", viol)


def _nonzeros(t):
    """(den, nz) of a rank-3 tensor t of Fractions or ints: den is the lcm of
    the denominators of its nonzero entries, and nz[i][j] lists (k, x) with
    the int x = den * t[i][j][k] for each nonzero t[i][j][k]."""
    nz = [[[(k, q) for k, q in enumerate(row) if q] for row in plane] for plane in t]
    rows = [row for plane in nz for row in plane if row]  # rescaled in place, once den is known
    den = lcm(*{q.denominator for row in rows for _, q in row})
    for row in rows:
        row[:] = [(k, q.numerator * (den // q.denominator)) for k, q in row]
    return den, nz


def _nonzeros_sum(x, y):
    """The (den, nz) list of the sum of two tensors of one shape, from their
    lists x and y: den is the lcm of theirs, each numerator list is scaled
    to it by one int factor, coinciding entries are added, and a sum that
    cancels to 0 is dropped.  No numerator is reduced, so den may be a
    multiple of the lcm that _nonzeros of the Fraction sum would give."""
    (dx, nzx), (dy, nzy) = x, y
    den = lcm(dx, dy)
    fx, fy = den // dx, den // dy
    return den, [[_nonzeros_row_sum(ra, rb, fx, fy) for ra, rb in zip(pa, pb)]
                 for pa, pb in zip(nzx, nzy)]


def _nonzeros_row_sum(ra, rb, fa, fb):
    acc = {k: fa * a for k, a in ra}
    for k, b in rb:
        acc[k] = acc.get(k, 0) + fb * b
    return [(k, x) for k, x in sorted(acc.items()) if x]


def _row(cols, den, entries):
    """cols Fractions: x / den at k for each (k, x) of entries, else ZERO."""
    out = [ZERO] * cols
    for k, x in entries:
        out[k] = Fraction(x, den)
    return tuple(out)


def _ints(cols, entries):
    """A tuple of cols ints: x at k for each (k, x) of entries, else 0."""
    out = [0] * cols
    for k, x in entries:
        out[k] = x
    return tuple(out)


def _permuted(nonzeros, shape, perm, sign=1):
    """The list of sign times T'[p][q][r] = T[...], leg perm[0] of T at p,
    perm[1] at q and perm[2] at r, from the list of T of the given shape:
    the entries re-bucketed, none tested again."""
    out = [[[] for _ in range(shape[perm[1]])] for _ in range(shape[perm[0]])]
    _rebucket(out, nonzeros[1], perm, sign)
    return nonzeros[0], out


def _negated(obj):
    """The (den, nz) list of minus the tensor obj."""
    return _permuted(obj.nonzeros, obj.shape, (0, 1, 2), -1)


def _rebucket(out, nz, perm, f, at=(0, 0, 0)):
    """Append f times each entry of the list nz to out, its legs permuted as
    by _permuted, then moved by at; one call appends each row's k in order."""
    (p0, p1, p2), (o0, o1, o2) = perm, at
    for a, plane in enumerate(nz):
        for b, row in enumerate(plane):
            for c, x in row:
                idx = (a, b, c)
                out[idx[p0] + o0][idx[p1] + o1].append((idx[p2] + o2, f * x))


def _fits(obj, n, m):
    """Whether the list of obj holds n planes of m rows, each column below
    m: the shape of an n x m x m action, which a RepTensor's n and m state
    but its dense constructor does not check."""
    nz = obj.nonzeros[1]
    return len(nz) == n and all(len(plane) == m and all(
        not row or row[-1][0] < m for row in plane) for plane in nz)


def _view(obj, perm):
    """(den, g) of the tensor listed by obj.nonzeros with its legs in the
    order perm (_permuted): g[p] lists (q, row) for each nonempty row
    T'[p][q] = [(r, x) ...].  _scatter keeps it on obj under the key perm
    itself (_once): no other key kept on a tensor is a tuple of ints."""
    den, nz = obj.nonzeros
    if perm == (1, 0, 2):  # the rows stay whole
        nz = zip(*nz)
    elif perm != (0, 1, 2):
        den, nz = _permuted(obj.nonzeros, obj.shape, perm)
    return den, [[(q, row) for q, row in enumerate(plane) if row] for plane in nz]


@cache
def _plan(xlegs, ylegs, chain):
    """How _scatter walks the term X[xlegs] Y[ylegs] of an identity whose
    tuples satisfy chain: the leg orders of its views of X (the two bound
    indices x1, x2, then s) and of Y (s, the bound index y, then t), the
    three names bound, cmp (+1 for x1 < x2, -1 for x1 > x2, 0 for no test),
    and which of x1, x2 (1, 2, or 0 for none) bounds y from below and which
    from above."""
    x1, x2 = (a for a in xlegs if a != "s")
    y, = (a for a in ylegs if a not in "st")
    pos = {a: p for p, a in enumerate(chain)}
    cmp = (1 if pos[x1] < pos[x2] else -1) if x1 in pos and x2 in pos else 0
    bounds = [(pos[a], at) for at, a in ((1, x1), (2, x2)) if a in pos and y in pos]
    lo = max([b for b in bounds if b[0] < pos[y]], default=(0, 0))[1]
    hi = min([b for b in bounds if b[0] > pos[y]], default=(0, 0))[1]
    return ((xlegs.index(x1), xlegs.index(x2), xlegs.index("s")),
            (ylegs.index("s"), ylegs.index(y), ylegs.index("t")), (x1, x2, y, cmp, lo, hi))


def _scatter(names, dims, identities):
    """(hits, dens): the sparse identities evaluated by scatter (see the
    module docstring) on the tuples of the three index names, of dims[name]
    values each; dims["t"] is the length of a residual.  Each identity is
    (where, chain, terms), its tuples those on which the indices in chain
    increase.  A hit (k, idx, acc) is a nonzero residual of identity k at
    idx, its int numerators acc over dens[k]; the hits come in the order of
    idx, then k."""
    width, nid = dims["t"], len(identities)
    stride, size = {}, nid  # a slot's key is the tuple's, read in names, then k
    for a in reversed(names):
        stride[a], size = size, size * dims[a]
    slots, hit, dens = [None] * size, [], []
    for k, (_, chain, terms) in enumerate(identities):
        den = lcm(*[X.nonzeros[0] * Y.nonzeros[0] for _, X, _, Y, _ in terms])
        dens.append(den)
        for sign, X, xlegs, Y, ylegs in terms:
            px, py, (x1n, x2n, yn, cmp, lo_at, hi_at) = _plan(xlegs, ylegs, chain)
            (dx, A), (dy, B) = _once(X, px, (), _view, X, px), _once(Y, py, (), _view, Y, py)
            f = sign * (den // (dx * dy))
            s1, s2, sy, lo, hi = stride[x1n], stride[x2n], stride[yn], -1, dims[yn]
            for x1, group in enumerate(A):
                for x2, row in group:
                    if cmp and (x2 - x1) * cmp <= 0:
                        continue
                    if lo_at or hi_at:
                        lo, hi = (-1, x1, x2)[lo_at], (dims[yn], x1, x2)[hi_at]
                    base = x1 * s1 + x2 * s2 + k
                    for s, a in row:
                        a *= f
                        for y, brow in B[s]:
                            if y >= hi:  # B[s] runs upward: the rest of it is out too
                                break
                            if y > lo:
                                key = base + y * sy
                                acc = slots[key]
                                if acc is None:
                                    acc = slots[key] = [0] * width
                                    hit.append(key)
                                for t, b in brow:
                                    acc[t] += a * b
    hit.sort()
    (sa, sb, sc), (da, db, dc) = [stride[a] for a in names], [dims[a] for a in names]
    return [(key % nid, (key // sa % da, key // sb % db, key // sc % dc), slots[key])
            for key in hit if any(slots[key])], dens


def _sparse_violations(names, dims, identities):
    """The violations of _scatter's hits, each residual kept as its row of
    dims["t"] numerators (Violation.of)."""
    hits, dens = _scatter(names, dims, identities)
    return [Violation.of(identities[k][0], idx, acc, dens[k]) for k, idx, acc in hits]


def check_jacobi(br):
    """Evaluated once per object (_once)."""
    return _once(br, "jacobi", (), _jacobi, br)


def _jacobi(br):
    n, (den, nz) = br.n, br.nonzeros
    # the numerators of one tensor share den, so c[i][j] + c[j][i] is zero
    # exactly when the two lists of (k, numerator) are opposite
    viol = violations("antisymmetry", combinations_with_replacement(range(n), 2),
                      lambda i, j: () if nz[i][j] == [(k, -a) for k, a in nz[j][i]]
                      else _ints(n, _nonzeros_row_sum(nz[i][j], nz[j][i], 1, 1)), den)
    # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] on i < j < k
    viol += _sparse_violations("ijk", dict.fromkeys("ijkt", n), [("jacobi", "ijk", (
        (1, br, "ijs", br, "skt"), (1, br, "jks", br, "sit"), (1, br, "kis", br, "sjt")))])
    return report("jacobi", viol)


def check_left_symmetric(op):
    """Evaluated once per object (_once)."""
    return _once(op, "left-symmetric", (), _left_symmetric, op)


def _left_symmetric(op):
    return report("left-symmetric", _sparse_violations("ijk", dict.fromkeys("ijkt", op.n),
                                                       [_left_symmetry(op)]))


def _left_symmetry(op):
    """The left-symmetry identity of the product op."""
    # (e_i e_j) e_k - e_i (e_j e_k) - (e_j e_i) e_k + e_j (e_i e_k): the
    # defect is antisymmetric under swapping the first two arguments, so
    # i < j covers everything
    return ("left-symmetric", "ij", ((1, op, "ijs", op, "skt"), (-1, op, "jks", op, "ist"),
                                     (-1, op, "jis", op, "skt"), (1, op, "iks", op, "jst")))


def check_commutative(op):
    n, (den, nz) = op.n, op.nonzeros
    return report("commutative", violations(
        "commutative", combinations(range(n), 2),
        lambda i, j: () if nz[i][j] == nz[j][i]
        else _ints(n, _nonzeros_row_sum(nz[i][j], nz[j][i], 1, -1)), den))


def check_plsa(prec, succ):
    """Commutative prec, left-symmetric succ, and the mixed compatibility
    x succ (y prec z) = (x.y) prec z + y prec (x.z) with . = prec + succ.

    The left-symmetry of the sum product is evaluated as a second route and
    the agreement of the two left-symmetry verdicts is recorded as a note;
    on invalid input they may disagree.  Given commutativity and
    compatibility, the left-symmetry defect of prec + succ minus that of
    succ cancels term by term, so a disagreement then raises
    InternalMismatch.  The sum product is listed, the exact sum of the lists
    of prec and succ, and its dense view is never built.  Evaluated once per
    pair of objects (_once).
    """
    return _once(prec, "plsa", (succ,), _plsa, prec, succ)


def _plsa(prec, succ):
    require_dims("prec dim %d, succ dim %d", prec, succ)
    n = prec.n
    comm = check_commutative(prec)
    lsymm = check_left_symmetric(succ)
    total = StructureTensor.listed(n, _nonzeros_sum(prec.nonzeros, succ.nonzeros))
    # e_i succ (e_j prec e_k) - (e_i . e_j) prec e_k - e_j prec (e_i . e_k), and
    # the left-symmetry of the sum product, identity 1, of which only the
    # verdict is read: no violation is built for it
    hits, dens = _scatter("ijk", dict.fromkeys("ijkt", n), [("compatibility", "", (
        (1, prec, "jks", succ, "ist"), (-1, total, "ijs", prec, "skt"),
        (-1, total, "iks", prec, "jst"))), _left_symmetry(total)])
    viol = [Violation.of("compatibility", idx, acc, dens[0]) for k, idx, acc in hits if not k]
    sum_ok = len(viol) == len(hits)
    words = "pass" if sum_ok else "fail", "pass" if lsymm.verdict else "fail"
    if sum_ok == lsymm.verdict:
        note = "sum-product left-symmetry agrees with succ left-symmetry (%s)" % words[0]
    elif comm.verdict and not viol:
        raise InternalMismatch("sum-product left-symmetry (%s) disagrees with succ "
                               "left-symmetry (%s) although commutativity and "
                               "compatibility hold" % words)
    else:
        note = ("ALERT: sum-product left-symmetry (%s) disagrees with succ "
                "left-symmetry (%s)" % words)
    return merge_reports("plsa", [comm, lsymm], viol, [note])


def check_torsion_free(br, conn):
    require_dims("bracket dim %d, connection dim %d", br, conn)
    # [e_i, e_j] of the commutator of conn minus that of br, on summed lists
    den, nz = _nonzeros_sum(sub_adjacent(conn).nonzeros, _negated(br))
    return report("torsion-free", violations(
        "torsion-free", combinations(range(br.n), 2),
        lambda i, j: _ints(br.n, nz[i][j]) if nz[i][j] else (), den))


def check_flat(br, conn):
    """Curvature (L(x)L(y) - L(y)L(x) - L([x,y])) vanishes, L = left mult of conn."""
    require_dims("bracket dim %d, connection dim %d", br, conn)
    # e_i (e_j e_k) - e_j (e_i e_k) - [e_i, e_j] e_k on i < j
    return report("flat", _sparse_violations("ijk", dict.fromkeys("ijkt", br.n), [("flat", "ij", (
        (1, conn, "jks", conn, "ist"), (-1, conn, "iks", conn, "jst"),
        (-1, br, "ijs", conn, "skt")))]))


def _listed_rows(rows):
    """The nonzero entries (k, x) of each int row of rows, k increasing."""
    return [[(k, x) for k, x in enumerate(row) if x] for row in rows]


def _combination(n, plus, prows, minus=(), mrows=()):
    """The n ints of sum_{(a, p) in plus} p prows[a] - sum_{(a, x) in minus}
    x mrows[a], for lists plus and minus of (index, int) and rows of nonzero
    lists: only listed entries are multiplied."""
    acc = [0] * n
    for a, p in plus:
        for k, x in prows[a]:
            acc[k] += p * x
    for a, x in minus:
        for k, y in mrows[a]:
            acc[k] -= x * y
    return acc


def _by_form(op, M):
    """(T, den): T[a][b][c] = sum_s op[a][b][s] M[s][c] over den, as n planes
    of int rows, for a Scaled M: row (a, b) is built from the listed entries
    of op's row (a, b) times the nonzero entries of M's rows, and the zero
    rows share one tuple of zeros."""
    (den, nz), cols = op.nonzeros, len(M.num[0])
    mrows, zero = _listed_rows(M.num), (0,) * cols
    return [[_combination(cols, row, mrows) if row else zero for row in plane]
            for plane in nz], den * M.den


def check_closed(br, w):
    """dw(e_i, e_j, e_k) = w(e_i, [e_j, e_k]) + w(e_j, [e_k, e_i])
    + w(e_k, [e_i, e_j]) vanishes on all triples i < j < k."""
    require_dims("bracket dim %d, form dim %d", br, w)
    T, den = _by_form(br, w.scaled_t)  # T[a][b][c] = w(e_c, [e_a, e_b])
    return report("closed", violations(
        "closed", combinations(range(br.n), 3),
        lambda i, j, k: T[j][k][i] + T[k][i][j] + T[i][j][k], den))


def check_parallel_form(conn, w):
    """w(conn_x y, z) = w(conn_x z, y) on all basis triples."""
    require_dims("connection dim %d, form dim %d", conn, w)
    n = conn.n
    P, den = _by_form(conn, w.scaled)  # P[i][j][k] = w(conn_i e_j, e_k)
    return report("parallel-form", violations(
        "parallel", ((i, j, k) for i in range(n) for j, k in combinations(range(n), 2)),
        lambda i, j, k: P[i][j][k] - P[i][k][j], den))


def check_special_symplectic(br, conn, w):
    """Flat torsion-free connection plus a parallel nondegenerate skew form.

    Closedness of the form follows: with [y, z] = conn_y z - conn_z y and
    w(conn_a b, c) = w(conn_a c, b) for a skew w, the six terms of dw(x, y,
    z) cancel in pairs.  torsion-free reads pairs i < j only, so the bracket
    must be antisymmetric too.  So when Jacobi (for its antisymmetry half),
    torsion-freeness, skewness and parallelism pass, closedness is
    evaluated, and a failure raises InternalMismatch; it is evaluated in no
    other case.  Evaluated once per triple of objects (_once).
    """
    return _once(br, "special-symplectic", (conn, w), _special_symplectic, br, conn, w)


def _special_symplectic(br, conn, w):
    require_dims("dimensions %d, %d, %d", br, conn, w)
    parts = [check_jacobi(br), check_torsion_free(br, conn), check_flat(br, conn),
             check_skew(w), check_nondegenerate(w), check_parallel_form(conn, w)]
    if all(parts[i].verdict for i in (0, 1, 3, 5)) and not check_closed(br, w).verdict:
        raise InternalMismatch("form is parallel for a torsion-free connection of a Lie "
                               "bracket yet not closed")
    return merge_reports("special-symplectic", parts)


def _torsion(br, N, upper):
    """The Nijenhuis torsion of N as a nonzero list (den, nz), den = N's
    den^2 times the bracket's: nz[i] lists the rows T(e_i, e_j), each as its
    nonzero (k, x), k increasing, for j > i with upper (row j at
    nz[i][j - i - 1]), else for every j.  With Ne_j the nonzero entries of
    column j of N (off N.scaled_t) and c the bracket's list,

        D_i(e_q) = [Ne_i, e_q] - N[e_i, e_q]
                 = sum_{(a, p) in Ne_i} p c[a][q] - sum_{(k, x) in c[i][q]} x Ne_k,
        T(e_i, e_j) = D_i(Ne_j) - N D_i(e_j)
                    = sum_{(q, w) in Ne_j} w D_i(e_q) - sum_{(k, v) in D_i(e_j)} v Ne_k,

    each row a _combination of nonzero lists: no dense plane is built, and
    an i whose D_i(e_q) are all zero gets empty rows, none walked."""
    require_dims("bracket dim %d, endomorphism dim %d", br, N)
    n, (den, c) = br.n, br.nonzeros
    ne, ct = _listed_rows(N.scaled_t.num), list(zip(*c))  # ct[q][a] = c[a][q]
    nz = []
    for i in range(n):
        D = _listed_rows([_combination(n, ne[i], ct[q], c[i][q], ne) for q in range(n)])
        js = range(i + 1 if upper else 0, n)
        nz.append(_listed_rows([_combination(n, ne[j], D, D[j], ne) for j in js]) if any(D)
                  else [[] for _ in js])
    return N.scaled.den ** 2 * den, nz


def nijenhuis_torsion(br, N):
    """T(N)(x,y) = [Nx,Ny] + N(N[x,y] - [Nx,y] - [x,Ny]) as a StructureTensor
    listed by the core that torsion_violations runs on the pairs i < j
    only: here every row of every plane."""
    return StructureTensor.listed(br.n, _torsion(br, N, upper=False))


def violations(where, tuples, residual, den):
    """A violation at each index tuple idx of tuples, in the order given,
    whose residual r = residual(*idx) is nonzero: an int numerator other
    than 0, or a tuple or list of them with a nonzero entry, read off int
    rows and kept over den (Violation.of)."""
    out = []
    for idx in tuples:
        r = residual(*idx)
        if (r if isinstance(r, int) else any(r)):
            out.append(Violation.of(where, idx, r, den))
    return out


def mat_violations(where, t):
    """A violation at the indices of each nonzero numerator x of t, in
    row-major order, its residual x / den kept as numerators (Violation.of):
    t is a Scaled matrix, a Packed tensor or the nonzero list (den, nz) of a
    rank-3 tensor.  A Scaled row costs one any() when it is all zero; a
    Packed row is tested against 0 and decoded only when it is not.  Both
    are tuples, as (den, nz) is, so they are told apart by their types."""
    of = Violation.of
    if not isinstance(t, (Packed, Scaled)):
        den, nz = t
        return [of(where, (a, b, k), x, den)
                for a, plane in enumerate(nz) for b, row in enumerate(plane) for k, x in row]
    den = t.den
    if isinstance(t, Packed):
        return [of(where, (a, b, k), x, den)
                for a, (plane, rows) in enumerate(zip(t.num, t.decoded))
                for b, (R, row) in enumerate(zip(plane, rows)) if R
                for k, x in enumerate(row) if x]
    return [of(where, (i, k), x, den)
            for i, row in enumerate(t.num) if any(row) for k, x in enumerate(row) if x]


# ---------------------------------------------------------------------------
# identities of a complex structure J, a product structure E and a form,
# shared by check_complex_product, check_metric_compatible,
# bialgebra.check_parakahler and the self-check of constructions.family_JE

def _sub_scalar(M, q):
    """The int rows of M - q id, numerators over M.den for a square Scaled M:
    fresh lists, so int_rank may eliminate them in place."""
    return [[x - q * M.den if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(M.num)]


def _mat_chain(terms):
    """sum k * M1 M2 ... over the (k, (M1, M2, ...)) terms of square Scaled
    matrices, as a Scaled matrix of fresh int rows over the lcm of the
    terms' denominators."""
    parts = []
    for k, mats in terms:
        num, den = mats[-1]
        for m in reversed(mats[:-1]):
            num, den = int_mat_mul(m.num, num), m.den * den
        parts.append((k, num, den))
    den = lcm(*(d for _, _, d in parts))
    (k, num, d), *rest = parts
    f = k * (den // d)
    acc = [[f * x for x in row] for row in num]
    for k, num, d in rest:
        f = k * (den // d)
        acc = [[a + f * x for a, x in zip(arow, row)] for arow, row in zip(acc, num)]
    return Scaled(acc, den)


def square_violations(where, N, sign):
    """N^2 = sign * id: sign -1 for a complex structure, +1 for a product
    structure.  Evaluated once per N, where and sign (_once); each call
    returns a fresh list."""
    return list(_once(N, ("square", where, sign), (), _square, where, N, sign))


def _square(where, N, sign):
    res = _mat_chain(((1, (N.scaled, N.scaled)),))
    return tuple(mat_violations(where, Scaled(_sub_scalar(res, sign), res.den)))


def anticommute_violations(where, J, E):
    """JE = -EJ, evaluated once per J, E and where (_once); each call returns
    a fresh list."""
    return list(_once(J, ("anticommute", where), (E,), _anticommute, where, J, E))


def _anticommute(where, J, E):
    return tuple(mat_violations(where, _mat_chain(((1, (J.scaled, E.scaled)),
                                                   (1, (E.scaled, J.scaled))))))


def congruence_violations(where, B, N, sign):
    """N^T B N = sign * B for the form B and the endomorphism N."""
    res = _mat_chain(((1, (N.scaled_t, B.scaled, N.scaled)), (-sign, (B.scaled,))))
    return mat_violations(where, res)


def torsion_violations(where, br, N):
    """The Nijenhuis torsion of N vanishes, on basis pairs i < j: only those
    rows are listed (_torsion), and a violating pair keeps its row of n
    numerators."""
    den, nz = _torsion(br, N, upper=True)
    # plane i lists the rows j = i + 1, ..., n - 1
    return [Violation.of(where, (i, j), _ints(br.n, row), den)
            for i, plane in enumerate(nz) for j, row in enumerate(plane, i + 1) if row]


def eigenspace_violations(E):
    """The +1 and -1 eigenspaces of E have equal dimension."""
    dplus = E.n - int_rank(_sub_scalar(E.scaled, 1))
    dminus = E.n - int_rank(_sub_scalar(E.scaled, -1))
    if dplus == dminus:
        return []
    return [Violation.of("eigenspace-dims", (), dplus - dminus, 1)]


def check_complex_product(br, J, E):
    """J^2 = -id, E^2 = id (E not +-id), JE = -EJ, both torsion-free, and the
    two eigenspaces of E have equal dimension."""
    require_dims("dimensions %d, %d, %d", br, J, E)
    viol = square_violations("J^2+id", J, -1) + square_violations("E^2-id", E, 1)
    for q in (1, -1):
        if not any(map(any, _sub_scalar(E.scaled, q))):  # E = q id
            viol.append(Violation.of("E-is-scalar", (), q, 1))
            break
    viol += anticommute_violations("JE+EJ", J, E)
    viol += torsion_violations("torsion-J", br, J) + torsion_violations("torsion-E", br, E)
    viol += eigenspace_violations(E)
    return report("complex-product", viol)


def check_metric_compatible(g, J, E):
    """g symmetric nondegenerate with g(Jx,Jy)=g(x,y) and g(Ex,Ey)=-g(x,y)."""
    require_dims("dimensions %d, %d, %d", g, J, E)
    G = g.scaled.num
    viol = violations("symmetric", combinations(range(g.n), 2),
                      lambda i, j: G[i][j] - G[j][i], g.scaled.den)
    viol += check_nondegenerate(g).violations
    viol += congruence_violations("J-invariance", g, J, 1)
    viol += congruence_violations("E-anti-invariance", g, E, -1)
    return report("metric-compatible", viol)


def three_forms(g, J, E):
    """The forms w1 = g(J.,.), w2 = g(E.,.), w3 = g(JE.,.) as Form values:
    J^T g, E^T g and (JE)^T g = E^T J^T g, each stored as the Scaled rows of
    the contraction it was read off."""
    Jt, Et, G = J.scaled_t, E.scaled_t, g.scaled
    return tuple(Form.listed(g.n, _mat_chain(((1, mats),)))
                 for mats in ((Jt, G), (Et, G), (Et, Jt, G)))


def check_hypersymplectic(br, J, E, g):
    """Complex product structure with compatible metric whose three associated
    forms are all closed.

    The three forms are tied together: for a Lie bracket (Jacobi) with
    integrable J and E (complex-product) and a compatible metric, dw1 = 0
    forces dw2 = dw3 = 0.  Exact elimination over every antisymmetric
    bracket with N_J = N_E = 0 and dw1 = 0 confirms it for ssla-2d-3's
    tangent F1 package and the tangent and cotangent F1-F3 packages of the
    plsa-2d-III/IV double extensions.  So when those three sub-reports pass
    and w1 is closed, a companion form that is not closed raises
    InternalMismatch."""
    require_dims("dimensions %d, %d, %d, %d", br, J, E, g)
    parts = [check_jacobi(br), check_complex_product(br, J, E),
             check_metric_compatible(g, J, E)]
    w1, w2, w3 = three_forms(g, J, E)
    closed = [check_closed(br, w1), check_closed(br, w2), check_closed(br, w3)]
    if all(rep.verdict for rep in parts + closed[:1]) and \
            not (closed[1].verdict and closed[2].verdict):
        raise InternalMismatch("first form closed but a companion form is not, for a Lie "
                               "bracket with a complex product structure and compatible "
                               "metric")
    viol = [v for name, rep_ in zip(("dw1", "dw2", "dw3"), closed)
            for v in prefixed(name, rep_.violations)]
    return merge_reports("hypersymplectic", parts, viol)


def check_representation(br, rho):
    """rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) on all basis pairs."""
    require_dims("bracket dim %d, representation dim %d", br, rho)
    # row a of rho([e_i, e_j]) - rho(e_i)rho(e_j) + rho(e_j)rho(e_i) on i < j
    return report("representation", _sparse_violations(
        "ija", dict(i=br.n, j=br.n, a=rho.m, t=rho.m), [("representation", "ij", (
            (1, br, "ijs", rho, "sat"), (-1, rho, "ias", rho, "jst"),
            (1, rho, "jas", rho, "ist")))]))


def check_bimodule(lsa, l, r):
    """The two action identities making (l, r) a bimodule of the product:

        l(x)l(y) - l(x.y) = l(y)l(x) - l(y.x)
        l(x)r(y) - r(y)l(x) = r(x.y) - r(y)r(x)

    All of bimodule-1 is listed before bimodule-2: _scatter's hits, which
    come per tuple, are sorted stably by identity."""
    require_dims("algebra dim %d, actions on dims %d, %d", lsa, l, r)
    n, m = lsa.n, l.m
    if r.m != m or not (_fits(l, n, m) and _fits(r, n, m)):
        raise DimensionMismatch("actions on a module of dim %d must be %d x %d matrices"
                                % (m, m, m))
    hits, dens = _scatter("ija", dict(i=n, j=n, a=m, t=m), [
        # row a of l(e_i)l(e_j) - l(e_i e_j) - l(e_j)l(e_i) + l(e_j e_i), on i < j
        ("bimodule-1", "ij", ((1, l, "ias", l, "jst"), (-1, lsa, "ijs", l, "sat"),
                              (-1, l, "jas", l, "ist"), (1, lsa, "jis", l, "sat"))),
        # row a of l(e_i)r(e_j) - r(e_j)l(e_i) - r(e_i e_j) + r(e_j)r(e_i)
        ("bimodule-2", "", ((1, l, "ias", r, "jst"), (-1, r, "jas", l, "ist"),
                            (-1, lsa, "ijs", r, "sat"), (1, r, "jas", r, "ist")))])
    hits.sort(key=itemgetter(0))
    return report("bimodule", [
        Violation.of("bimodule-%d at (%d,%d)" % (k + 1, i, j), (a, t), x, dens[k])
        for k, (i, j, a), acc in hits for t, x in enumerate(acc) if x])
