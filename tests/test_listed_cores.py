"""The Nijenhuis torsion and closedness cores of checks (_torsion, _by_form)
walk nonzero lists.  Here they are held to the dense int formulation of the
same products, and their public verifiers to the basis-tuple oracles, on
partly sparse inputs (most entries zero, endomorphisms with zero columns,
brackets with empty planes) and on the hypersymplectic packages of the
family grid."""

from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from symplie import checks
from symplie.catalog import catalog_get
from symplie.checks import (
    Endo,
    Form,
    StructureTensor,
    Violation,
    check_closed,
    check_hypersymplectic,
    check_parallel_form,
    nijenhuis_torsion,
    st,
    sub_adjacent,
    three_forms,
    torsion_violations,
)
from symplie.constructions import (
    FamilyParams,
    SpecialSymplecticData,
    hypersymplectic_from_cotangent,
    hypersymplectic_from_tangent,
)
from symplie.linalg import ZERO, int_mat_mul
from symplie.matched import double_extension

from oracles import closed_violations, nijenhuis_plain, parallel_violations
from oracles import torsion_plain_violations
from test_checks import _oracle_report


def _partly_sparse(r, d0, d1, d2, share):
    """A d0 x d1 x d2 tensor of Fractions with between about 1 / (2 share)
    and 1 / share of its entries nonzero, at positions and with values
    (numerators -9..9 but 0, denominators 1..12) drawn from the Random r."""
    size = d0 * d1 * d2
    flat = [ZERO] * size
    for at in r.sample(range(size), min(size, r.randint(size // (2 * share), size // share + 1))):
        flat[at] = Fraction(r.choice([-1, 1]) * r.randint(1, 9), r.randint(1, 12))
    return tuple(tuple(tuple(flat[(a * d1 + b) * d2:(a * d1 + b + 1) * d2]) for b in range(d1))
                 for a in range(d0))


@hs.composite
def _sparse_inputs(draw):
    """(n, c, m, w) at dims 1-6: a bracket c, most entries zero, with some
    planes emptied; an endomorphism m, about half zero, with some columns
    zeroed; and a form w, most entries zero."""
    n, r = draw(hs.integers(1, 6)), draw(hs.randoms(use_true_random=True))
    empty = draw(hs.sets(hs.integers(0, n - 1), max_size=n - 1))
    zrow = ((ZERO,) * n,) * n
    c = tuple(zrow if a in empty else plane
              for a, plane in enumerate(_partly_sparse(r, n, n, n, 4)))
    cols = draw(hs.sets(hs.integers(0, n - 1), max_size=n - 1))
    m = tuple(tuple(ZERO if b in cols else x for b, x in enumerate(row))
              for row in _partly_sparse(r, 1, n, n, 2)[0])
    return n, c, m, _partly_sparse(r, 1, n, n, 3)[0]


# --- the dense int formulation: int planes of the bracket, multiplied whole ---

def _planes(op):
    """The numerators of op's list as n planes of n dense int rows."""
    return [[list(checks._ints(op.n, row)) for row in plane] for plane in op.nonzeros[1]]


def _dense_torsion(br, N, upper):
    """(den, planes): row j of plane i is T(e_i, e_j) as n ints, j > i with
    upper, from int_mat_mul on dense planes: D_i = [Ne_i, .] - N[e_i, .] and
    T(e_i, e_j) = sum_q N_qj D_i(e_q) - N D_i(e_j)."""
    n, C, nt = br.n, _planes(br), N.scaled_t.num  # row j of nt: N e_j
    A = int_mat_mul(nt, [list(chain.from_iterable(plane)) for plane in C])  # [Ne_i, e_q]
    planes = []
    for i, Ci in enumerate(C):
        D = [[a - b for a, b in zip(A[i][q * n:q * n + n], brow)]
             for q, brow in enumerate(int_mat_mul(Ci, nt))]
        j0 = i + 1 if upper else 0
        planes.append([[p - q for p, q in zip(prow, qrow)] for prow, qrow in
                       zip(int_mat_mul(nt[j0:], D), int_mat_mul(D[j0:], nt))])
    return N.scaled.den ** 2 * br.nonzeros[0], planes


def _dense_by_form(op, M):
    """(planes, den) of the rows (a, b) of op times the Scaled M, by int_mat_mul."""
    n = op.n
    rows = int_mat_mul(list(chain.from_iterable(_planes(op))), M.num)
    return [rows[a:a + n] for a in range(0, n * n, n)], op.nonzeros[0] * M.den


def _assert_cores_match_dense(br, endos, forms):
    """_torsion of br and each N of endos, upper on and off, and _by_form of
    br and each form's rows and their transpose, give the dense products'
    ints over the same den; each torsion row lists nonzero entries only, in
    increasing order."""
    n = br.n
    for N in endos:
        for upper in (True, False):
            den, nz = checks._torsion(br, N, upper)
            assert (den, [[list(checks._ints(n, row)) for row in plane] for plane in nz]) == \
                _dense_torsion(br, N, upper)
            assert all(x for plane in nz for row in plane for _, x in row)
            assert all([k for k, _ in row] == sorted({k for k, _ in row})
                       for plane in nz for row in plane)
    for w in forms:
        for M in (w.scaled, w.scaled_t):
            T, den = checks._by_form(br, M)
            assert ([[list(row) for row in plane] for plane in T], den) == \
                _dense_by_form(br, M)


class TestPartlySparse:
    @settings(max_examples=25)
    @given(_sparse_inputs())
    def test_cores_match_the_dense_products(self, inputs):
        n, c, m, w = inputs
        _assert_cores_match_dense(StructureTensor(n, c), [Endo(n, m)], [Form(n, w)])

    @settings(max_examples=25)
    @given(_sparse_inputs())
    def test_verifiers_match_their_oracles(self, inputs):
        n, c, m, w = inputs
        br, N, form = StructureTensor(n, c), Endo(n, m), Form(n, w)
        assert torsion_violations("t", br, N) == \
            [Violation(*v) for v in torsion_plain_violations("t", c, m)]
        assert nijenhuis_torsion(br, N) == StructureTensor(n, nijenhuis_plain(c, m))
        assert check_closed(br, form) == _oracle_report("closed", closed_violations(c, w))
        assert check_parallel_form(br, form) == \
            _oracle_report("parallel-form", parallel_violations(c, w))

    def test_a_shift_on_a_two_term_bracket(self):
        # [e_0, e_1] = e_2, [e_1, e_2] = -2/3 e_0 (not skew) and the shift
        # N e_a = e_{a+1}, N e_2 = 0: the torsion is nonzero on every pair
        Q = Fraction
        br = st(3, {(0, 1, 2): Q(1), (1, 2, 0): Q(-2, 3)})
        m = tuple(tuple(Q(int(a == b + 1)) for b in range(3)) for a in range(3))
        got = torsion_violations("t", br, Endo(3, m))
        assert got == [Violation(*v) for v in torsion_plain_violations("t", br.c, m)]
        assert [v.indices for v in got] == [(0, 1), (0, 2), (1, 2)]
        _assert_cores_match_dense(br, [Endo(3, m)], [Form(3, m)])


# --- the family grid's packages: the four 2-dim packages and the four
# double extensions by the zero pair, both doubles, one F1 point each ---

_PACKAGES = [("ssla-2d-%d" % k, False) for k in range(1, 5)] + \
    [("plsa-2d-%s" % k, True) for k in ("I", "II", "III", "IV")]
_POINT = FamilyParams("F1", Fraction(2), Fraction(-1, 2), None, 1)


def _family_point(name, extend, double):
    s = catalog_get(name).payload
    if extend:
        ded, _ = double_extension(s, (st(2), st(2)))
        s = SpecialSymplecticData(sub_adjacent(ded.glued), ded.glued, ded.omega_p)
    build = hypersymplectic_from_tangent if double == "tangent" else hypersymplectic_from_cotangent
    d, J, E, g = build(s, _POINT)
    return d.bracket, J, E, g


@pytest.mark.parametrize("double", ["tangent", "cotangent"])
@pytest.mark.parametrize("name, extend", _PACKAGES, ids=[name for name, _ in _PACKAGES])
def test_family_grid_packages(name, extend, double):
    br, J, E, g = _family_point(name, extend, double)
    assert br.n == (8 if extend else 4)
    assert check_hypersymplectic(br, J, E, g).verdict
    for where, N in (("torsion-J", J), ("torsion-E", E)):
        assert torsion_violations(where, br, N) == \
            [Violation(*v) for v in torsion_plain_violations(where, br.c, N.m)]
    forms = three_forms(g, J, E)
    for w in forms:
        assert check_closed(br, w) == _oracle_report("closed", closed_violations(br.c, w.m))
    _assert_cores_match_dense(br, [J, E], forms)
