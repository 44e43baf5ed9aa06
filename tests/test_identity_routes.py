"""The identities evaluated on basis tuples by the kernel and sparse-sum
routes, against plain-loop oracles (tests/oracles.py): whole reports,
returned tensors, and Fraction residuals, on dims 1-4 with dense, all-zero
and single-nonzero inputs, inputs that meet each function's preconditions,
and inputs that fail its identities.  The products that glue_product builds
on a sum of two spaces are compared with block-by-block loops the same way,
and the .alg emitter's section table with one loop per section."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from symplie import bialgebra, cli
from symplie.bialgebra import (
    CoproductPair,
    NotAPLSBA,
    ParaKahlerData,
    canonical_r,
    check_parakahler,
    coboundary_conditions,
    coboundary_coproducts,
    drinfeld_double,
    plsba_check,
    plsca_check,
    slsba_check,
    slsba_coboundary,
    zero_coproducts,
)
from symplie.catalog import catalog_get, catalog_list
from symplie.checks import (
    Endo,
    Form,
    RepTensor,
    StructureTensor,
    Violation,
    check_closed,
    check_flat,
    check_nondegenerate,
    check_parallel_form,
    check_plsa,
    check_representation,
    check_skew,
    check_torsion_free,
    merge_reports,
    op_add,
    relabel,
    rep_from_op_left,
    report,
    sub_adjacent,
)
from symplie.constructions import (
    CotangentExtensionData,
    DegenerateForm,
    DoubleData,
    InvalidInput,
    MatchedPairData,
    SpecialSymplecticData,
    affine_cotangent_extension,
    cotangent_double,
    dual_left_action,
    glue_product,
    lsa_from_symplectic,
    plsa_from_special_symplectic,
    post_affine_check,
    semidirect_lie,
    tangent_double,
)
from symplie.matched import build_double_plsa

from oracles import (
    affine_product_plain,
    antidiagonal_plain,
    coboundary_coproducts_plain,
    coboundary_violations,
    co_left_symmetry_plain,
    coproducts_from_products,
    conn_e_violations,
    coproduct_compat_violations,
    double_conn_plain,
    double_plsa_plain,
    double_r_violations,
    emit_plain,
    flat_violations,
    glue_plain,
    jacobi_violations,
    left_mult_plain,
    lsa_from_symplectic_plain,
    nonzero_entries,
    parakahler_violations,
    phi_cocycle_violations,
    plsa_from_special_symplectic_plain,
    plsba_violations,
    plsca_violations,
    post_connection_violations,
    representation_violations,
    rand_invertible,
    rng,
    rr_brackets_plain,
    semidirect_plain,
    slsba_coboundary_plain,
    transport_product,
)
from test_cli import algebra_files
from test_linalg import all_fractions, entries, matrices, tensors

PLSA_NAMES = ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV")
SSLA_NAMES = ("ssla-2d-1", "ssla-2d-2", "ssla-2d-3", "ssla-2d-4")
dims = hs.integers(1, 4)
seeds = hs.integers(0, 10 ** 6)


def _direct_sum(blocks):
    """Block-diagonal rank-3 tensor of the given blocks."""
    n = sum(len(b) for b in blocks)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    at = 0
    for b in blocks:
        m = len(b)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    c[at + i][at + j][at + k] = b[i][j][k]
        at += m
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def _scale(t, q):
    return tuple(tuple(tuple(q * x for x in row) for row in plane) for plane in t)


def _transport_form(w, p):
    """w(P x, P y): the form that P^T w P stands for."""
    n = len(w)
    return tuple(tuple(sum((p[a][i] * w[a][b] * p[b][j] for a in range(n) for b in range(n)),
                           Fraction(0)) for j in range(n)) for i in range(n))


@hs.composite
def product_pairs(draw, n):
    """Valid product pairs of dim n: a direct sum of scaled catalog pairs and
    one-dimensional pairs (0, b) or (a, -2a), carried to a random basis.
    Catalog blocks are drawn three times in four where they fit, as only
    they make the sum product noncommutative."""
    precs, succs = [], []
    while sum(len(b) for b in precs) < n:
        if n - sum(len(b) for b in precs) >= 2 and draw(hs.integers(0, 3)):
            prec, succ = catalog_get(draw(hs.sampled_from(PLSA_NAMES))).payload
            q = draw(entries)
            precs.append(_scale(prec.c, q))
            succs.append(_scale(succ.c, q))
        else:
            a, b = draw(entries), draw(entries)
            a, b = (Fraction(0), b) if draw(hs.booleans()) else (a, -2 * a)
            precs.append((((a,),),))
            succs.append((((b,),),))
    prec_c, succ_c = _direct_sum(precs), _direct_sum(succs)
    if draw(hs.booleans()):
        p = rand_invertible(rng(draw(seeds)), n)
        prec_c, succ_c = transport_product(prec_c, p), transport_product(succ_c, p)
    return StructureTensor(n, prec_c), StructureTensor(n, succ_c)


@hs.composite
def coproduct_pairs(draw, n):
    """Zero coproducts, or the coproducts dual to a valid product pair."""
    if draw(hs.booleans()):
        return zero_coproducts(n)
    return coproducts_from_products(*draw(product_pairs(n)))


@hs.composite
def special_symplectic(draw, n):
    """A special symplectic package of even dim n: a direct sum of catalog
    packages, carried to a random basis."""
    parts = [catalog_get(draw(hs.sampled_from(SSLA_NAMES))).payload for _ in range(n // 2)]
    br = _direct_sum([s.bracket.c for s in parts])
    conn = _direct_sum([s.conn.c for s in parts])
    w = [[Fraction(0)] * n for _ in range(n)]
    for k, s in enumerate(parts):
        for a in range(2):
            for b in range(2):
                w[2 * k + a][2 * k + b] = s.omega.m[a][b]
    w = tuple(tuple(row) for row in w)
    p = rand_invertible(rng(draw(seeds)), n)
    return SpecialSymplecticData(StructureTensor(n, transport_product(br, p)),
                                 StructureTensor(n, transport_product(conn, p)),
                                 Form(n, _transport_form(w, p)))


def _report(check, violations, notes=()):
    return report(check, [Violation(*v) for v in violations], notes)


def _fraction_residuals(rep):
    for v in rep.violations:
        xs = v.residual if isinstance(v.residual, tuple) else (v.residual,)
        assert all(type(x) is Fraction for x in xs), v


def _word(ok):
    return "pass" if ok else "fail"


def _plsba_report(pair, cp):
    viol = plsba_violations(pair[0].c, pair[1].c, cp.alpha, cp.beta)
    return _report("plsba", viol, ["matched-pair route agrees (%s)" % _word(not viol)])


class TestBialgebraRoutes:
    @settings(max_examples=25)
    @given(hs.data())
    def test_plsca_check(self, data):
        """Whole reports on valid coproduct pairs and on random ones, whose
        three obstructions interleave their violations tuple by tuple."""
        n = data.draw(hs.integers(1, 3))
        if data.draw(hs.booleans()):
            cp = data.draw(coproduct_pairs(n))
        else:
            cp = CoproductPair(n, data.draw(tensors((n, n, n))), data.draw(tensors((n, n, n))))
        viol = plsca_violations(cp.alpha, cp.beta)
        got = plsca_check(cp)
        assert got == _report("plsca", viol, ["dual product-pair route agrees (%s)"
                                              % _word(not viol)])
        _fraction_residuals(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_plsba_check(self, data):
        n = data.draw(dims)
        pair, cp = data.draw(product_pairs(n)), data.draw(coproduct_pairs(n))
        got = plsba_check(pair, cp)
        assert got == _plsba_report(pair, cp)
        _fraction_residuals(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_coboundary(self, data):
        n = data.draw(dims)
        pair, r = data.draw(product_pairs(n)), data.draw(matrices(n, n))
        got = coboundary_conditions(pair, r)
        assert got == _report("coboundary-conditions",
                              coboundary_violations(pair[0].c, pair[1].c, r))
        _fraction_residuals(got)
        cp = coboundary_coproducts(pair, r)
        assert (cp.alpha, cp.beta) == coboundary_coproducts_plain(pair[0].c, pair[1].c, r)
        assert all_fractions(cp.alpha) and all_fractions(cp.beta)

    @settings(max_examples=30)
    @given(hs.data())
    def test_drinfeld_double(self, data):
        """Inputs of dims 1 and 2, doubles of dims 2 and 4; an incompatible
        input is refused with its first bialgebra violation."""
        n = data.draw(hs.integers(1, 2))
        pair, cp = data.draw(product_pairs(n)), data.draw(coproduct_pairs(n))
        inviol = plsba_violations(pair[0].c, pair[1].c, cp.alpha, cp.beta)
        if inviol:
            where, at, _ = inviol[0]
            msg = "bialgebra compatibility fails: %s at %s" % (where, at)
            with pytest.raises(NotAPLSBA, match="^%s$" % re.escape(msg)):
                drinfeld_double(pair, cp)
            return
        pair_d, r, cp_d, rep = drinfeld_double(pair, cp)
        prec_c, succ_c = pair_d[0].c, pair_d[1].c
        assert r == canonical_r(n)
        assert (cp_d.alpha, cp_d.beta) == coboundary_coproducts_plain(prec_c, succ_c, r)
        t1, t2 = rr_brackets_plain(prec_c, succ_c, r)
        viol = (nonzero_entries("r-bracket-1", t1) + nonzero_entries("r-bracket-2", t2)
                + double_r_violations(prec_c, succ_c, r))
        assert rep == merge_reports("double", [plsca_check(cp_d), _plsba_report(pair_d, cp_d)],
                                    [Violation(*v) for v in viol])
        assert rep.verdict
        _fraction_residuals(rep)

    @settings(max_examples=30)
    @given(hs.data())
    def test_double_r_conditions_fail_for_other_r(self, data):
        """The closure conditions of r on a double, with a random r in place
        of the canonical one; the coproduct checks that r would fail are
        stubbed, so the report holds exactly the r conditions."""
        n = data.draw(hs.integers(1, 2))
        pair = data.draw(product_pairs(n))
        r = data.draw(matrices(2 * n, 2 * n))
        passed = {"plsca_check": report("plsca", []),
                  "plsba_check": report("plsba", [])}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bialgebra, "canonical_r", lambda _: r)
            for name, rep in passed.items():
                mp.setattr(bialgebra, name, lambda *_, rep=rep: rep)
            pair_d, _, cp_d, got = drinfeld_double(pair, zero_coproducts(n))
        prec_c, succ_c = pair_d[0].c, pair_d[1].c
        assert (cp_d.alpha, cp_d.beta) == coboundary_coproducts_plain(prec_c, succ_c, r)
        t1, t2 = rr_brackets_plain(prec_c, succ_c, r)
        viol = (nonzero_entries("r-bracket-1", t1) + nonzero_entries("r-bracket-2", t2)
                + double_r_violations(prec_c, succ_c, r))
        assert got == merge_reports("double", list(passed.values()),
                                    [Violation(*v) for v in viol])
        _fraction_residuals(got)

    def test_double_r_merge_order(self):
        """double-r-1 and double-r-3 both fail at (i, a, b) = (2, 3, 2), and
        double-r-3 also fails at (0, 0, 3) and (0, 3, 0): the report lists
        them by (i, a, b), double-r-1 before double-r-3 at one tuple."""
        one = Fraction(1)
        r = tuple(tuple(Fraction(-((p, q) == (3, 1))) for q in range(4)) for p in range(4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bialgebra, "canonical_r", lambda _: r)
            mp.setattr(bialgebra, "plsca_check", lambda *_: report("plsca", []))
            mp.setattr(bialgebra, "plsba_check", lambda *_: report("plsba", []))
            _, _, _, got = drinfeld_double(catalog_get("plsa-2d-III").payload,
                                           zero_coproducts(2))
        assert got.violations == (Violation("double-r-3", (0, 0, 3), one),
                                  Violation("double-r-3", (0, 3, 0), -one),
                                  Violation("double-r-1", (2, 2, 3), one),
                                  Violation("double-r-1", (2, 3, 2), -one),
                                  Violation("double-r-3", (2, 3, 2), -one))


@hs.composite
def coproducts(draw, n):
    """The coproduct dual to a left-symmetric product, or a dense, all-zero
    or single-nonzero one."""
    if draw(hs.booleans()):
        return draw(tensors((n, n, n)))
    c = op_add(*draw(product_pairs(n))).c
    return tuple(tuple(tuple(c[p][q][k] for q in range(n)) for p in range(n))
                 for k in range(n))


class TestOneCoproductRoutes:
    @settings(max_examples=30)
    @given(hs.data())
    def test_slsba_check(self, data):
        n = data.draw(dims)
        lsa = op_add(*data.draw(product_pairs(n)))
        alpha = data.draw(coproducts(n))
        got = slsba_check(lsa, alpha)
        compat = coproduct_compat_violations(lsa.c, alpha)
        cls = nonzero_entries("co-left-symmetry", co_left_symmetry_plain(alpha))
        if cls:
            note = "matched-pair route skipped: dual product is not left-symmetric"
        else:
            note = "matched-pair route agrees (%s)" % _word(not compat)
        assert got == _report("slsba", compat + cls, [note])
        _fraction_residuals(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_slsba_coboundary(self, data):
        n = data.draw(dims)
        lsa = op_add(*data.draw(product_pairs(n)))
        r = data.draw(matrices(n, n))
        alpha, got = slsba_coboundary(lsa, r)
        alpha_o, action = slsba_coboundary_plain(lsa.c, r)
        assert alpha == alpha_o
        assert all_fractions(alpha)
        cls = nonzero_entries("co-left-symmetry", co_left_symmetry_plain(alpha_o))
        assert got == _report("slsba-coboundary", action + cls,
                              ["direct co-left-symmetry route agrees"])
        _fraction_residuals(got)


class TestConnectionRoutes:
    @settings(max_examples=30)
    @given(hs.data())
    def test_parakahler(self, data):
        """The whole report with and without a connection, with the
        jacobi, E, compatibility, flat and conn-E-symmetric parts from the
        oracles."""
        n = data.draw(dims)
        br, conn = data.draw(tensors((n, n, n))), data.draw(tensors((n, n, n)))
        w, e = data.draw(matrices(n, n)), data.draw(matrices(n, n))
        B, C, W, E = StructureTensor(n, br), StructureTensor(n, conn), Form(n, w), Endo(n, e)
        got = check_parakahler(ParaKahlerData(B, W, E, C))
        without = check_parakahler(ParaKahlerData(B, W, E))
        parts = [_report("jacobi", jacobi_violations(br)), check_skew(W),
                 check_nondegenerate(W), check_closed(B, W)]
        extra = [Violation(*v) for v in parakahler_violations(br, w, e)]
        assert without == merge_reports("para-kahler", parts, extra)
        parts += [_report("flat", flat_violations(br, conn)), check_torsion_free(B, C),
                  check_parallel_form(C, W)]
        extra += [Violation(*v) for v in conn_e_violations(conn, e)]
        assert got == merge_reports("para-kahler", parts, extra)
        _fraction_residuals(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_flat(self, data):
        n = data.draw(dims)
        if n % 2 == 0 and data.draw(hs.booleans()):
            s = data.draw(special_symplectic(n))
            br, conn = s.bracket.c, s.conn.c
        else:
            br, conn = data.draw(tensors((n, n, n))), data.draw(tensors((n, n, n)))
        got = check_flat(StructureTensor(n, br), StructureTensor(n, conn))
        assert got == _report("flat", flat_violations(br, conn))
        _fraction_residuals(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_representation(self, data):
        """Module dim m independent of n; the left multiplications of a flat
        connection represent its bracket."""
        n = data.draw(dims)
        if n % 2 == 0 and data.draw(hs.booleans()):
            s = data.draw(special_symplectic(n))
            br, rho = s.bracket.c, rep_from_op_left(s.conn)
        else:
            m = data.draw(dims)
            br = data.draw(tensors((n, n, n)))
            rho = RepTensor(n, m, data.draw(tensors((n, m, m))))
        got = check_representation(StructureTensor(n, br), rho)
        assert got == _report("representation", representation_violations(br, rho.t))
        _fraction_residuals(got)

    @settings(max_examples=30)
    @given(hs.data())
    def test_post_affine(self, data):
        """Random connections, and the post-connection of a valid product
        pair: succ over prec + succ, with the commutator bracket."""
        n = data.draw(dims)
        if data.draw(hs.booleans()):
            prec, succ = data.draw(product_pairs(n))
            nabla, tilde = succ, op_add(prec, succ)
            br = sub_adjacent(tilde)
        else:
            nabla, tilde, br = (StructureTensor(n, data.draw(tensors((n, n, n))))
                                for _ in range(3))
        got = post_affine_check(nabla, tilde, br)
        parts = [_report("jacobi", jacobi_violations(br.c)),
                 relabel(check_torsion_free(br, nabla), "torsion-free(nabla)"),
                 relabel(_report("flat", flat_violations(br.c, nabla.c)), "flat(nabla)"),
                 relabel(check_torsion_free(br, tilde), "torsion-free(nabla-tilde)"),
                 relabel(_report("flat", flat_violations(br.c, tilde.c)),
                         "flat(nabla-tilde)")]
        viol = post_connection_violations(nabla.c, tilde.c)
        d = StructureTensor(n, tuple(tuple(tuple(p - q for p, q in zip(x, y))
                                           for x, y in zip(tp, np_))
                                     for tp, np_ in zip(tilde.c, nabla.c)))
        pair_ok = check_plsa(d, nabla).verdict
        if all(p.verdict for p in parts) and (not viol) != pair_ok:
            note = ("ALERT: direct identity (%s) disagrees with the product-pair route "
                    "(%s) on flat torsion-free input; report a bug"
                    % (_word(not viol), _word(pair_ok)))
        else:
            note = "product-pair route agrees: %s" % _word(pair_ok)
        assert got == merge_reports("post-affine", parts, [Violation(*v) for v in viol],
                                    [note])
        _fraction_residuals(got)


class TestConstructionRoutes:
    @settings(max_examples=30)
    @given(hs.data())
    def test_affine_cotangent_extension(self, data):
        """The whole report over a left-symmetric base, with the dual left
        action or a random l, and random r and phi."""
        n = data.draw(dims)
        base = op_add(*data.draw(product_pairs(n)))
        l = (dual_left_action(base).t if data.draw(hs.booleans())
             else data.draw(tensors((n, n, n))))
        r, phi = data.draw(tensors((n, n, n))), data.draw(tensors((n, n, n)))
        product, got = affine_cotangent_extension(CotangentExtensionData(
            base, RepTensor(n, n, l), RepTensor(n, n, r), phi))
        assert product == StructureTensor(2 * n, affine_product_plain(base.c, l, r, phi))
        assert all_fractions(product.c)
        prec = StructureTensor(n, tuple(tuple(tuple(-x for x in row) for row in m) for m in r))
        succ = StructureTensor(n, tuple(tuple(tuple(p - q for p, q in zip(x, y))
                                              for x, y in zip(bp, pp))
                                        for bp, pp in zip(base.c, prec.c)))
        viol = nonzero_entries("l-is-dual-left-action",
                               [[[l[i][a][b] + base.c[i][a][b] for b in range(n)]
                                 for a in range(n)] for i in range(n)])
        viol += [("phi-symmetry", (i, j, k), phi[i][j][k] - phi[i][k][j])
                 for i in range(n) for j in range(n) for k in range(j + 1, n)
                 if phi[i][j][k] != phi[i][k][j]]
        viol += phi_cocycle_violations(base.c, l, r, phi)
        assert got == merge_reports("affine-cotangent-extension", [check_plsa(prec, succ)],
                                    [Violation(*v) for v in viol])
        _fraction_residuals(got)

    @settings(max_examples=30)
    @given(hs.sampled_from((2, 4)).flatmap(special_symplectic), entries)
    def test_lsa_from_symplectic(self, s, q):
        """Dims 2 and 4 (a symplectic form needs an even dim); a zero
        multiple of the form is refused as degenerate."""
        n = s.bracket.n
        w = Form(n, tuple(tuple(q * x for x in row) for row in s.omega.m))
        if q == 0:
            with pytest.raises(DegenerateForm):
                lsa_from_symplectic(s.bracket, w)
            return
        got = lsa_from_symplectic(s.bracket, w)
        assert got == StructureTensor(n, lsa_from_symplectic_plain(s.bracket.c, w.m))
        assert all_fractions(got.c)

    @settings(max_examples=30)
    @given(hs.sampled_from((2, 4)).flatmap(special_symplectic), entries)
    def test_plsa_from_special_symplectic(self, s, q):
        n = s.bracket.n
        s = SpecialSymplecticData(s.bracket, s.conn,
                                  Form(n, tuple(tuple(q * x for x in row) for row in s.omega.m)))
        if q == 0:
            with pytest.raises(InvalidInput):
                plsa_from_special_symplectic(s)
            return
        prec, succ = plsa_from_special_symplectic(s)
        prec_o, succ_o = plsa_from_special_symplectic_plain(s.bracket.c, s.conn.c, s.omega.m)
        assert (prec.c, succ.c) == (prec_o, succ_o)
        assert all_fractions(prec.c) and all_fractions(succ.c)

    @settings(max_examples=30)
    @given(dims.flatmap(lambda n: tensors((n, n, n))))
    def test_actions_read_the_structure_constants(self, c):
        op = StructureTensor(len(c), c)
        n = op.n
        dual, left = dual_left_action(op), rep_from_op_left(op)
        assert dual.t == tuple(tuple(tuple(-x for x in row) for row in plane) for plane in c)
        assert left.t == tuple(left_mult_plain(c, i) for i in range(n))
        assert all_fractions(dual.t) and all_fractions(left.t)


class TestSumProductRoutes:
    @settings(max_examples=30)
    @given(hs.data())
    def test_glue_product(self, data):
        """Summands of unequal dims, with dense, zero or single-nonzero blocks."""
        n, m = data.draw(dims), data.draw(dims)
        c1, c2 = data.draw(tensors((n, n, n))), data.draw(tensors((m, m, m)))
        l1, r1 = data.draw(tensors((n, m, m))), data.draw(tensors((n, m, m)))
        l2, r2 = data.draw(tensors((m, n, n))), data.draw(tensors((m, n, n)))
        got = glue_product(MatchedPairData(
            StructureTensor(n, c1), StructureTensor(m, c2), RepTensor(n, m, l1),
            RepTensor(n, m, r1), RepTensor(m, n, l2), RepTensor(m, n, r2)))
        assert got == StructureTensor(n + m, glue_plain(c1, c2, l1, r1, l2, r2))
        assert all_fractions(got.c)

    @settings(max_examples=30)
    @given(hs.data())
    def test_build_double_plsa(self, data):
        """Valid product pairs on both sides, or arbitrary tensors."""
        n = data.draw(dims)
        if data.draw(hs.booleans()):
            pA, pB = data.draw(product_pairs(n)), data.draw(product_pairs(n))
        else:
            pA, pB = [tuple(StructureTensor(n, data.draw(tensors((n, n, n))))
                            for _ in range(2)) for _ in range(2)]
        prec, succ = build_double_plsa(pA, pB)
        prec_o, succ_o = double_plsa_plain(pA[0].c, pA[1].c, pB[0].c, pB[1].c)
        assert (prec.c, succ.c) == (prec_o, succ_o)
        assert all_fractions(prec.c) and all_fractions(succ.c)

    @settings(max_examples=30)
    @given(hs.data())
    def test_semidirect_lie(self, data):
        """An abelian bracket with commuting actions q_i M on a module of
        another dim, or a package's bracket with the left multiplications of
        its flat connection."""
        if data.draw(hs.booleans()):
            n, m = data.draw(dims), data.draw(dims)
            br = StructureTensor(n, (((Fraction(0),) * n,) * n,) * n)
            M, qs = data.draw(matrices(m, m)), [data.draw(entries) for _ in range(n)]
            rho = RepTensor(n, m, tuple(tuple(tuple(q * x for x in row) for row in M)
                                        for q in qs))
        else:
            s = data.draw(hs.sampled_from((2, 4)).flatmap(special_symplectic))
            br, rho = s.bracket, rep_from_op_left(s.conn)
        got = semidirect_lie(br, rho)
        assert got == StructureTensor(br.n + rho.m, semidirect_plain(br.c, rho.t))
        assert all_fractions(got.c)

    @settings(max_examples=30)
    @given(hs.sampled_from((2, 4)).flatmap(special_symplectic))
    def test_doubles(self, s):
        """The tangent double pairs the copies through omega; the cotangent
        double pairs A with A* canonically and carries omega_p."""
        n, w = s.bracket.n, s.omega.m
        one = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        minus_one = tuple(tuple(-x for x in row) for row in one)
        for build, rho, metric, omega_p in (
                (tangent_double, rep_from_op_left(s.conn).t,
                 antidiagonal_plain(w, tuple(zip(*w))), None),
                (cotangent_double, dual_left_action(s.conn).t, antidiagonal_plain(one, one),
                 Form(2 * n, antidiagonal_plain(minus_one, one)))):
            got = build(s)
            assert got == DoubleData(
                StructureTensor(2 * n, semidirect_plain(s.bracket.c, rho)),
                StructureTensor(2 * n, double_conn_plain(s.conn.c, rho)),
                Form(2 * n, metric), omega_p, ((0, n), (n, 2 * n)))
            assert all_fractions(got.bracket.c) and all_fractions(got.conn.c)


class TestEmitRoutes:
    """emit_algebra_file walks cli.SECTIONS; emit_plain writes each section
    with its own loop."""

    @given(algebra_files())
    def test_generated_files(self, af):
        assert cli.emit_algebra_file(af) == emit_plain(af)

    def test_catalog_exports(self):
        for name, _, _ in catalog_list():
            af = cli._entry_to_afile(catalog_get(name))
            assert cli.emit_algebra_file(af) == emit_plain(af), name

    def test_drinfeld_doubles(self):
        pair, cp = catalog_get("plsa-2d-IV").payload, zero_coproducts(2)
        for n in (4, 8):
            pair, r, cp, rep = drinfeld_double(pair, cp)
            assert rep.verdict
            af = cli.AlgebraFile("d%d" % n, n, ops={"prec": pair[0], "succ": pair[1]},
                                 tensor2s={"r": r},
                                 reps={"alpha": RepTensor(n, n, cp.alpha),
                                       "beta": RepTensor(n, n, cp.beta)})
            assert cli.emit_algebra_file(af) == emit_plain(af), n
