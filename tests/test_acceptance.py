"""End-to-end acceptance run.

One test per shipped guarantee, executed with exact arithmetic throughout
(nothing is rounded, every comparison is ==).  Each test prints a single
summary line, bypassing capture, so a full run shows the scoreboard:

    ACCEPTANCE 1: PASS
    ...
    ACCEPTANCE 9: PASS
"""

import os
from contextlib import contextmanager
from fractions import Fraction

from symplie.checks import (
    Endo,
    Form,
    RepTensor,
    StructureTensor,
    check_closed,
    check_complex_product,
    check_hypersymplectic,
    check_metric_compatible,
    check_parallel_form,
    check_plsa,
    check_special_symplectic,
    op_add,
    op_sub,
    st,
    sub_adjacent,
    three_forms,
)
from symplie.constructions import (
    CotangentExtensionData,
    FamilyParams,
    affine_cotangent_extension,
    dual_left_action,
    hypersymplectic_from_cotangent,
    hypersymplectic_from_tangent,
    plsa_from_special_symplectic,
)
from symplie.matched import canonical_skew_pairing, double_extension
from symplie.bialgebra import (
    ParaKahlerData,
    R_operators,
    canonical_r,
    check_parakahler,
    coboundary_coproducts,
    drinfeld_double,
    plsba_check,
    plsca_check,
    rr_brackets,
    slsba_check,
    slsba_double,
    zero_coproducts,
)
from symplie.linalg import mat_zero
from symplie.catalog import catalog_get
from symplie.cli import RECIPES, emit_algebra_file, main, parse_algebra_file

from oracles import (
    brute_jacobi,
    coproducts_from_products,
    rand_invertible,
    rand_mat,
    rand_q,
    rng,
    t3_is_zero,
    transport_product,
)

Q = Fraction
SSLA_NAMES = ("ssla-2d-1", "ssla-2d-2", "ssla-2d-3", "ssla-2d-4")
PLSA_NAMES = ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV")


@contextmanager
def criterion(num, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("ACCEPTANCE %d: FAIL" % num)
        raise
    with capsys.disabled():
        print("ACCEPTANCE %d: PASS" % num)


def ssla(name):
    return catalog_get(name).payload


def plsa(name):
    return catalog_get(name).payload


# the hypersymplectic grid is shared by tests 2 and 3, built once
_GRID = []


def family_grid():
    if not _GRID:
        lams = (Q(1), Q(2), Q(-1))
        mus = (Q(0), Q(1), Q(-1, 2))
        params = [FamilyParams("F1", lam, mu, None, 1) for lam in lams for mu in mus]
        params += [FamilyParams("F2", lam, mu, None, 1)
                   for lam in lams for mu in mus if mu != 0]
        params += [FamilyParams("F3", lam, mu, k, 1)
                   for lam, mu, k in ((Q(5), Q(0), Q(3)), (Q(5), Q(1), Q(3)),
                                      (Q(5), Q(1), Q(4)))]
        assert len(params) == 9 + 6 + 3
        for sname in SSLA_NAMES:
            s = ssla(sname)
            for build in (hypersymplectic_from_tangent, hypersymplectic_from_cotangent):
                for p in params:
                    d, J, E, g = build(s, p)
                    _GRID.append((d.bracket, J, E, g))
    return _GRID


def test_1_catalog_tables_and_pair_extraction(capsys):
    # the four stored flat symplectic packages verify exactly, and splitting
    # each connection reproduces the four stored product pairs entry by entry
    frozen = {
        "ssla-2d-1": ({}, {}),
        "ssla-2d-2": ({(0, 0, 1): Q(1)}, {}),
        "ssla-2d-3": ({(0, 1, 0): Q(-1), (1, 0, 0): Q(-1)},
                      {(0, 1, 0): Q(1), (1, 1, 1): Q(1)}),
        "ssla-2d-4": ({(0, 1, 0): Q(-1, 2), (1, 0, 0): Q(-1, 2),
                       (1, 1, 0): Q(1), (1, 1, 1): Q(-1, 2)},
                      {(0, 1, 0): Q(1), (1, 1, 1): Q(1)}),
    }
    with criterion(1, capsys):
        for sname, pname in zip(SSLA_NAMES, PLSA_NAMES):
            s = ssla(sname)
            assert check_special_symplectic(s.bracket, s.conn, s.omega).verdict, sname
            prec, succ = plsa_from_special_symplectic(s)
            want_prec, want_succ = frozen[sname]
            assert prec.c == st(2, want_prec).c, sname
            assert succ.c == st(2, want_succ).c, sname
            cat_prec, cat_succ = plsa(pname)
            assert (prec.c, succ.c) == (cat_prec.c, cat_succ.c), (sname, pname)


def test_2_doubles_carry_the_three_families(capsys):
    with criterion(2, capsys):
        grid = family_grid()
        assert len(grid) == 4 * 2 * (9 + 6 + 3) == 144
        for idx, (br, J, E, g) in enumerate(grid):
            rep = check_hypersymplectic(br, J, E, g)
            assert rep.verdict, (idx, [v.where for v in rep.violations[:3]])


def test_3_first_form_closed_forces_the_other_two(capsys):
    with criterion(3, capsys):
        premise = 0
        for br, J, E, g in family_grid():
            w1, w2, w3 = three_forms(g, J, E)
            if check_closed(br, w1).verdict:
                premise += 1
                assert check_closed(br, w2).verdict
                assert check_closed(br, w3).verdict
        assert premise == 144  # the implication is not vacuous on the suite

        # random search for a counterexample among valid low-dimensional
        # packages: a skew bracket satisfying jacobi, an anticommuting
        # (J, E) pair, a compatible metric.  (In dimensions 2 and 3 the
        # validity filter is provably empty: J^2 = -id needs even dimension,
        # and in dimension 2 J-invariance plus E-anti-invariance force a
        # degenerate metric.  The loop stays honest and checks whatever
        # survives.)
        r_ = rng(313)
        for t in range(100):
            n = 2 + (t % 2)
            c = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(n):
                        q = rand_q(r_)
                        c[i][j][k] = q
                        c[j][i][k] = -q
            cc = tuple(tuple(tuple(row) for row in plane) for plane in c)
            J = Endo(n, tuple(tuple(rand_q(r_) for _ in range(n)) for _ in range(n)))
            E = Endo(n, tuple(tuple(rand_q(r_) for _ in range(n)) for _ in range(n)))
            gm = [[Q(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gm[i][j] = gm[j][i] = rand_q(r_)
            g = Form(n, tuple(tuple(row) for row in gm))
            if not brute_jacobi(cc):
                continue
            br = StructureTensor(n, cc)
            if not check_complex_product(br, J, E).verdict:
                continue
            if not check_metric_compatible(g, J, E).verdict:
                continue
            w1, w2, w3 = three_forms(g, J, E)
            if check_closed(br, w1).verdict:
                assert check_closed(br, w2).verdict
                assert check_closed(br, w3).verdict


def test_4_zero_phi_extension_is_special_symplectic(capsys):
    with criterion(4, capsys):
        w = canonical_skew_pairing(2)
        for name in PLSA_NAMES:
            prec, succ = plsa(name)
            dot = op_add(prec, succ)
            # the action whose derived commutative part is exactly prec
            r = RepTensor(2, 2, tuple(tuple(tuple(-x for x in row) for row in plane)
                                      for plane in prec.c))
            product, rep = affine_cotangent_extension(
                CotangentExtensionData(dot, dual_left_action(dot), r, st(2).c))
            assert rep.verdict, name
            assert product.n == 4
            assert check_parallel_form(product, w).verdict, name
            assert check_special_symplectic(sub_adjacent(product), product, w).verdict, name


def _affine_brute_left_symmetric(base, l, r, phi):
    """Independent evaluator: multiply through the extension formula
    (x,a)(y,b) = (x.y, l(x)b + r(y)a + phi(x,y)) directly and test the
    left-symmetry identity on every basis triple of the doubled space."""
    n = base.n
    d = 2 * n

    def mult(u, v):
        x, a = u[:n], u[n:]
        y, b = v[:n], v[n:]
        out = [Q(0)] * d
        for i in range(n):
            for j in range(n):
                q = x[i] * y[j]
                if q:
                    for k in range(n):
                        out[k] += q * base.c[i][j][k]
                        out[n + k] += q * phi[i][j][k]
        for i in range(n):
            if x[i]:
                for k in range(n):
                    out[n + k] += x[i] * sum(l.t[i][k][s] * b[s] for s in range(n))
        for j in range(n):
            if y[j]:
                for k in range(n):
                    out[n + k] += y[j] * sum(r.t[j][k][s] * a[s] for s in range(n))
        return tuple(out)

    basis = [tuple(Q(int(p == q)) for q in range(d)) for p in range(d)]
    for u in basis:
        for v in basis:
            for w in basis:
                a1 = tuple(p - q for p, q in zip(mult(mult(u, v), w),
                                                 mult(u, mult(v, w))))
                a2 = tuple(p - q for p, q in zip(mult(mult(v, u), w),
                                                 mult(v, mult(u, w))))
                if a1 != a2:
                    return False
    return True


def test_5_extension_verifier_matches_brute_force(capsys):
    # enumeration: every dual action of a stored commutative part, plus three
    # hand-picked actions whose derived commutative part is noncommutative
    with criterion(5, capsys):
        dots, precs = {}, {}
        for name in PLSA_NAMES:
            prec, succ = plsa(name)
            dots[name] = op_add(prec, succ)
            precs[name] = prec
        ractions = [dual_left_action(precs[n]) for n in PLSA_NAMES]
        for entries in ({(0, 1, 1): Q(1), (1, 0, 1): Q(-1)},
                        {(1, 0, 0): Q(1, 2)},
                        {(0, 0, 1): Q(1), (0, 1, 0): Q(2)}):
            t = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
            for (i, j, k), q in entries.items():
                t[i][j][k] = q
            ractions.append(RepTensor(2, 2, tuple(tuple(tuple(row) for row in m)
                                                  for m in t)))
        phi = st(2).c
        npass = nfail = 0
        for bname in PLSA_NAMES:
            base = dots[bname]
            l = dual_left_action(base)
            for r in ractions:
                product, rep = affine_cotangent_extension(
                    CotangentExtensionData(base, l, r, phi))
                # the zero phi is symmetric and a cocycle, and l is the dual
                # left action by construction, so the verifier verdict must
                # reduce to the derived pair's axioms
                prec = StructureTensor(2, tuple(tuple(tuple(-r.t[i][j][k]
                                                            for k in range(2))
                                                      for j in range(2))
                                                for i in range(2)))
                succ = op_sub(base, prec)
                assert rep.verdict == check_plsa(prec, succ).verdict, bname
                assert rep.verdict == _affine_brute_left_symmetric(base, l, r, phi), bname
                npass += rep.verdict
                nfail += not rep.verdict
        assert npass + nfail == 4 * 7 == 28
        assert npass == 8 and nfail == 20  # both outcomes are exercised


def test_6_iterated_doubles_stay_coboundary_bialgebras(capsys):
    with criterion(6, capsys):
        for name in ("plsa-2d-II", "plsa-2d-III"):
            pair = plsa(name)
            (pair_d, r, cp_d, rep) = drinfeld_double(pair, zero_coproducts(2))
            assert rep.verdict, name
            assert pair_d[0].n == 4
            assert r == canonical_r(2)
            T1, T2 = rr_brackets(pair_d, r)
            assert t3_is_zero(T1) and t3_is_zero(T2)
            assert plsca_check(cp_d).verdict
            assert plsba_check(pair_d, cp_d).verdict
            # once more: the 4-dim double with its own coproducts doubles again
            (pair_dd, r2, cp_dd, rep2) = drinfeld_double(pair_d, cp_d)
            assert rep2.verdict, name
            assert pair_dd[0].n == 8
            assert r2 == canonical_r(4)
            T1, T2 = rr_brackets(pair_dd, r2)
            assert t3_is_zero(T1) and t3_is_zero(T2)
            # the double report embeds the coproduct and compatibility checks
            # as parts; their notes prove both ran and passed at dimension 8
            assert "plsca: dual product-pair route agrees (pass)" in rep2.notes
            assert "plsba: matched-pair route agrees (pass)" in rep2.notes


def _direct_sum(c2, q):
    """A 2-dim product tensor extended by a 1-dim product e3.e3 = q e3."""
    c = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                c[i][j][k] = c2.c[i][j][k]
    c[2][2][2] = q
    return StructureTensor(3, tuple(tuple(tuple(r) for r in pl) for pl in c))


def test_7_operator_routes_agree_on_random_input(capsys):
    with criterion(7, capsys):
        r_ = rng(808)
        pool = [plsa(n) for n in PLSA_NAMES]
        # dim-3 members: each stored pair padded by an idempotent line and
        # pushed through a random change of basis, then re-verified
        for name in PLSA_NAMES:
            prec, succ = plsa(name)
            p3 = _direct_sum(prec, Q(0))
            s3 = _direct_sum(succ, Q(1))
            for _ in range(2):
                P = rand_invertible(r_, 3)
                tp = StructureTensor(3, transport_product(p3.c, P))
                ts = StructureTensor(3, transport_product(s3.c, P))
                assert check_plsa(tp, ts).verdict, name
                pool.append((tp, ts))
        assert len(pool) == 12 and {p[0].n for p in pool} == {2, 3}

        valid = 0
        for t in range(100):
            pair = pool[t % len(pool)]
            r = rand_mat(r_, pair[0].n)
            # raises InternalMismatch if the closed forms of the three
            # operators ever disagree with their direct evaluation
            R_operators(pair, r)
            cp = coboundary_coproducts(pair, r)
            if plsca_check(cp).verdict:
                # raises InternalMismatch if the compatibility verdict
                # disagrees with the matched-pair formulation
                rep = plsba_check(pair, cp)
                assert any("matched-pair route agrees" in n for n in rep.notes)
                valid += 1
        assert valid == 10  # both branches were exercised

        # compatibility across all pairings of stored products with stored
        # coproducts, again cross-checked on every call
        npass = nfail = 0
        for n1 in PLSA_NAMES:
            for n2 in PLSA_NAMES:
                cp = coproducts_from_products(*plsa(n2))
                rep = plsba_check(plsa(n1), cp)
                assert any("matched-pair route agrees" in n for n in rep.notes)
                npass += rep.verdict
                nfail += not rep.verdict
        assert (npass, nfail) == (7, 9)


def test_8_single_coproduct_theory(capsys):
    with criterion(8, capsys):
        dots = [op_add(*plsa(n)) for n in PLSA_NAMES]

        # (a) the action-compatibility identity against the matched-pair
        # route on 50 random 2-dim instances; slsba_check raises
        # InternalMismatch if the two ever part ways
        r_ = rng(809)
        okpass = okfail = 0
        for t in range(50):
            P = rand_invertible(r_, 2)
            lsa = StructureTensor(2, transport_product(dots[t % 4].c, P))
            P2 = rand_invertible(r_, 2)
            dual = StructureTensor(2, transport_product(dots[(t + 1) % 4].c, P2))
            alpha = tuple(tuple(tuple(dual.c[p][q][k] for q in range(2))
                                for p in range(2)) for k in range(2))
            rep = slsba_check(lsa, alpha)
            assert any("matched-pair route agrees" in n for n in rep.notes)
            compat_ok = not any(v.where == "coproduct-compat" for v in rep.violations)
            okpass += compat_ok
            okfail += not compat_ok
        assert (okpass, okfail) == (25, 25)

        # (b) the double of every stored product with the zero coproduct
        # passes the bialgebra check and the full structure check with its
        # own product as the connection
        em = [[Q(0)] * 4 for _ in range(4)]
        for i in range(2):
            em[i][i] = Q(1)
            em[2 + i][2 + i] = Q(-1)
        E4 = Endo(4, tuple(tuple(row) for row in em))
        for name, dot in zip(PLSA_NAMES, dots):
            alpha = tuple(mat_zero(2) for _ in range(2))
            lsa_d, alpha_d, rep = slsba_double((dot, alpha))
            assert rep.verdict, name
            assert slsba_check(lsa_d, alpha_d).verdict, name
            pk = ParaKahlerData(sub_adjacent(lsa_d), canonical_skew_pairing(2),
                                E4, lsa_d)
            assert check_parakahler(pk).verdict, name

        # (c) gluing a stored pair with the zero pair gives data whose full
        # structure check (connection branch) passes exactly when the
        # commutative part of the input vanishes, failing only on the
        # symmetry of the derivative of the reflection
        zero_flags = []
        for name in PLSA_NAMES:
            prec, succ = plsa(name)
            ded, _ = double_extension((prec, succ), (st(2), st(2)))
            pk = ParaKahlerData(sub_adjacent(ded.glued), ded.omega_p, E4, ded.glued)
            rep = check_parakahler(pk)
            assert rep.verdict == t3_is_zero(prec.c), name
            if not rep.verdict:
                assert {v.where for v in rep.violations} == {"conn-E-symmetric"}
            zero_flags.append(t3_is_zero(prec.c))
        assert zero_flags == [True, False, False, False]  # both directions seen


# ---------------------------------------------------------------------------
# CLI


def _rand_terms(r_, n):
    ks = sorted(r_.sample(range(1, n + 1), r_.randint(1, n)))
    parts = []
    for k in ks:
        q = rand_q(r_)
        if q == 0:
            q = Q(1)
        parts.append("%s*e%d" % (q, k))
    return " + ".join(parts)


def _random_algebra_text(r_, t):
    n = 1 + t % 3
    lines = []
    for label in ("a", "b")[:1 + t % 2]:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        r_.shuffle(pairs)
        for i, j in pairs[:r_.randint(1, len(pairs))]:
            lines.append("op %s %d %d = %s" % (label, i, j, _rand_terms(r_, n)))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    r_.shuffle(pairs)
    for i, j in pairs[:r_.randint(0, len(pairs))]:
        lines.append("form w %d %d = %s" % (i, j, rand_q(r_)))
    for i in range(1, n + 1):
        if r_.random() < 0.7:
            lines.append("map J %d = %s" % (i, _rand_terms(r_, n)))
    r_.shuffle(pairs)
    for i, j in pairs[:r_.randint(0, 2)]:
        lines.append("tensor2 rt %d %d = %s" % (i, j, rand_q(r_)))
    trips = [(i, j, k) for i in range(1, n + 1) for j in range(1, n + 1)
             for k in range(1, n + 1)]
    r_.shuffle(trips)
    for i, j, k in trips[:r_.randint(0, 3)]:
        lines.append("rep rho %d %d %d = %s" % (i, j, k, rand_q(r_)))
    r_.shuffle(lines)
    return "\n".join(["algebra gen%d" % t, "dim %d" % n] + lines) + "\n"


def _nonzero_op(tensor):
    return any(x for plane in tensor.c for row in plane for x in row)


def test_9_cli_round_trips_recipes_and_exit_codes(capsys, tmp_path):
    with criterion(9, capsys):
        # -- round trips: 20 generated files, emit of parse is a fixed point
        r_ = rng(909)
        for t in range(20):
            text = _random_algebra_text(r_, t)
            af = parse_algebra_file(text)
            out1 = emit_algebra_file(af)
            af2 = parse_algebra_file(out1)
            out2 = emit_algebra_file(af2)
            assert out1 == out2, t
            for label, op in af.ops.items():
                if _nonzero_op(op):
                    assert af2.ops[label].c == op.c, (t, label)
            for label, w in af.forms.items():
                if any(x for row in w.m for x in row):
                    assert af2.forms[label].m == w.m, (t, label)

        # -- inputs for the construction recipes
        def export(name):
            path = str(tmp_path / (name + ".alg"))
            assert main(["catalog", "show", name, "--export", "--out", path]) == 0
            return path

        ssla3 = export("ssla-2d-3")
        plsa2 = export("plsa-2d-II")
        idem = export("lsa-1d-idem")

        from symplie.cli import AlgebraFile
        from symplie.constructions import coadjoint

        br3 = parse_algebra_file(open(ssla3).read()).ops["bracket"]
        dot3 = op_add(*plsa("plsa-2d-III"))
        dot2 = op_add(*plsa("plsa-2d-II"))
        dot4 = op_add(*plsa("plsa-2d-IV"))

        def write_af(fname, **groups):
            af = AlgebraFile(fname, 2)
            for group, objs in groups.items():
                getattr(af, group).update(objs)
            path = str(tmp_path / (fname + ".alg"))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(emit_algebra_file(af))
            return path

        sd_in = write_af("sd-in", ops={"bracket": br3}, reps={"rho": coadjoint(br3)})
        bt_in = write_af("bt-in", ops={"a1": dot3, "a2": dot2})
        sl_in = write_af("sl-in", ops={"prod": dot4})
        zero_in = write_af("zero-in")

        # -- every recipe runs, writes, and its output re-verifies
        table = [
            ("sub-adjacent", [idem], [], ["lie"]),
            ("lsa-from-symplectic", [ssla3], [], ["lsa"]),
            ("plsa-extract", [ssla3], [], ["plsa"]),
            ("tangent-double", [ssla3], [], ["lie"]),
            ("cotangent-double", [ssla3], [], ["lie"]),
            ("hypersymplectic-f1", [ssla3], ["--lambda", "1", "--mu", "0"],
             ["hypersymplectic"]),
            ("hypersymplectic-f2", [ssla3],
             ["--lambda", "1", "--mu", "1", "--double", "cotangent"],
             ["hypersymplectic"]),
            ("hypersymplectic-f3", [ssla3], ["--lambda", "5", "--mu", "0", "--k", "3"],
             ["hypersymplectic"]),
            ("semidirect", [sd_in], [], ["lie"]),
            ("bowtie", [bt_in], [], ["lsa"]),
            ("double-extension", [plsa2, zero_in], [], ["special-symplectic"]),
            ("drinfeld-double", [plsa2], [], ["plsa", "plsba"]),
            ("slsba-double", [sl_in], [], ["slsba"]),
            ("coboundary", [plsa2], ["--r", "2,2,1"], ["plsba"]),
        ]
        assert {row[0] for row in table} == set(RECIPES)
        for recipe, inputs, extra, checks in table:
            out = str(tmp_path / ("out-%s.alg" % recipe))
            rc = main(["construct", recipe] + inputs + extra + ["--out", out])
            assert rc == 0, (recipe, capsys.readouterr().out)
            assert os.path.exists(out), recipe
            for check in checks:
                assert main(["verify", out, "--check", check]) == 0, (recipe, check)

        # -- exit codes: 0 = verified above; 1 = failing check or failing
        # construction postcondition (nothing written); 2 = usage errors
        bad = str(tmp_path / "bad.alg")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("algebra bad\ndim 2\nop bracket 1 2 = 1*e1\n")
        assert main(["verify", bad, "--check", "lie"]) == 1

        cb_out = str(tmp_path / "cb-fail.alg")
        rc = main(["construct", "coboundary", plsa2,
                   "--r", "1,1,-2;1,2,1/3;2,2,-1/2", "--out", cb_out])
        assert rc == 1
        assert not os.path.exists(cb_out)

        assert main(["verify", plsa2, "--check", "no-such-check"]) == 2
        assert main(["verify", str(tmp_path / "missing.alg"), "--check", "lie"]) == 2
        assert main(["construct", "no-such-recipe", plsa2]) == 2
        assert main(["construct", "hypersymplectic-f1", ssla3]) == 2  # no --lambda
        assert main(["construct", "double-extension", plsa2]) == 2  # needs two inputs
        capsys.readouterr()  # drop accumulated CLI output
