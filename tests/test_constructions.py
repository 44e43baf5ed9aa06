import dataclasses
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from symplie.checks import (
    Endo,
    Form,
    RepTensor,
    StructureTensor,
    check_flat,
    check_hypersymplectic,
    check_jacobi,
    check_left_symmetric,
    check_metric_compatible,
    check_closed,
    check_parallel_form,
    check_plsa,
    check_special_symplectic,
    check_torsion_free,
    op_add,
    st,
    sub_adjacent,
    three_forms,
)
from symplie.constructions import (
    BadParams,
    CotangentExtensionData,
    FamilyParams,
    IrrationalSquareRoot,
    NotARepresentation,
    NotAnLSA,
    SpecialSymplecticData,
    affine_cotangent_extension,
    coadjoint,
    cotangent_double,
    cotangent_double_from_connection,
    dual_left_action,
    dual_right_action,
    family_JE,
    hypersymplectic_from_cotangent,
    hypersymplectic_from_tangent,
    lsa_from_symplectic,
    phi_from_omega,
    plsa_from_special_symplectic,
    post_affine_check,
    semidirect_lie,
    tangent_double,
)
from symplie.constructions import DegenerateForm, InvalidInput
from symplie.matched import canonical_skew_pairing, double_extension
from symplie import checks, constructions
from symplie.catalog import catalog_get

from oracles import (_basis, brute_left_symmetric, family_plain, form_value, product_vec,
                     rand_share_tensor, rand_tensor, rng)

Q = Fraction
SSLA_NAMES = ("ssla-2d-1", "ssla-2d-2", "ssla-2d-3", "ssla-2d-4")
PLSA_NAMES = ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV")


def ssla(name):
    return catalog_get(name).payload


def plsa(name):
    return catalog_get(name).payload


class TestDualActions:
    def test_dual_left_action_entries(self):
        r = rng(201)
        op = st(3, {(i, j, k): q for (i, j, k), q in
                    {(0, 1, 2): Q(2), (2, 2, 0): Q(-1, 2), (1, 0, 1): Q(3)}.items()})
        dla = dual_left_action(op)
        for i in range(3):
            for a in range(3):
                for b in range(3):
                    assert dla.t[i][a][b] == -op.c[i][a][b]

    def test_coadjoint_matches_dual_left_of_bracket(self):
        br = ssla("ssla-2d-3").bracket
        assert coadjoint(br).t == dual_left_action(br).t

    # all-zero, about 5% nonzero and fully dense operands at dims 1-4; the
    # second is drawn on its own or is -a, and S is commutative, so op_add
    # and sub_adjacent also meet sums that cancel to zero at every entry
    @given(hs.randoms(use_true_random=False), hs.integers(1, 4),
           hs.sampled_from((0, 0.05, 1)), hs.sampled_from((0, 0.05, 1)), hs.booleans())
    def test_entrywise_builders_match_plain_fraction_arithmetic(self, r, n, sa, sb, neg):
        def cube(f):
            return tuple(tuple(tuple(f(i, j, k) for k in range(n)) for j in range(n))
                         for i in range(n))
        a = rand_share_tensor(r, n, sa)
        b = cube(lambda i, j, k: -a[i][j][k]) if neg else rand_share_tensor(r, n, sb)
        A, B = StructureTensor(n, a), StructureTensor(n, b)
        S = StructureTensor(n, cube(lambda i, j, k: a[i][j][k] + a[j][i][k]))
        for got, want in (
                (dual_left_action(A).t, cube(lambda i, j, k: -a[i][j][k])),
                (dual_right_action(A).t, cube(lambda i, j, k: -a[j][i][k])),
                (op_add(A, B).c, cube(lambda i, j, k: a[i][j][k] + b[i][j][k])),
                (sub_adjacent(A).c, cube(lambda i, j, k: a[i][j][k] - a[j][i][k])),
                (sub_adjacent(S).c, cube(lambda i, j, k: Q(0)))):
            assert got == want
            assert all(type(x) is Fraction for plane in got for row in plane for x in row)


class TestSemidirect:
    def test_coadjoint_extension_satisfies_jacobi(self):
        for name in SSLA_NAMES:
            br = ssla(name).bracket
            big = semidirect_lie(br, coadjoint(br))
            assert check_jacobi(big).verdict, name
            assert big.n == 4

    def test_rejects_non_representation(self):
        br = ssla("ssla-2d-3").bracket
        bogus = RepTensor(2, 2, (((Q(1), Q(0)), (Q(0), Q(0))),
                                 ((Q(0), Q(1)), (Q(1), Q(0)))))
        with pytest.raises(NotARepresentation):
            semidirect_lie(br, bogus)


class TestDoubles:
    def test_tangent_double_structure(self):
        for name in SSLA_NAMES:
            s = ssla(name)
            d = tangent_double(s)
            assert d.omega_p is None
            assert d.ranges == ((0, 2), (2, 4))
            assert check_jacobi(d.bracket).verdict
            assert check_torsion_free(d.bracket, d.conn).verdict
            assert check_flat(d.bracket, d.conn).verdict
            for i in range(2):
                for j in range(2):
                    assert d.metric.m[i][j] == 0
                    assert d.metric.m[2 + i][2 + j] == 0
                    assert d.metric.m[i][2 + j] == s.omega.m[i][j]
                    assert d.metric.m[2 + j][i] == s.omega.m[i][j]

    def test_cotangent_double_structure(self):
        for name in SSLA_NAMES:
            s = ssla(name)
            d = cotangent_double(s)
            assert check_jacobi(d.bracket).verdict
            assert check_torsion_free(d.bracket, d.conn).verdict
            assert check_flat(d.bracket, d.conn).verdict
            for i in range(2):
                assert d.metric.m[i][2 + i] == 1
                assert d.metric.m[2 + i][i] == 1
                assert d.omega_p.m[i][2 + i] == -1
                assert d.omega_p.m[2 + i][i] == 1

    def test_relaxed_route_matches_when_special(self):
        s = ssla("ssla-2d-4")
        d1 = cotangent_double(s)
        d2 = cotangent_double_from_connection(s.bracket, s.conn)
        assert d1.bracket == d2.bracket
        assert d1.conn == d2.conn


class TestPhiFromOmega:
    def test_area_form(self):
        w = Form(2, ((Q(0), Q(1)), (Q(-1), Q(0))))
        f = phi_from_omega(w)
        assert f.m == ((Q(0), Q(-1)), (Q(1), Q(0)))

    def test_degenerate(self):
        with pytest.raises(DegenerateForm):
            phi_from_omega(Form(2, ((Q(0),) * 2,) * 2))


# a skew form has even rank and lsa_from_symplectic checks skewness first, so
# through it the degenerate nonzero case needs dimension 3
RANK_TWO_OF_THREE = Form(3, ((Q(0), Q(1), Q(0)), (Q(-1), Q(0), Q(0)), (Q(0),) * 3))


@pytest.mark.parametrize("call, message", [
    (lambda: phi_from_omega(Form(2, ((Q(1), Q(0)), (Q(0), Q(0))))), "form has rank 1 < 2"),
    (lambda: phi_from_omega(RANK_TWO_OF_THREE), "form has rank 2 < 3"),
    (lambda: lsa_from_symplectic(st(3), RANK_TWO_OF_THREE), "form has rank 2 < 3"),
    (lambda: lsa_from_symplectic(st(2), Form(2, ((Q(0),) * 2,) * 2)), "form has rank 0 < 2"),
], ids=["phi-rank-1", "phi-rank-2", "lsa-rank-2", "lsa-rank-0"])
def test_degenerate_form_names_its_rank(call, message):
    with pytest.raises(DegenerateForm, match="^%s$" % re.escape(message)):
        call()


class TestFamilies:
    def test_family_parameter_guards(self):
        s = ssla("ssla-2d-1")
        with pytest.raises(BadParams):
            hypersymplectic_from_tangent(s, FamilyParams("F2", Q(1), Q(0)))
        with pytest.raises(BadParams):
            hypersymplectic_from_tangent(s, FamilyParams("F3", Q(5), Q(0), Q(0)))
        with pytest.raises(BadParams):
            hypersymplectic_from_tangent(s, FamilyParams("F3", Q(2), Q(0), Q(3)))
        with pytest.raises(IrrationalSquareRoot):
            hypersymplectic_from_tangent(s, FamilyParams("F3", Q(2), Q(0), Q(1)))
        with pytest.raises(BadParams):
            # degenerate discriminant combination
            hypersymplectic_from_tangent(s, FamilyParams("F3", Q(3), Q(1), Q(3)))
        with pytest.raises(BadParams, match="^unknown family 'F4'$"):
            hypersymplectic_from_tangent(s, FamilyParams("F4", Q(1), Q(0)))

    def test_sample_instances_verify(self):
        cases = [("F1", Q(1), Q(0), None),
                 ("F1", Q(2), Q(-1, 2), None),
                 ("F2", Q(1), Q(1), None),
                 ("F3", Q(5), Q(0), Q(3))]
        for name in ("ssla-2d-2", "ssla-2d-3"):
            s = ssla(name)
            for fam, lam, mu, k in cases:
                for build in (hypersymplectic_from_tangent,
                              hypersymplectic_from_cotangent):
                    d, J, E, g = build(s, FamilyParams(fam, lam, mu, k))
                    rep = check_hypersymplectic(d.bracket, J, E, g)
                    assert rep.verdict, (name, fam, lam, mu, k, build.__name__,
                                         rep.violations[:3])

    def test_metric_and_forms_details(self):
        s = ssla("ssla-2d-2")
        d, J, E, g = hypersymplectic_from_tangent(
            s, FamilyParams("F1", Q(1), Q(0)))
        assert check_metric_compatible(g, J, E).verdict
        w1, w2, w3 = three_forms(g, J, E)
        for w in (w1, w2, w3):
            assert check_closed(d.bracket, w).verdict

    @pytest.mark.parametrize("fam, lam, mu, k", [("F1", Q(2), Q(-1, 2), None),
                                                 ("F2", Q(1), Q(1), None),
                                                 ("F3", Q(5), Q(0), Q(3))])
    def test_one_inverse_per_family(self, monkeypatch, fam, lam, mu, k):
        # J and E are both built over f, which is inverted once for the two,
        # on its int rows (the core of linalg.mat_inverse)
        calls = []
        real = constructions.scaled_inverse

        def counted(M):
            calls.append(M)
            return real(M)
        monkeypatch.setattr(constructions, "scaled_inverse", counted)
        f = phi_from_omega(ssla("ssla-2d-3").omega)
        family_JE(FamilyParams(fam, lam, mu, k), f)
        assert len(calls) == 1 and calls[0] is f.scaled

    def test_identities_evaluated_once(self, monkeypatch):
        # family_JE's self-check and check_hypersymplectic share one
        # evaluation of each of J^2 = -id, E^2 = id and JE = -EJ
        chains = []
        real = checks._mat_chain

        def recorded(terms):
            chains.append(terms)
            return real(terms)
        monkeypatch.setattr(checks, "_mat_chain", recorded)
        d, J, E, g = hypersymplectic_from_cotangent(
            ssla("ssla-2d-3"), FamilyParams("F1", Q(2), Q(-1, 2)))
        assert check_hypersymplectic(d.bracket, J, E, g).verdict
        shapes = [tuple((k, tuple(map(id, mats))) for k, mats in terms) for terms in chains]
        j, e = id(J.scaled), id(E.scaled)
        assert shapes.count(((1, (j, j)),)) == 1
        assert shapes.count(((1, (e, e)),)) == 1
        assert shapes.count(((1, (j, e)), (1, (e, j)))) == 1

    def test_self_check_survives_optimize(self):
        # a kept evaluation does not turn the self-check into an assert: the
        # explicit raise still fires under python -O
        code = "\n".join([
            "import sys",
            "from fractions import Fraction as Q",
            "from symplie import constructions",
            "from symplie.catalog import catalog_get",
            "from symplie.linalg import InternalMismatch",
            "if sys.flags.optimize != 1:",
            "    sys.exit(3)",
            "constructions.square_violations = lambda where, N, sign: (",
            "    ['bent'] if where == 'E^2-id' else [])",
            "s = catalog_get('ssla-2d-3').payload",
            "try:",
            "    constructions.hypersymplectic_from_tangent(",
            "        s, constructions.FamilyParams('F1', Q(1), Q(0)))",
            "except InternalMismatch as e:",
            "    print(e)",
            "    sys.exit(0)",
            "sys.exit(4)",
        ])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "built E does not square to id\n"

    def test_sign_flips_e(self):
        s = ssla("ssla-2d-1")
        _, _, Ep, _ = hypersymplectic_from_tangent(
            s, FamilyParams("F1", Q(1), Q(0), None, 1))
        _, _, Em, _ = hypersymplectic_from_tangent(
            s, FamilyParams("F1", Q(1), Q(0), None, -1))
        assert Ep.m == tuple(tuple(-q for q in row) for row in Em.m)


# one point of each family, and the builders by double
FAMILY_POINTS = {"F1": FamilyParams("F1", Q(2), Q(-1, 2)), "F2": FamilyParams("F2", Q(1), Q(1)),
                 "F3": FamilyParams("F3", Q(5), Q(1), Q(3))}
BUILDERS = {"tangent": hypersymplectic_from_tangent, "cotangent": hypersymplectic_from_cotangent}
# the Fraction operations that make a new Fraction
FRACTION_OPS = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
                "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
                "__pos__", "__abs__")


def _family_package(kind):
    """A special symplectic package: the catalog's ssla-2d-3 (the doubles
    have dim 4) or, as the family-grid benchmark builds it, the double
    extension of plsa-2d-IV by the zero pair (dim 8)."""
    if kind == "ssla":
        return ssla("ssla-2d-3")
    ded, _ = double_extension(plsa("plsa-2d-IV"), (st(2), st(2)))
    return SpecialSymplecticData(sub_adjacent(ded.glued), ded.glued, ded.omega_p)


def _count_fraction_ops(mp, count):
    """Count in count[0] every call of FRACTION_OPS, patched through mp."""
    for name in (op for op in FRACTION_OPS if op in Fraction.__dict__):
        real = Fraction.__dict__[name]
        static = isinstance(real, staticmethod)

        def counted(*args, _fn=real.__func__ if static else real, **kwargs):
            count[0] += 1
            return _fn(*args, **kwargs)
        mp.setattr(Fraction, name, staticmethod(counted) if static else counted)


class TestFamiliesOnIntRows:
    """J, E and g are stored as int rows (Endo.listed, Form.listed) and are
    built and verified with no dense view and no Fraction arithmetic per
    entry; their views equal a plain-loop dense build."""

    @pytest.mark.parametrize("double", ("tangent", "cotangent"))
    @pytest.mark.parametrize("fam", ("F1", "F2", "F3"))
    @pytest.mark.parametrize("kind", ("ssla", "extension"))
    def test_matches_dense_build(self, monkeypatch, refuse_dense_views, kind, fam, double):
        s, p = _family_package(kind), FAMILY_POINTS[fam]
        refuse_dense_views()
        d, J, E, g = BUILDERS[double](s, p)
        rep = check_hypersymplectic(d.bracket, J, E, g)
        monkeypatch.undo()
        n2 = 2 * s.bracket.n
        Jp, Ep, gp = family_plain(double, s.omega.m, p)
        want = (Endo(n2, Jp), Endo(n2, Ep), Form(n2, gp))
        for got, w in zip((J, E, g), want):
            assert [getattr(got, f.name) for f in dataclasses.fields(got)] == [n2, w.m]
            assert got == w and hash(got) == hash(w)
            assert all(type(x) is Fraction for row in got.m for x in row)
        assert rep.verdict
        assert rep == check_hypersymplectic(d.bracket, *want)

    @pytest.mark.parametrize("double", ("tangent", "cotangent"))
    @pytest.mark.parametrize("fam", ("F1", "F2", "F3"))
    def test_no_fraction_arithmetic_per_entry(self, monkeypatch, fam, double):
        # the Fractions a job makes are the family's parameter arithmetic, so
        # there are as many at dim 8 as at dim 4
        counts = []
        for kind in ("ssla", "extension"):
            s, p = _family_package(kind), FAMILY_POINTS[fam]

            def job():
                d, J, E, g = BUILDERS[double](s, p)
                return check_hypersymplectic(d.bracket, J, E, g).verdict
            assert job()  # the package's own checks are kept from here on (checks._once)
            count = [0]
            with monkeypatch.context() as mp:
                _count_fraction_ops(mp, count)
                assert job()
            counts.append(count[0])
        assert counts[0] == counts[1]


class TestLsaFromSymplectic:
    def test_known_product(self):
        br = st(2, {(0, 1, 0): Q(1), (1, 0, 0): Q(-1)})
        w = Form(2, ((Q(0), Q(1)), (Q(-1), Q(0))))
        prod = lsa_from_symplectic(br, w)
        assert prod == st(2, {(0, 1, 0): Q(1), (1, 1, 1): Q(1)})

    def test_defining_identity(self):
        br = st(2, {(0, 1, 0): Q(1), (1, 0, 0): Q(-1)})
        w = Form(2, ((Q(0), Q(3)), (Q(-3), Q(0))))
        prod = lsa_from_symplectic(br, w)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    x, y, z = _basis(2, i), _basis(2, j), _basis(2, k)
                    lhs = form_value(w.m, product_vec(prod.c, x, y), z)
                    rhs = form_value(w.m, product_vec(br.c, x, z), y)
                    assert lhs == rhs

    def test_self_check_survives_optimize(self):
        # under python -O an assert would vanish; the explicit raise must not
        code = "\n".join([
            "import sys",
            "from fractions import Fraction as Q",
            "from symplie import constructions",
            "from symplie.checks import CheckReport, Form, st",
            "from symplie.linalg import InternalMismatch",
            "if sys.flags.optimize != 1:",
            "    sys.exit(3)",
            "constructions.check_flat = lambda br, conn: CheckReport('flat', False, ())",
            "br = st(2, {(0, 1, 0): Q(1), (1, 0, 0): Q(-1)})",
            "w = Form(2, ((Q(0), Q(1)), (Q(-1), Q(0))))",
            "try:",
            "    constructions.lsa_from_symplectic(br, w)",
            "except InternalMismatch as e:",
            "    print(e)",
            "    sys.exit(0)",
            "sys.exit(4)",
        ])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "derived product is not flat" in done.stdout

    def test_non_closed_form_rejected(self):
        br = st(4, {(0, 1, 2): Q(1), (1, 0, 2): Q(-1)})
        w = Form(4, ((Q(0), Q(1), Q(0), Q(0)),
                     (Q(-1), Q(0), Q(0), Q(0)),
                     (Q(0), Q(0), Q(0), Q(1)),
                     (Q(0), Q(0), Q(-1), Q(0))))
        with pytest.raises(InvalidInput, match="closed"):
            lsa_from_symplectic(br, w)


class TestPlsaExtraction:
    def test_reproduces_catalog_pairs(self):
        for sname, pname in zip(SSLA_NAMES, PLSA_NAMES):
            prec, succ = plsa_from_special_symplectic(ssla(sname))
            cprec, csucc = plsa(pname)
            assert prec == cprec, (sname, pname)
            assert succ == csucc, (sname, pname)

    def test_pair_sums_to_connection(self):
        s = ssla("ssla-2d-4")
        prec, succ = plsa_from_special_symplectic(s)
        assert op_add(prec, succ) == s.conn


class TestAffineCotangentExtension:
    def test_zero_phi_on_catalog_pairs(self):
        for name in PLSA_NAMES:
            prec, succ = plsa(name)
            base = op_add(prec, succ)
            data = CotangentExtensionData(base, dual_left_action(base),
                                          dual_left_action(prec), st(2).c)
            product, rep = affine_cotangent_extension(data)
            assert rep.verdict, (name, rep.violations[:3])
            assert brute_left_symmetric(product.c)

    def test_wrong_l_is_flagged(self):
        prec, succ = plsa("plsa-2d-III")
        base = op_add(prec, succ)
        data = CotangentExtensionData(base, dual_left_action(prec),
                                      dual_left_action(prec), st(2).c)
        _, rep = affine_cotangent_extension(data)
        assert any(v.where == "l-is-dual-left-action" for v in rep.violations)

    def test_asymmetric_phi_is_flagged(self):
        # over an abelian base with zero actions any phi yields a
        # left-symmetric product, but the canonical pairing is parallel only
        # when phi is symmetric in its last two slots, so the verdict drops
        base = st(2)
        zero_rep = dual_left_action(base)
        phi = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
        phi[0][1][0] = Q(1)
        phi = tuple(tuple(tuple(col) for col in plane) for plane in phi)
        product, rep = affine_cotangent_extension(
            CotangentExtensionData(base, zero_rep, zero_rep, phi))
        assert not rep.verdict
        assert any(v.where == "phi-symmetry" for v in rep.violations)
        assert brute_left_symmetric(product.c)
        pairing = canonical_skew_pairing(2)
        assert not check_parallel_form(product, pairing).verdict

    def test_symmetric_phi_on_abelian_base_passes(self):
        base = st(2)
        zero_rep = dual_left_action(base)
        phi = [[[Q(0)] * 2 for _ in range(2)] for _ in range(2)]
        phi[0][0][0] = Q(1)
        phi[0][1][0] = phi[0][0][1] = Q(2)
        phi[1][1][1] = Q(-3)
        phi = tuple(tuple(tuple(col) for col in plane) for plane in phi)
        product, rep = affine_cotangent_extension(
            CotangentExtensionData(base, zero_rep, zero_rep, phi))
        assert rep.verdict, rep.violations[:3]
        assert brute_left_symmetric(product.c)
        pairing = canonical_skew_pairing(2)
        assert check_parallel_form(product, pairing).verdict

    def test_verdict_tracks_left_symmetry(self):
        # the report verdict must agree with a brute-force evaluation of the
        # built product for arbitrary r-actions
        r = rng(202)
        for name in PLSA_NAMES:
            prec, succ = plsa(name)
            base = op_add(prec, succ)
            for _ in range(4):
                rt = rand_tensor(r, 2)
                data = CotangentExtensionData(
                    base, dual_left_action(base), RepTensor(2, 2, rt),
                    st(2).c)
                product, rep = affine_cotangent_extension(data)
                assert rep.verdict == brute_left_symmetric(product.c), name

    def test_rejects_non_lsa_base(self):
        bad = st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})
        zero_rep = dual_left_action(st(2))
        with pytest.raises(NotAnLSA):
            affine_cotangent_extension(
                CotangentExtensionData(bad, zero_rep, zero_rep, st(2).c))


class TestPostAffine:
    def test_succ_dot_pair_from_catalog_plsa(self):
        for name in PLSA_NAMES:
            prec, succ = plsa(name)
            dot = op_add(prec, succ)
            br = sub_adjacent(dot)
            rep = post_affine_check(succ, dot, br)
            assert rep.verdict, (name, rep.violations[:3])
            assert any("agrees: pass" in note for note in rep.notes)

    def test_non_lie_bracket_fails(self):
        s = catalog_get("ssla-2d-3").payload
        c = [[list(row) for row in plane] for plane in s.bracket.c]
        c[1][0] = [Q(0), Q(0)]  # [e_2, e_1] zeroed, [e_1, e_2] kept
        br = StructureTensor(2, tuple(tuple(map(tuple, plane)) for plane in c))
        rep = post_affine_check(s.conn, s.conn, br)
        assert not rep.verdict
        assert {v.where for v in rep.violations} == {"jacobi: antisymmetry"}
        assert not any(note.startswith("ALERT") for note in rep.notes)

    def test_incompatible_connections_fail(self):
        br = st(2, {(0, 1, 0): Q(1), (1, 0, 0): Q(-1)})
        conn = st(2, {(1, 0, 0): Q(-1), (1, 1, 1): Q(1)})
        conn2 = st(2, {(0, 1, 0): Q(1), (1, 1, 1): Q(1)})
        rep = post_affine_check(conn, conn2, br)
        assert not rep.verdict
        where = {v.where for v in rep.violations}
        assert "post-connection" in where
        assert not any(note.startswith("ALERT") for note in rep.notes)


    def test_disagreeing_routes_give_both_verdicts(self):
        # D = 0 meets the post-connection identity, but nabla is not
        # left-symmetric (it is not flat), so the product-pair route fails
        nab = st(2, {(0, 0, 1): Q(1), (1, 1, 0): Q(1)})
        rep = post_affine_check(nab, nab, sub_adjacent(nab))
        assert "flat(nabla): flat" in {v.where for v in rep.violations}
        assert "post-connection" not in {v.where for v in rep.violations}
        assert rep.notes == ("direct identity (pass) and product-pair route (fail) disagree",)


NON_SKEW = st(2, {(0, 1, 0): Q(1), (1, 0, 0): Q(1)})  # [e1, e2] = [e2, e1] = e1
NON_COMMUTING = RepTensor(2, 2, (((Q(1), Q(0)), (Q(0), Q(0))),
                                 ((Q(0), Q(1)), (Q(0), Q(0)))))


@pytest.mark.parametrize("call, error, message", [
    (lambda: semidirect_lie(NON_SKEW, RepTensor(2, 1, (((Q(0),),),) * 2)),
     NotARepresentation, "bracket fails the Lie axioms (antisymmetry) at (0, 1)"),
    (lambda: semidirect_lie(st(2), NON_COMMUTING), NotARepresentation,
     "action is not a representation at (0, 1, 0)"),
    (lambda: cotangent_double_from_connection(NON_SKEW, st(2)), InvalidInput,
     "antisymmetry fails at (0, 1)"),
    (lambda: cotangent_double_from_connection(st(2), st(2, {(0, 1, 0): Q(1)})),
     InvalidInput, "torsion-free fails at (0, 1)"),
    (lambda: lsa_from_symplectic(NON_SKEW, canonical_skew_pairing(1)), InvalidInput,
     "antisymmetry fails at (0, 1)"),
    (lambda: lsa_from_symplectic(st(2), Form(2, ((Q(1), Q(0)), (Q(0), Q(1))))),
     InvalidInput, "skew fails at (0, 0)"),
], ids=["semidirect-bracket", "semidirect-action", "cotangent-bracket",
        "cotangent-torsion", "lsa-bracket", "lsa-form"])
def test_precondition_messages_name_the_violation(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()
