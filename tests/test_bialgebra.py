import collections
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from symplie import bialgebra, catalog, checks, cli, constructions, linalg, matched
from symplie.checks import (
    CheckReport,
    Endo,
    Form,
    Violation,
    check_left_symmetric,
    op_add,
    st,
    sub_adjacent,
)
from symplie.constructions import (
    CotangentExtensionData,
    InvalidInput,
    NotAnLSA,
    SpecialSymplecticData,
    affine_cotangent_extension,
    dual_left_action,
    tangent_double,
)
from symplie.bialgebra import (
    CoproductPair,
    NotAPLSBA,
    NotAnSLSBA,
    ParaKahlerData,
    R_operators,
    canonical_r,
    check_parakahler,
    coboundary_conditions,
    coboundary_coproducts,
    drinfeld_double,
    plsba_check,
    plsca_check,
    rr_brackets,
    slsba_check,
    slsba_coboundary,
    slsba_double,
    zero_coproducts,
)
from symplie.matched import canonical_skew_pairing, double_extension
from symplie.linalg import InternalMismatch, mat_zero, packed
from symplie.catalog import CatalogEntry, catalog_get

from oracles import (
    brute_left_symmetric,
    coboundary_coproducts_plain,
    coboundary_violations,
    coproducts_from_products,
    nonzero_entries,
    plsca_violations,
    rand_mat,
    rng,
    t3_is_zero,
)

Q = Fraction
PLSA_NAMES = ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV")


def plsa(name):
    return catalog_get(name).payload


def _entries_of(t):
    """The scalars of the nested tuples or lists t."""
    if isinstance(t, (tuple, list)):
        return [x for sub in t for x in _entries_of(sub)]
    return [t]


def mats_zero(t):
    return all(all(q == 0 for row in m for q in row) for m in t)


class TestCoproductDuality:
    def test_roundtrip(self):
        for name in PLSA_NAMES:
            prec, succ = plsa(name)
            cp = coproducts_from_products(prec, succ)
            back = cp.dual
            assert back == (prec, succ), name

    def test_entry_convention(self):
        prec, succ = plsa("plsa-2d-III")
        cp = coproducts_from_products(prec, succ)
        for k in range(2):
            for p in range(2):
                for q in range(2):
                    assert cp.alpha[k][p][q] == prec.c[p][q][k]
                    assert cp.beta[k][p][q] == succ.c[p][q][k]


class TestPlscaCheck:
    def test_zero_coproducts_pass(self):
        rep = plsca_check(zero_coproducts(3))
        assert rep.verdict
        assert any("agrees" in note for note in rep.notes)

    def test_dualized_catalog_pairs_pass(self):
        for name in PLSA_NAMES:
            cp = coproducts_from_products(*plsa(name))
            assert plsca_check(cp).verdict, name

    def test_non_cocommutative_alpha_fails(self):
        # dual of a pair whose first product is not commutative
        bad_prec = st(2, {(0, 1, 0): Q(1)})
        cp = coproducts_from_products(bad_prec, st(2))
        rep = plsca_check(cp)
        assert not rep.verdict
        assert any(v.where == "co-commutativity" for v in rep.violations)
        assert any("fail" in note for note in rep.notes)


class TestPlsbaCheck:
    def test_zero_coproducts_compatible_with_catalog(self):
        for name in PLSA_NAMES:
            rep = plsba_check(plsa(name), zero_coproducts(2))
            assert rep.verdict, (name, rep.violations[:3])
            assert any("matched-pair route agrees (pass)" in n for n in rep.notes)

    def test_zero_products_with_catalog_coproducts(self):
        for name in PLSA_NAMES:
            cp = coproducts_from_products(*plsa(name))
            rep = plsba_check((st(2), st(2)), cp)
            assert rep.verdict, name

    def test_incompatible_sides_fail(self):
        cp = coproducts_from_products(*plsa("plsa-2d-III"))
        rep = plsba_check(plsa("plsa-2d-II"), cp)
        assert not rep.verdict
        assert any(v.where.startswith("bialgebra-") for v in rep.violations)
        assert any("matched-pair route agrees (fail)" in n for n in rep.notes)

    def test_invalid_product_pair_rejected(self):
        bad_prec = st(2, {(0, 1, 0): Q(1)})
        with pytest.raises(InvalidInput):
            plsba_check((bad_prec, st(2)), zero_coproducts(2))

    def test_invalid_coproducts_rejected(self):
        bad_prec = st(2, {(0, 1, 0): Q(1)})
        cp = coproducts_from_products(bad_prec, st(2))
        with pytest.raises(InvalidInput):
            plsba_check(plsa("plsa-2d-I"), cp)


class TestCoboundary:
    def test_zero_r_gives_zero_coproducts(self):
        for name in PLSA_NAMES:
            cp = coboundary_coproducts(plsa(name), mat_zero(2))
            assert cp.alpha == zero_coproducts(2).alpha
            assert cp.beta == zero_coproducts(2).beta

    def test_symmetric_r_passes_closure_conditions(self):
        r_ = rng(411)
        for name in PLSA_NAMES:
            for _ in range(5):
                m = rand_mat(r_, 2)
                rsym = tuple(tuple(m[a][b] + m[b][a] for b in range(2))
                             for a in range(2))
                assert coboundary_conditions(plsa(name), rsym).verdict

    def test_symmetric_r_kills_first_operator(self):
        r_ = rng(412)
        for name in PLSA_NAMES:
            for _ in range(5):
                m = rand_mat(r_, 2)
                rsym = tuple(tuple(m[a][b] + m[b][a] for b in range(2))
                             for a in range(2))
                R1, _, _ = R_operators(plsa(name), rsym)
                assert mats_zero(R1)

    def test_symmetric_r_with_vanishing_brackets_kills_all_operators(self):
        # with a symmetric r every closed-form term is a multiple of either
        # r - r^T or one of the two quadratic tensors, so once the tensors
        # vanish all three obstructions do too
        vals = (Q(0), Q(1), Q(-1), Q(1, 2))
        hits = 0
        for name in PLSA_NAMES:
            pair = plsa(name)
            for a in vals:
                for b in vals:
                    for d in vals:
                        r = ((a, b), (b, d))
                        t1, t2 = rr_brackets(pair, r)
                        if not (t3_is_zero(t1) and t3_is_zero(t2)):
                            continue
                        if a or b or d:
                            hits += 1
                        R1, R2, R3 = R_operators(pair, r)
                        assert mats_zero(R1), (name, r)
                        assert all(t3_is_zero(t) for t in R2), (name, r)
                        assert all(t3_is_zero(t) for t in R3), (name, r)
        assert hits > 0

    def test_antisymmetric_r_with_vanishing_brackets_can_leave_residue(self):
        # an antisymmetric r can satisfy both quadratic conditions while the
        # first obstruction stays nonzero (it is linear in r - r^T and does
        # not see the quadratic tensors at all), so the three operators have
        # to be checked in their own right
        def pad(t):
            return st(3, {(i, j, k): t.c[i][j][k]
                          for i in range(2) for j in range(2)
                          for k in range(2) if t.c[i][j][k]})

        prec, succ = plsa("plsa-2d-III")
        pair = (pad(prec), pad(succ))
        z = Q(0)
        r = ((z, z, Q(1)), (z, z, z), (Q(-1), z, z))
        t1, t2 = rr_brackets(pair, r)
        assert t3_is_zero(t1) and t3_is_zero(t2)
        R1, R2, R3 = R_operators(pair, r)
        assert all(t3_is_zero(t) for t in R2)
        assert all(t3_is_zero(t) for t in R3)
        assert not mats_zero(R1)
        assert R1[1] == ((z, z, Q(-2)), (z, z, z), (Q(2), z, z))

    def test_operators_decide_coproduct_validity(self):
        # the three obstructions vanish exactly when the induced coproduct
        # pair is valid; the cross-check inside R_operators also exercises
        # the closed-form route on every draw
        r_ = rng(413)
        seen_valid = seen_invalid = 0
        for name in PLSA_NAMES:
            pair = plsa(name)
            for _ in range(15):
                r = rand_mat(r_, 2)
                R1, R2, R3 = R_operators(pair, r)
                vanish = (mats_zero(R1) and all(t3_is_zero(t) for t in R2)
                          and all(t3_is_zero(t) for t in R3))
                cp = coboundary_coproducts(pair, r)
                assert plsca_check(cp).verdict == vanish, (name, r)
                seen_valid += vanish
                seen_invalid += not vanish
        assert seen_valid and seen_invalid

    def test_valid_coboundary_coproducts_are_compatible(self):
        r_ = rng(414)
        hits = 0
        for name in PLSA_NAMES:
            pair = plsa(name)
            for _ in range(15):
                r = rand_mat(r_, 2)
                cp = coboundary_coproducts(pair, r)
                if plsca_check(cp).verdict:
                    hits += 1
                    assert plsba_check(pair, cp).verdict, (name, r)
        assert hits > 0

    def test_invalid_product_pair_rejected(self):
        bad_prec = st(2, {(0, 1, 0): Q(1)})
        with pytest.raises(InvalidInput):
            coboundary_conditions((bad_prec, st(2)), mat_zero(2))
        with pytest.raises(InvalidInput):
            R_operators((bad_prec, st(2)), mat_zero(2))

    def test_closed_form_disagreement_raises(self, monkeypatch):
        # the exception lives in linalg and stays importable where it was
        import symplie
        from symplie import bialgebra, linalg
        assert symplie.InternalMismatch is bialgebra.InternalMismatch is linalg.InternalMismatch
        pair = plsa("plsa-2d-II")
        r = ((Q(1), Q(2)), (Q(-1, 3), Q(0)))
        R_operators(pair, r)
        t1, t2 = rr_brackets(pair, r)
        bumped = tuple(tuple(tuple(x + 1 for x in row) for row in plane) for plane in t1)
        # the closed-form route reads both tensors in scaled form
        monkeypatch.setattr(bialgebra, "_rr_scaled",
                            lambda *_: (linalg.scaled(bumped), linalg.scaled(t2)))
        with pytest.raises(symplie.InternalMismatch, match="second operator"):
            R_operators(pair, r)


def _times3(t):
    """The Packed t over three times its denominator: the same values."""
    return packed([[[3 * x for x in row] for row in plane] for plane in t.decoded], 3 * t.den)


def _bump_first(t):
    """A fresh copy of the Packed t with 1 added to its first numerator."""
    num = [[list(row) for row in plane] for plane in t.decoded]
    num[0][0][0] += 1
    return packed(num, t.den)


class TestRoutesComparedOnNumerators:
    """R_operators and slsba_coboundary compare their two routes on Scaled
    numerators, cross-multiplied by the other side's denominator: equal
    values over different denominators agree, and a one-entry change in any
    operator raises InternalMismatch.  The second and third operators and
    the co-left-symmetry are stacked over the basis vectors, so a bump of
    the stack's first entry changes the first basis vector's tensor."""

    PAIR, R = "plsa-2d-II", ((Q(1), Q(2)), (Q(-1, 3), Q(0)))
    LSA_R = ((Q(1), Q(-2)), (Q(1, 2), Q(3)))

    def test_other_denominators_agree(self, monkeypatch):
        want = R_operators(plsa(self.PAIR), self.R)
        real = bialgebra._rr_scaled
        monkeypatch.setattr(bialgebra, "_rr_scaled", lambda *a: tuple(map(_times3, real(*a))))
        assert R_operators(plsa(self.PAIR), self.R) == want

    @pytest.mark.parametrize("k, name", ((0, "first"), (1, "second"), (2, "third")))
    def test_one_entry_bump_raises(self, monkeypatch, k, name):
        real = bialgebra._closed_form_operators

        def bumped(*args):
            ops = list(real(*args))
            ops[k] = _bump_first(ops[k])
            return tuple(ops)
        monkeypatch.setattr(bialgebra, "_closed_form_operators", bumped)
        with pytest.raises(InternalMismatch, match="%s operator" % name):
            R_operators(plsa(self.PAIR), self.R)

    def test_slsba_coboundary_other_denominators_agree(self, monkeypatch):
        lsa = op_add(*plsa("plsa-2d-IV"))
        want = slsba_coboundary(lsa, self.LSA_R)
        real = bialgebra._co_left_symmetry
        monkeypatch.setattr(bialgebra, "_co_left_symmetry", lambda al: _times3(real(al)))
        assert slsba_coboundary(lsa, self.LSA_R) == want

    def test_slsba_coboundary_one_entry_bump_raises(self, monkeypatch):
        lsa = op_add(*plsa("plsa-2d-IV"))
        real = bialgebra._co_left_symmetry
        monkeypatch.setattr(bialgebra, "_co_left_symmetry", lambda al: _bump_first(real(al)))
        with pytest.raises(InternalMismatch, match="co-left-symmetry via r disagrees"):
            slsba_coboundary(lsa, self.LSA_R)


class TestOperatorRoutesConvertOnce:
    """The obstruction routes stay on Scaled numerators: R_operators turns
    only the 1 + 2n tensors it returns into Fractions, when they are read,
    and converts r, r^T and u = r - r^T to Scaled at most once each;
    plsca_check and the r route of slsba_coboundary build no Fraction tensor
    they do not return; a failing coboundary-dense job builds none until its
    outputs are read; drinfeld_double converts neither coproduct it builds back to Scaled and
    unscales no r-bracket tensor."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"scaled": [], "unscaled": [], "fractions": []}
        for name, got in seen.items():
            def counted(t, *rest, real=getattr(linalg, name), got=got):
                got.append(t)
                return real(t, *rest)
            for mod in (linalg, checks, bialgebra, constructions, matched):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted)
        return seen

    @staticmethod
    def _fresh_pair(name):
        return tuple(checks.StructureTensor(op.n, op.c) for op in plsa(name))

    @pytest.mark.parametrize("name", ("plsa-2d-II", "plsa-2d-IV"))
    def test_R_operators(self, calls, name):
        pair = self._fresh_pair(name)
        r = ((Q(1), Q(2)), (Q(-1, 3), Q(5, 7)))
        rT = tuple(zip(*r))
        u = tuple(tuple(a - b for a, b in zip(x, y)) for x, y in zip(r, rT))
        ops = R_operators(pair, r)
        assert calls["unscaled"] == []  # the operators are views, built when read
        R1, R2, R3 = ops
        assert len(calls["unscaled"]) == 1 + 2 * 2
        assert [len(R1), len(R2), len(R3)] == [2, 2, 2]
        assert tuple(ops) == (R1, R2, R3) and len(calls["unscaled"]) == 1 + 2 * 2
        # read as the tuple of lists it replaces
        assert ops == (R1, R2, R3) and (R1, R2, R3) == ops and ops != (R1, R2)
        assert (ops[0], ops[-1], ops[1:], len(ops)) == (R1, R3, (R2, R3), 3)
        with pytest.raises(TypeError):
            hash(ops)
        for m in (r, rT, u):
            assert sum(t == m for t in calls["scaled"]) <= 1

    def test_failing_dense_job_builds_no_fractions_until_read(self, calls):
        # the coboundary-dense benchmark job on an r whose coproducts fail:
        # every output is kept as numerators until it is read, and then
        # equals the oracles
        pair = drinfeld_double(self._fresh_pair("plsa-2d-IV"), zero_coproducts(2))[0]
        vals = (Q(1), Q(-2), Q(1, 2), Q(0), Q(3), Q(-1, 3))
        r = tuple(tuple(vals[(3 * a + b) % 6] for b in range(4)) for a in range(4))
        for got in calls.values():
            got.clear()
        ops = R_operators(pair, r)
        cp = coboundary_coproducts(pair, r)
        coalg, cond = plsca_check(cp), coboundary_conditions(pair, r)
        assert not coalg.verdict and not cond.verdict
        assert calls["unscaled"] == calls["fractions"] == []
        assert not any("residual" in vars(v) for v in coalg.violations + cond.violations)
        assert not {"alpha", "beta"} & set(vars(cp)) and not {"first", "second"} & set(vars(ops))
        c = [op.c for op in pair]
        alpha, beta = coboundary_coproducts_plain(*c, r)
        want = plsca_violations(alpha, beta)
        assert [(v.where, v.indices, v.residual) for v in coalg.violations] == want
        assert [(v.where, v.indices, v.residual) for v in cond.violations] == \
            coboundary_violations(*c, r)
        assert calls["unscaled"] == calls["fractions"] == []  # scalar residuals
        assert (cp.alpha, cp.beta) == (alpha, beta)
        assert len(calls["unscaled"]) == 2
        R1, R2, R3 = ops
        assert len(calls["unscaled"]) == 2 + 1 + 2 * 4
        for where, got in (("co-commutativity", R1), ("co-compatibility", R2),
                           ("co-left-symmetry", R3)):
            assert nonzero_entries(where, got) == [v for v in want if v[0] == where]
        assert all(type(x) is Q for t in (R1, *R2, *R3, cp.alpha, cp.beta)
                   for x in _entries_of(t))

    def test_plsca_check(self, calls):
        for cp in (coproducts_from_products(*self._fresh_pair("plsa-2d-III")),
                   coproducts_from_products(st(2, {(0, 1, 0): Q(1, 2)}), st(2))):
            calls["unscaled"].clear()
            plsca_check(cp)
            assert calls["unscaled"] == []

    def test_slsba_double_checks_the_packed_alpha(self, calls):
        # the double's coproduct is checked on the Packed alpha its
        # coboundary computed, never packed back from the alpha returned;
        # the public functions give the same alpha and reports
        lsa = op_add(*self._fresh_pair("plsa-2d-IV"))
        lsa_d, alpha_d, rep = slsba_double((lsa, tuple(mat_zero(2) for _ in range(2))))
        assert rep.verdict and not any(t is alpha_d for t in calls["scaled"])
        alpha, cobrep = slsba_coboundary(lsa_d, canonical_r(2))
        assert alpha == alpha_d and cobrep.verdict
        assert slsba_check(lsa_d, alpha).verdict
        assert not any("_coboundary" in key for key in (*vars(lsa), *vars(lsa_d)))

    def test_slsba_coboundary_unscales_alpha_only(self, calls):
        lsa = op_add(*plsa("plsa-2d-IV"))
        alpha, _ = slsba_coboundary(lsa, ((Q(1), Q(-2)), (Q(1, 2), Q(3))))
        assert len(calls["unscaled"]) == 1
        assert all(type(x) is Q for plane in alpha for row in plane for x in row)


    def test_drinfeld_double_4_to_8(self, calls, monkeypatch):
        # the double's coproducts keep the Scaled form they were unscaled
        # from, and its r-bracket violations are read off the numerators
        pair_d, _, cp_d, _ = drinfeld_double(self._fresh_pair("plsa-2d-IV"),
                                             zero_coproducts(2))
        brackets = []
        real = bialgebra._rr_scaled

        def recorded(*args):
            out = real(*args)
            brackets.extend(out)
            return out
        monkeypatch.setattr(bialgebra, "_rr_scaled", recorded)
        calls["scaled"].clear()
        calls["unscaled"].clear()
        _, _, cp, rep = drinfeld_double(pair_d, cp_d)
        assert rep.verdict and cp.n == 8 and len(brackets) == 2
        assert not [t for t in calls["scaled"] if t == cp.alpha or t == cp.beta]
        assert not [t for t in calls["unscaled"] if any(t is b for b in brackets)]


class TestPairFormsKeptOnce:
    """A product pair's Scaled tensors (_scaled_pair) are built once per pair
    of objects, and a CoproductPair converts its tensors and builds its dual
    products once, so the dual's check_plsa cross-check runs once per
    coproduct object; equal but distinct objects build their own."""

    def test_scaled_pair(self):
        prec, succ = (checks.StructureTensor(op.n, op.c) for op in plsa("plsa-2d-II"))
        first = bialgebra._scaled_pair((prec, succ))
        assert bialgebra._scaled_pair((prec, succ)) is first
        other = bialgebra._scaled_pair((prec, checks.StructureTensor(succ.n, succ.c)))
        assert other is not first and all(map(linalg.scaled_equal, other, first))

    def test_coproduct_pair(self, monkeypatch):
        runs = []
        real = checks._plsa
        monkeypatch.setattr(checks, "_plsa", lambda *a: runs.append(a) or real(*a))
        cp = coproducts_from_products(*plsa("plsa-2d-III"))
        twin = CoproductPair(cp.n, cp.alpha, cp.beta)
        assert cp.scaled is cp.scaled
        assert cp.dual is cp.dual
        assert twin.dual == cp.dual
        assert twin.dual is not cp.dual
        first = plsca_check(cp)
        assert plsca_check(cp) == first and len(runs) == 1
        assert plsca_check(twin) == first and len(runs) == 2

    def test_coboundary_pair_seeded(self, monkeypatch):
        # coboundary_coproducts hands its pair the Scaled tensors it unscaled
        cp = coboundary_coproducts(plsa("plsa-2d-II"), ((Q(1), Q(2)), (Q(-1, 3), Q(0))))
        want = plsca_check(CoproductPair(cp.n, cp.alpha, cp.beta))

        def refused(t):
            raise AssertionError("the seeded pair was converted again")
        monkeypatch.setattr(bialgebra, "scaled", refused)
        assert plsca_check(cp) == want
        assert all(map(linalg.scaled_equal, cp.scaled, map(linalg.scaled, (cp.alpha, cp.beta))))


class TestCanonicalR:
    def test_entries(self):
        r = canonical_r(2)
        assert len(r) == 4
        assert r[0][2] == 1 and r[1][3] == 1
        assert sum(1 for row in r for q in row if q) == 2


class TestDrinfeldDouble:
    def test_double_of_catalog_with_zero_coproducts(self):
        for name in ("plsa-2d-II", "plsa-2d-III"):
            (prec_d, succ_d), r, cp_d, rep = drinfeld_double(
                plsa(name), zero_coproducts(2))
            assert rep.verdict, (name, rep.violations[:3])
            assert prec_d.n == 4
            assert r == canonical_r(2)
            T1, T2 = rr_brackets((prec_d, succ_d), r)
            assert t3_is_zero(T1) and t3_is_zero(T2)
            assert brute_left_symmetric(op_add(prec_d, succ_d).c)

    def test_iterated_double(self):
        # the double of a bialgebra is again one, so every level of
        # 2 -> 4 -> 8 -> 16 -> 32 passes and its r has vanishing quadratic
        # tensors
        pair, cp = plsa("plsa-2d-II"), zero_coproducts(2)
        for n in (4, 8, 16, 32):
            pair, r, cp, rep = drinfeld_double(pair, cp)
            assert rep.verdict, (n, rep.violations[:3])
            assert pair[0].n == n
            T1, T2 = rr_brackets(pair, r)
            assert t3_is_zero(T1) and t3_is_zero(T2), n

    def test_incompatible_input_rejected(self):
        cp = coproducts_from_products(*plsa("plsa-2d-III"))
        with pytest.raises(NotAPLSBA):
            drinfeld_double(plsa("plsa-2d-II"), cp)


class TestCheckParakahler:
    def _standard(self, name):
        ded, _ = double_extension(plsa(name), (st(2), st(2)))
        em = [[Q(0)] * 4 for _ in range(4)]
        for i in range(2):
            em[i][i] = Q(1)
            em[2 + i][2 + i] = Q(-1)
        E = Endo(4, tuple(tuple(row) for row in em))
        return ded, E

    def test_doubles_are_parakahler(self):
        for name in PLSA_NAMES:
            ded, E = self._standard(name)
            pk = ParaKahlerData(sub_adjacent(ded.glued), ded.omega_p, E)
            assert check_parakahler(pk).verdict, name

    def test_connection_conditions_detect_first_product(self):
        # with the glued product as connection the full check passes exactly
        # when the commutative part of the input pair vanishes, and the only
        # failures are in the symmetry of the derivative of E
        for name in PLSA_NAMES:
            prec, _ = plsa(name)
            ded, E = self._standard(name)
            pk = ParaKahlerData(sub_adjacent(ded.glued), ded.omega_p, E,
                                ded.glued)
            rep = check_parakahler(pk)
            assert rep.verdict == t3_is_zero(prec.c), name
            if not rep.verdict:
                assert {v.where for v in rep.violations} == {"conn-E-symmetric"}

    def test_bad_reflection_flagged(self):
        ded, E = self._standard("plsa-2d-I")
        shear = [list(row) for row in E.m]
        shear[0][1] = Q(1)
        pk = ParaKahlerData(sub_adjacent(ded.glued), ded.omega_p,
                            Endo(4, tuple(tuple(r) for r in shear)))
        rep = check_parakahler(pk)
        assert not rep.verdict
        assert any(v.where == "E-squared" for v in rep.violations)

    def test_non_lie_bracket_fails(self):
        # only e_2 o e_1 = e_1: every other sub-check passes, so only the
        # bracket's missing antisymmetry can fail the report
        br = st(2, {(1, 0, 0): Q(1)})
        area = Form(2, ((Q(0), Q(1)), (Q(-1), Q(0))))
        E = Endo(2, ((Q(1), Q(0)), (Q(0), Q(-1))))
        rep = check_parakahler(ParaKahlerData(br, area, E))
        assert not rep.verdict
        assert rep.violations == (Violation("jacobi: antisymmetry", (0, 1), (Q(1), Q(0))),)

    def test_identity_reflection_has_unbalanced_eigenspaces(self):
        ded, _ = self._standard("plsa-2d-I")
        ident = Endo(4, tuple(tuple(Q(1) if a == b else Q(0) for b in range(4))
                              for a in range(4)))
        rep = check_parakahler(ParaKahlerData(sub_adjacent(ded.glued),
                                              ded.omega_p, ident))
        assert not rep.verdict
        wheres = {v.where for v in rep.violations}
        assert "eigenspace-dims" in wheres
        assert "compatibility" in wheres


class TestSlsba:
    def test_zero_coproduct_passes(self):
        for name in PLSA_NAMES:
            dot = op_add(*plsa(name))
            alpha = tuple(mat_zero(2) for _ in range(2))
            rep = slsba_check(dot, alpha)
            assert rep.verdict, name
            assert any("matched-pair route agrees (pass)" in n for n in rep.notes)

    def test_non_lsa_base_rejected(self):
        bad = st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})
        with pytest.raises(NotAnLSA):
            slsba_check(bad, tuple(mat_zero(2) for _ in range(2)))

    def test_cross_check_skipped_for_non_lsa_dual(self):
        # alpha whose dualized product is not left-symmetric: the matched
        # route cannot run, the note says so, and co-left-symmetry is flagged
        bad = st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})
        alpha = tuple(tuple(tuple(bad.c[p][q][k] for q in range(2))
                            for p in range(2)) for k in range(2))
        dot = op_add(*plsa("plsa-2d-I"))
        rep = slsba_check(dot, alpha)
        assert not rep.verdict
        assert any("skipped" in n for n in rep.notes)
        assert any(v.where == "co-left-symmetry" for v in rep.violations)

    def test_coboundary_verdict_implies_validity(self):
        r_ = rng(415)
        hits = 0
        for name in PLSA_NAMES:
            dot = op_add(*plsa(name))
            for _ in range(10):
                r = rand_mat(r_, 2)
                alpha, rep = slsba_coboundary(dot, r)
                if rep.verdict:
                    hits += 1
                    assert slsba_check(dot, alpha).verdict, (name, r)
        assert hits > 0

    def test_coboundary_rejects_non_lsa(self):
        bad = st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})
        with pytest.raises(NotAnLSA):
            slsba_coboundary(bad, mat_zero(2))


class TestSlsbaDouble:
    def test_double_of_catalog_products(self):
        for name in PLSA_NAMES:
            dot = op_add(*plsa(name))
            alpha = tuple(mat_zero(2) for _ in range(2))
            lsa_d, alpha_d, rep = slsba_double((dot, alpha))
            assert rep.verdict, (name, rep.violations[:3])
            assert rep.check == "slsba-double"
            assert lsa_d.n == 4
            assert brute_left_symmetric(lsa_d.c)
            assert check_left_symmetric(lsa_d).verdict
            # the double re-checks as a bialgebra and as para-Kahler data
            assert slsba_check(lsa_d, alpha_d).verdict

    def test_double_passes_connection_branch(self):
        # with zero right actions in the glued product, the covariant
        # derivative of the block reflection is symmetric, so the double is
        # para-Kahler even with its own product taken as the connection
        for name in PLSA_NAMES:
            dot = op_add(*plsa(name))
            alpha = tuple(mat_zero(2) for _ in range(2))
            lsa_d, _, _ = slsba_double((dot, alpha))
            em = [[Q(0)] * 4 for _ in range(4)]
            for i in range(2):
                em[i][i] = Q(1)
                em[2 + i][2 + i] = Q(-1)
            pk = ParaKahlerData(sub_adjacent(lsa_d), canonical_skew_pairing(2),
                                Endo(4, tuple(tuple(row) for row in em)), lsa_d)
            assert check_parakahler(pk).verdict, name

    def test_invalid_input_rejected(self):
        bad = st(2, {(0, 1, 0): Q(1)})  # left-symmetric but alpha broken below
        dot = op_add(*plsa("plsa-2d-II"))
        alpha = tuple(tuple(tuple(bad.c[p][q][k] for q in range(2))
                            for p in range(2)) for k in range(2))
        with pytest.raises(NotAnSLSBA):
            slsba_double((dot, alpha))


def _fresh_op(op):
    """A StructureTensor equal to op, with nothing kept on it yet."""
    return checks.StructureTensor(op.n, op.c)


class TestPreconditionsOncePerChain:
    """Each precondition is evaluated once per call chain.  The counts are of
    evaluations, not calls: the runs of the computation each memoized check
    keeps (checks._plsa for check_plsa, checks._left_symmetric for
    check_left_symmetric, bialgebra._coproduct_operators for plsca_check and
    R_operators, which hands its operators on; bialgebra._coboundary_scaled
    for R_operators and coboundary_coproducts, which takes its coproducts),
    on fresh objects, so a result kept from an earlier test hides no run.
    check_matched_pair, kept nowhere, is counted per call."""

    CORES = ((checks, "_plsa"), (checks, "_left_symmetric"),
             (bialgebra, "_coproduct_operators"), (bialgebra, "_coboundary_scaled"),
             (bialgebra, "check_matched_pair"))

    @pytest.fixture
    def runs(self, monkeypatch):
        counts = collections.Counter()
        for mod, name in self.CORES:
            def counted(*args, _real=getattr(mod, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(mod, name, counted)
        return counts

    def test_drinfeld_double_4_to_8(self, runs):
        pair_d, _, cp_d, _ = drinfeld_double(tuple(map(_fresh_op, plsa("plsa-2d-IV"))),
                                             zero_coproducts(2))
        pair_d = tuple(map(_fresh_op, pair_d))
        cp_d = CoproductPair(cp_d.n, cp_d.alpha, cp_d.beta)
        runs.clear()
        _, _, _, rep = drinfeld_double(pair_d, cp_d)
        assert rep.verdict
        # the input, its dual, the double and the double's dual
        assert runs["_plsa"] == 4
        assert runs["_coproduct_operators"] == 2
        # the matched-pair cross-check still runs once per bialgebra check
        assert runs["check_matched_pair"] == 2

    def test_slsba_double_2_to_4(self, runs):
        alpha = tuple(mat_zero(2) for _ in range(2))
        _, _, rep = slsba_double((op_add(*plsa("plsa-2d-IV")), alpha))
        assert rep.verdict
        # the input and the double; slsba_check on the double finds it kept
        assert runs["_left_symmetric"] == 2

    def test_cli_verify_plsba(self, runs, tmp_path, capsys):
        d2, d4 = str(tmp_path / "d2.alg"), str(tmp_path / "d4.alg")
        assert cli.main(["catalog", "show", "plsa-2d-IV", "--export", "--out", d2]) == 0
        assert cli.main(["construct", "drinfeld-double", d2, "--out", d4]) == 0
        runs.clear()
        assert cli.main(["verify", d4, "--check", "plsba"]) == 0
        assert "plsba: PASS" in capsys.readouterr().out
        # the file's pair and the dual of its coproducts, each once: the
        # CLI's precondition reports are kept for plsba_check
        assert runs["_plsa"] == 2
        assert runs["_coproduct_operators"] == 1

    def test_coboundary_dense_job(self, runs):
        # the job sequence of the coboundary-dense benchmark on one r: the
        # pair and the dual of the coproduct pair each once; the coproducts
        # and their operators once, in R_operators' direct route, which
        # hands them to coboundary_coproducts and plsca_check, whose report
        # plsba_check finds kept
        pair = tuple(map(_fresh_op, plsa("plsa-2d-IV")))
        r = ((Q(0), Q(1)), (Q(-1), Q(0)))
        R_operators(pair, r)
        cp = coboundary_coproducts(pair, r)
        assert plsca_check(cp).verdict
        assert coboundary_conditions(pair, r).verdict
        assert plsba_check(pair, cp).verdict
        assert runs["_plsa"] == 2
        assert runs["_coproduct_operators"] == 1
        assert runs["_coboundary_scaled"] == 1
        assert runs["check_matched_pair"] == 1


class TestOperatorHandOver:
    """R_operators leaves its coproducts and direct operators on the product
    pair's _ScaledPair; the next coboundary_coproducts on the pair drops
    them and uses them only for an r equal by value to R_operators' r, and
    plsca_check takes the operators off the pair it seeds."""

    R = ((Q(1), Q(2)), (Q(-1, 3), Q(0)))
    OTHER = ((Q(0), Q(1)), (Q(3), Q(-2)))

    @staticmethod
    def _pair():
        return tuple(map(_fresh_op, plsa("plsa-2d-II")))

    @staticmethod
    def _assert_coproducts(pair, r, cp):
        want = coboundary_coproducts_plain(pair[0].c, pair[1].c, r)
        assert (cp.alpha, cp.beta) == want
        assert all(map(linalg.scaled_equal, cp.scaled, map(linalg.scaled, want)))
        assert plsca_check(cp) == plsca_check(CoproductPair(cp.n, cp.alpha, cp.beta))

    def test_equal_r_is_seeded(self):
        pair = self._pair()
        R_operators(pair, self.R)
        cp = coboundary_coproducts(pair, [list(row) for row in self.R])
        assert cp.__dict__["_operators"] is not None
        assert bialgebra._scaled_pair(pair).handover is None
        self._assert_coproducts(pair, self.R, cp)

    def test_other_r_misses(self):
        pair = self._pair()
        R_operators(pair, self.R)
        cp = coboundary_coproducts(pair, self.OTHER)
        assert cp.__dict__["_operators"] is None
        assert bialgebra._scaled_pair(pair).handover is None
        self._assert_coproducts(pair, self.OTHER, cp)

    def test_list_r_mutated_in_place_misses(self):
        pair = self._pair()
        r = [list(row) for row in self.R]
        R_operators(pair, r)
        r[1][1] = Q(5)
        cp = coboundary_coproducts(pair, r)
        assert cp.__dict__["_operators"] is None
        self._assert_coproducts(pair, tuple(map(tuple, r)), cp)

    def test_raising_call_leaves_none(self, monkeypatch):
        pair = self._pair()
        R_operators(pair, self.R)
        real = bialgebra._closed_form_operators

        def bumped(*args):
            first, *rest = real(*args)
            return (_bump_first(first), *rest)
        monkeypatch.setattr(bialgebra, "_closed_form_operators", bumped)
        with pytest.raises(InternalMismatch, match="first operator"):
            R_operators(pair, self.R)
        assert bialgebra._scaled_pair(pair).handover is None
        cp = coboundary_coproducts(pair, self.R)
        assert cp.__dict__["_operators"] is None
        self._assert_coproducts(pair, self.R, cp)

    def test_plsca_check_drops_the_operators(self):
        pair = self._pair()
        R_operators(pair, self.R)
        cp = coboundary_coproducts(pair, self.R)
        plsca_check(cp)
        assert "_operators" not in cp.__dict__
        assert bialgebra._scaled_pair(pair).handover is None


BAD_PREC = st(3, {(0, 1, 2): Q(1)})  # not commutative; compatible with zero succ
BAD_PAIR = (BAD_PREC, st(3))
BAD_PAIR_MSG = "product pair invalid: commutative: commutative at (0, 1)"
BAD_LSA = st(2, {(0, 0, 0): Q(1), (1, 0, 0): Q(1)})
NOT_LSA_MSG = "base product is not left-symmetric at (0, 1, 0)"


def _not_cocommutative(n):
    return coproducts_from_products(st(n, {(0, 1, 0): Q(1)}), st(n))


def _double_with(monkeypatch, name, value):
    monkeypatch.setattr(bialgebra, name, lambda *_: value)
    drinfeld_double(plsa("plsa-2d-II"), zero_coproducts(2))


def _bad_catalog_entry():
    catalog._validate(CatalogEntry("bad", "plsa", BAD_PAIR, "test"))


def _skew_failing_package():
    s = catalog_get("ssla-2d-3").payload
    tangent_double(SpecialSymplecticData(s.bracket, s.conn,
                                         Form(2, ((Q(0), Q(1)), (Q(1), Q(0))))))


def _affine_over(base):
    zero_rep = dual_left_action(st(2))
    zero_phi = tuple(mat_zero(2) for _ in range(2))
    affine_cotangent_extension(CotangentExtensionData(base, zero_rep, zero_rep, zero_phi))


@pytest.mark.parametrize("call, error, message", [
    (lambda mp: plsba_check(BAD_PAIR, zero_coproducts(3)), InvalidInput, BAD_PAIR_MSG),
    (lambda mp: plsba_check(plsa("plsa-2d-I"), _not_cocommutative(2)), InvalidInput,
     "coproduct pair invalid: co-commutativity at (0, 0, 1)"),
    (lambda mp: coboundary_conditions(BAD_PAIR, mat_zero(3)), InvalidInput, BAD_PAIR_MSG),
    (lambda mp: R_operators(BAD_PAIR, mat_zero(3)), InvalidInput, BAD_PAIR_MSG),
    (lambda mp: drinfeld_double(BAD_PAIR, zero_coproducts(3)), NotAPLSBA, BAD_PAIR_MSG),
    (lambda mp: drinfeld_double(plsa("plsa-2d-I"), _not_cocommutative(2)), NotAPLSBA,
     "coproduct pair invalid: co-commutativity at (0, 0, 1)"),
    (lambda mp: drinfeld_double(plsa("plsa-2d-II"),
                                coproducts_from_products(*plsa("plsa-2d-III"))),
     NotAPLSBA, "bialgebra compatibility fails: bialgebra-2 at (0, 0, 1, 1)"),
    (lambda mp: _double_with(mp, "build_double_plsa",
                             (st(4, {(0, 1, 2): Q(1)}), st(4))),
     InvalidInput, BAD_PAIR_MSG),
    (lambda mp: _double_with(mp, "coboundary_coproducts", _not_cocommutative(4)),
     InvalidInput, "coproduct pair invalid: co-commutativity at (0, 0, 1)"),
    (lambda mp: slsba_check(BAD_LSA, tuple(mat_zero(2) for _ in range(2))),
     NotAnLSA, NOT_LSA_MSG),
    (lambda mp: slsba_coboundary(BAD_LSA, mat_zero(2)), NotAnLSA, NOT_LSA_MSG),
    (lambda mp: slsba_double((op_add(*plsa("plsa-2d-II")),
                              coproducts_from_products(st(2, {(0, 1, 0): Q(1)}),
                                                       st(2)).alpha)),
     NotAnSLSBA, "coproduct-compat fails at (0, 0, 1, 1)"),
    (lambda mp: _skew_failing_package(), InvalidInput,
     "not special symplectic: skew: skew at (0, 1)"),
    (lambda mp: double_extension((st(3), st(3)), BAD_PAIR), InvalidInput,
     "side A* is not a product pair: commutative: commutative at (0, 1)"),
    (lambda mp: _affine_over(BAD_LSA), NotAnLSA, NOT_LSA_MSG),
    (lambda mp: _bad_catalog_entry(), AssertionError,
     "catalog entry bad fails commutative: commutative at (0, 1)"),
], ids=["plsba-pair", "plsba-coproducts", "coboundary-conditions", "R-operators",
        "double-input-pair", "double-input-coproducts", "double-compatibility",
        "double-own-pair", "double-own-coproducts", "slsba", "slsba-coboundary",
        "slsba-double", "tangent-double", "double-extension-side", "affine-extension",
        "catalog-entry"])
def test_precondition_messages(monkeypatch, call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call(monkeypatch)


def test_failing_pair_raises_on_every_call():
    # the failing report of BAD_PAIR is kept on BAD_PREC; each public call
    # raises from it again, with the same message
    for _ in range(2):
        for call in (lambda: R_operators(BAD_PAIR, mat_zero(3)),
                     lambda: coboundary_conditions(BAD_PAIR, mat_zero(3)),
                     lambda: plsba_check(BAD_PAIR, zero_coproducts(3))):
            with pytest.raises(InvalidInput, match="^%s$" % re.escape(BAD_PAIR_MSG)):
                call()


def _dot_coproduct(name):
    """The single coproduct dual to the sum product of a catalog pair."""
    return coproducts_from_products(op_add(*plsa(name)), st(2)).alpha


# each verifier with its independent route (a name in bialgebra) and the
# note it adds when the two agree
CROSS_ROUTES = [
    (lambda: plsca_check(zero_coproducts(2)), "check_plsa",
     "dual product-pair route agrees (pass)"),
    (lambda: plsca_check(_not_cocommutative(2)), "check_plsa",
     "dual product-pair route agrees (fail)"),
    (lambda: plsba_check(plsa("plsa-2d-II"), zero_coproducts(2)), "check_matched_pair",
     "matched-pair route agrees (pass)"),
    (lambda: plsba_check(plsa("plsa-2d-II"), coproducts_from_products(*plsa("plsa-2d-III"))),
     "check_matched_pair", "matched-pair route agrees (fail)"),
    (lambda: slsba_check(op_add(*plsa("plsa-2d-IV")), _dot_coproduct("plsa-2d-I")),
     "check_matched_pair", "matched-pair route agrees (pass)"),
    (lambda: slsba_check(op_add(*plsa("plsa-2d-IV")), _dot_coproduct("plsa-2d-II")),
     "check_matched_pair", "matched-pair route agrees (fail)"),
]
CROSS_IDS = ["plsca-pass", "plsca-fail", "plsba-pass", "plsba-fail", "slsba-pass",
             "slsba-fail"]


def _flipped(route):
    def flipped(*args):
        rep = route(*args)
        return CheckReport(rep.check, not rep.verdict, rep.violations, rep.notes)
    return flipped


class TestCrossRouteAgreement:
    """plsca_check, plsba_check and slsba_check compare their verdict with an
    independent route: a note when the two agree, InternalMismatch when not."""

    @pytest.mark.parametrize("call, route, note", CROSS_ROUTES, ids=CROSS_IDS)
    def test_agreement_note(self, call, route, note):
        assert call().notes == (note,)

    @pytest.mark.parametrize("call, route, note", CROSS_ROUTES, ids=CROSS_IDS)
    def test_flipped_route_raises(self, monkeypatch, call, route, note):
        monkeypatch.setattr(bialgebra, route, _flipped(getattr(bialgebra, route)))
        with pytest.raises(InternalMismatch, match="disagree"):
            call()

    def test_flipped_route_raises_under_optimize(self):
        # explicit raises, so they do not vanish under python -O as asserts
        # would; one subprocess runs a passing and a failing call per verifier,
        # then decodes a packed row that overflows its slot (linalg._decode)
        code = "\n".join([
            "import sys",
            "from fractions import Fraction as Q",
            "from symplie import bialgebra",
            "from symplie.catalog import catalog_get",
            "from symplie.checks import CheckReport, op_add, st",
            "from symplie.linalg import InternalMismatch, Packed",
            "if sys.flags.optimize != 1:",
            "    sys.exit(3)",
            "def flipped(route):",
            "    def call(*args):",
            "        rep = route(*args)",
            "        return CheckReport(rep.check, not rep.verdict, rep.violations, rep.notes)",
            "    return call",
            "def pair(name):",
            "    return catalog_get(name).payload",
            "def dual(prec, succ):",
            "    n = prec.n",
            "    return tuple(tuple(tuple(prec.c[p][q][k] for q in range(n)) for p in range(n))",
            "                 for k in range(n)), tuple(tuple(tuple(succ.c[p][q][k]",
            "                 for q in range(n)) for p in range(n)) for k in range(n))",
            "def cp(prec, succ):",
            "    return bialgebra.CoproductPair(prec.n, *dual(prec, succ))",
            "bad = cp(st(2, {(0, 1, 0): Q(1)}), st(2))",
            "lsa = op_add(*pair('plsa-2d-IV'))",
            "calls = [",
            "    ('check_plsa', lambda: bialgebra.plsca_check(bialgebra.zero_coproducts(2))),",
            "    ('check_plsa', lambda: bialgebra.plsca_check(bad)),",
            "    ('check_matched_pair', lambda: bialgebra.plsba_check(",
            "        pair('plsa-2d-II'), bialgebra.zero_coproducts(2))),",
            "    ('check_matched_pair', lambda: bialgebra.plsba_check(",
            "        pair('plsa-2d-II'), cp(*pair('plsa-2d-III')))),",
            "    ('check_matched_pair', lambda: bialgebra.slsba_check(",
            "        lsa, dual(op_add(*pair('plsa-2d-I')), st(2))[0])),",
            "    ('check_matched_pair', lambda: bialgebra.slsba_check(",
            "        lsa, dual(op_add(*pair('plsa-2d-II')), st(2))[0])),",
            "]",
            "for route, call in calls:",
            "    original = getattr(bialgebra, route)",
            "    setattr(bialgebra, route, flipped(original))",
            "    try:",
            "        call()",
            "    except InternalMismatch as e:",
            "        print(e)",
            "    else:",
            "        sys.exit(4)",
            "    setattr(bialgebra, route, original)",
            "try:",
            "    Packed([[1 << 70]], 1, 1, 64, 1).decoded",
            "except InternalMismatch as e:",
            "    print(e)",
            "else:",
            "    sys.exit(5)",
        ])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 7 and all("disagree" in line for line in lines[:6]), lines
        assert lines[6] == "a packed row overflows 1 slots of 64 bits"
