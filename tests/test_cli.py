import dataclasses
import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from symplie.checks import Endo, Form, RepTensor, op_add, st
from symplie import checks, cli
from symplie.bialgebra import drinfeld_double, zero_coproducts
from symplie.catalog import catalog_get, catalog_list
from symplie.cli import (
    MAX_DIM,
    SECTIONS,
    AlgebraFile,
    DuplicateAssignment,
    IndexOutOfRange,
    ParseError,
    emit_algebra_file,
    main,
    parse_algebra_file,
)
from symplie.constructions import FamilyParams, hypersymplectic_from_tangent

from oracles import emit_plain, parse_plain

Q = Fraction


def parse(text):
    return parse_algebra_file(text)


class TestParse:
    def test_minimal(self):
        af = parse("algebra a\ndim 2\n")
        assert af.name == "a"
        assert af.dim == 2
        assert af.ops == {} and af.forms == {} and af.maps == {}
        assert af.warnings == ()

    def test_op_entries_and_term_sums(self):
        af = parse("algebra a\ndim 2\n"
                   "op prod 1 2 = 1*e1 + -1/2*e2\n"
                   "op prod 2 2 = 1*e1 + 1*e1\n")
        t = af.ops["prod"]
        assert t.c[0][1] == (Q(1), Q(-1, 2))
        assert t.c[1][1] == (Q(2), Q(0))
        assert t.c[0][0] == (Q(0), Q(0))

    def test_form_map_tensor2_rep(self):
        af = parse("algebra a\ndim 2\n"
                   "form omega 1 2 = 3/4\n"
                   "map J 1 = 1*e2\n"
                   "map J 2 = -1*e1\n"
                   "tensor2 r 2 1 = -2\n"
                   "rep rho 1 2 2 = 5\n")
        assert af.forms["omega"].m[0][1] == Q(3, 4)
        assert af.forms["omega"].m[1][0] == 0
        # map line gives the image of e_i, stored as column i
        assert af.maps["J"].m[1][0] == 1
        assert af.maps["J"].m[0][1] == -1
        assert af.tensor2s["r"][1][0] == -2
        assert af.reps["rho"].t[0][1][1] == 5

    def test_comments_and_blanks(self):
        af = parse("# header\n\nalgebra a  # trailing\ndim 1\n"
                   "op prod 1 1 = 2*e1  # note\n")
        assert af.ops["prod"].c[0][0] == (Q(2),)

    def test_one_sided_form_warns(self):
        af = parse("algebra a\ndim 2\nform w 1 2 = 1\n")
        assert len(af.warnings) == 1
        assert "(1, 2)" in af.warnings[0]
        assert "never automatic" in af.warnings[0]

    def test_skew_pair_no_warning(self):
        af = parse("algebra a\ndim 2\nform w 1 2 = 1\nform w 2 1 = -1\n")
        assert af.warnings == ()

    def test_missing_algebra(self):
        with pytest.raises(ParseError, match="algebra NAME"):
            parse("dim 2\n")

    def test_missing_dim(self):
        with pytest.raises(ParseError, match="dim N"):
            parse("algebra a\n")

    def test_dim_cap(self):
        assert parse("algebra a\ndim %d\n" % MAX_DIM).dim == MAX_DIM
        with pytest.raises(ParseError, match="exceeds the limit of %d" % MAX_DIM):
            parse("algebra a\ndim %d\n" % (MAX_DIM + 1))

    def test_entry_before_dim(self):
        with pytest.raises(ParseError, match="line 2") as exc:
            parse("algebra a\nop prod 1 1 = 1*e1\ndim 2\n")
        assert exc.value.line == 2

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="unknown keyword"):
            parse("algebra a\ndim 2\nfrob x 1 1 = 1\n")

    def test_bad_term(self):
        with pytest.raises(ParseError, match="bad term"):
            parse("algebra a\ndim 2\nop prod 1 1 = e1\n")

    def test_bad_rational(self):
        with pytest.raises(ParseError, match="bad rational"):
            parse("algebra a\ndim 2\nform w 1 1 = x\n")

    @pytest.mark.parametrize("line", ["form w 1 1 = 1e3", "tensor2 r 1 2 = 1E3",
                                      "rep rho 1 1 2 = 2.5e-1"])
    def test_exponent_is_a_bad_rational(self, line):
        # Fraction expands 10**exp, so an exponent entry could build a huge
        # int before any check runs; a small exponent shows the refusal
        with pytest.raises(ParseError, match="line 3: bad rational"):
            parse("algebra a\ndim 2\n%s\n" % line)

    def test_decimal_form_value_is_exact(self):
        # Fraction accepts decimal strings without any float detour
        af = parse("algebra a\ndim 2\nform w 1 1 = 1.5\n")
        assert af.forms["w"].m[0][0] == Q(3, 2)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="bad"):
            parse("algebra a\ndim 2\nform w 1 1 = 1/0\n")

    def test_bad_label(self):
        with pytest.raises(ParseError, match="bad label"):
            parse("algebra a\ndim 2\nop 1prod 1 1 = 1*e1\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="missing '='"):
            parse("algebra a\ndim 2\nop prod 1 1\n")

    def test_wrong_index_count(self):
        with pytest.raises(ParseError, match="two indices"):
            parse("algebra a\ndim 2\nop prod 1 = 1*e1\n")
        with pytest.raises(ParseError, match="three indices"):
            parse("algebra a\ndim 2\nrep rho 1 1 = 1\n")
        for line, msg in (("map J 1 2 = 1*e1", "line 3: map needs one index"),
                          ("form w 1 = 1", "line 3: form needs two indices"),
                          ("tensor2 r 1 = 1", "line 3: tensor2 needs two indices")):
            with pytest.raises(ParseError) as exc:
                parse("algebra a\ndim 2\n%s\n" % line)
            assert str(exc.value) == msg

    def test_bad_dimension(self):
        with pytest.raises(ParseError, match="bad dimension"):
            parse("algebra a\ndim x\n")
        with pytest.raises(ParseError, match="positive"):
            parse("algebra a\ndim 0\n")

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange, match="line 3"):
            parse("algebra a\ndim 2\nop prod 3 1 = 1*e1\n")
        with pytest.raises(IndexOutOfRange, match="e5"):
            parse("algebra a\ndim 2\nop prod 1 1 = 1*e5\n")
        assert issubclass(IndexOutOfRange, ParseError)

    def test_duplicates(self):
        with pytest.raises(DuplicateAssignment):
            parse("algebra a\ndim 2\nform w 1 1 = 1\nform w 1 1 = 2\n")
        with pytest.raises(DuplicateAssignment, match="already named"):
            parse("algebra a\nalgebra b\ndim 2\n")
        with pytest.raises(DuplicateAssignment, match="already declared"):
            parse("algebra a\ndim 2\ndim 3\n")
        for line, key in (("op prod 1 2 = 1*e1", "('op', 'prod', 0, 1)"),
                          ("map J 2 = 1*e1", "('map', 'J', 1)"),
                          ("tensor2 r 2 1 = 1", "('tensor2', 'r', 1, 0)"),
                          ("rep rho 1 2 2 = 1", "('rep', 'rho', 0, 1, 1)")):
            with pytest.raises(DuplicateAssignment) as exc:
                parse("algebra a\ndim 2\n%s\n%s\n" % (line, line))
            assert str(exc.value) == "line 4: duplicate assignment %s" % key

    def test_duplicate_is_parse_error_with_line(self):
        with pytest.raises(DuplicateAssignment) as exc:
            parse("algebra a\ndim 2\nform w 1 1 = 1\nform w 1 1 = 2\n")
        assert exc.value.line == 4


class TestEmit:
    def test_canonical_order_and_trailing_newline(self):
        af = AlgebraFile(
            "x", 2,
            ops={"b": st(2, {(0, 0, 1): Q(1)}), "a": st(2, {(1, 1, 0): Q(2)})},
            forms={"w": Form(2, ((Q(0), Q(1)), (Q(-1), Q(0))))},
            maps={"J": Endo(2, ((Q(0), Q(-1)), (Q(1), Q(0))))},
            tensor2s={"r": ((Q(0), Q(1, 2)), (Q(0), Q(0)))},
            reps={"rho": RepTensor(2, 2, (((Q(0), Q(0)), (Q(0), Q(0))),
                                          (((Q(1), Q(0))), (Q(0), Q(0)))))})
        text = emit_algebra_file(af)
        lines = text.splitlines()
        assert lines[0] == "algebra x"
        assert lines[1] == "dim 2"
        assert lines[2] == "op a 2 2 = 2*e1"       # labels sorted
        assert lines[3] == "op b 1 1 = 1*e2"
        assert lines[4] == "form w 1 2 = 1"
        assert lines[5] == "form w 2 1 = -1"
        assert lines[6] == "map J 1 = 1*e2"        # column = image of e_1
        assert lines[7] == "map J 2 = -1*e1"
        assert lines[8] == "tensor2 r 1 2 = 1/2"
        assert lines[9] == "rep rho 2 1 1 = 1"
        assert text.endswith("\n")

    def test_zero_objects_vanish(self):
        af = AlgebraFile("x", 2, ops={"prod": st(2)},
                         forms={"w": Form(2, ((Q(0),) * 2,) * 2)})
        text = emit_algebra_file(af)
        assert text == "algebra x\ndim 2\n"

    def test_readme_section_table(self):
        # the README's file-format table lists the code's section table
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path, encoding="utf-8") as fh:
            rows = re.findall(r"^\| `(\w+)` +\| ([ijk ]+?) +\| (.+?) +\| `(\w+)`:",
                              fh.read(), re.M)
        assert rows == [(s.keyword, "i j k"[:2 * s.nidx - 1],
                         "`q*eK` terms" if s.terms else "one rational", s.field)
                        for s in SECTIONS.values()]

    @staticmethod
    def _readme_table(heading):
        """The body rows of the README table that follows the line starting
        with heading, as lists of cells."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(heading))
        rows = []
        for line in lines[at + 2:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        return rows[2:]

    def test_readme_check_table(self):
        # each check's row names the slots CHECKS declares, in order; a
        # keyword carries over to the labels after it
        def named(cell):
            out, keyword = [], None
            for kw, label, opt in re.findall(
                    r"(?:(op|form|map|rep)s? )?`(\w+)`( \(optional\))?", cell):
                keyword = kw or keyword
                out.append((keyword, label, bool(opt)))
            return out

        def declared(check):
            return [(slot.keyword, slot.label, slot.optional) for item in check.reads
                    for slot in (item.slots if isinstance(item, cli.Part) else (item,))]
        rows = self._readme_table("Checks and the labels they read")
        assert [name for name, _ in rows] == list(cli.CHECKS)
        for name, reads in rows:
            assert named(reads) == declared(cli.CHECKS[name]), name

    def test_readme_recipe_table(self):
        names = set()
        for row in self._readme_table("Recipes:"):
            head, *tails = row[0].split("/")  # hypersymplectic-f1/f2/f3
            names |= {head} | {head.rsplit("-", 1)[0] + "-" + t for t in tails}
        assert names == set(cli.RECIPES)

    def test_roundtrip_handmade(self):
        af = AlgebraFile("y", 3, ops={"prec": st(3, {(0, 1, 2): Q(-5, 3)})})
        af2 = parse(emit_algebra_file(af))
        assert af2.name == "y" and af2.dim == 3
        assert af2.ops == af.ops


_labels = hs.sampled_from(("a", "b2", "x_y", "J", "w-1", "rho"))
_rats = hs.fractions(min_value=-3, max_value=3, max_denominator=4)
_nonzero = _rats.filter(lambda q: q != 0)


@hs.composite
def algebra_files(draw):
    dim = draw(hs.integers(min_value=1, max_value=3))
    idx = hs.integers(min_value=0, max_value=dim - 1)

    def entmap(keydims):
        key = hs.tuples(*([idx] * keydims))
        return hs.dictionaries(key, _nonzero, min_size=1, max_size=4)

    ops = {}
    for label in draw(hs.lists(_labels, unique=True, max_size=2)):
        entries = draw(entmap(3))
        ops[label] = st(dim, entries)
    forms = {}
    for label in draw(hs.lists(_labels, unique=True, max_size=2)):
        m = [[Q(0)] * dim for _ in range(dim)]
        for (i, j), q in draw(entmap(2)).items():
            m[i][j] = q
        forms[label] = Form(dim, tuple(tuple(row) for row in m))
    maps = {}
    for label in draw(hs.lists(_labels, unique=True, max_size=1)):
        m = [[Q(0)] * dim for _ in range(dim)]
        for (i, j), q in draw(entmap(2)).items():
            m[i][j] = q
        maps[label] = Endo(dim, tuple(tuple(row) for row in m))
    tensor2s = {}
    for label in draw(hs.lists(_labels, unique=True, max_size=1)):
        m = [[Q(0)] * dim for _ in range(dim)]
        for (i, j), q in draw(entmap(2)).items():
            m[i][j] = q
        tensor2s[label] = tuple(tuple(row) for row in m)
    reps = {}
    for label in draw(hs.lists(_labels, unique=True, max_size=1)):
        t = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), q in draw(entmap(3)).items():
            t[i][j][k] = q
        reps[label] = RepTensor(dim, dim,
                                tuple(tuple(tuple(row) for row in mat)
                                      for mat in t))
    return AlgebraFile("gen", dim, ops, forms, maps, tensor2s, reps)


class TestRoundTrip:
    @given(algebra_files())
    def test_emit_parse_emit_idempotent(self, af):
        text1 = emit_algebra_file(af)
        af2 = parse(text1)
        text2 = emit_algebra_file(af2)
        assert text2 == text1
        af3 = parse(text2)
        assert af3 == af2

    @given(algebra_files())
    def test_parse_recovers_objects(self, af):
        af2 = parse(emit_algebra_file(af))
        assert af2.dim == af.dim
        assert af2.ops == af.ops
        assert af2.forms == af.forms
        assert af2.maps == af.maps
        assert af2.tensor2s == af.tensor2s
        assert af2.reps == af.reps


_qs = hs.fractions(min_value=-3, max_value=3, max_denominator=6)


@hs.composite
def alg_texts(draw):
    """Valid .alg texts of dims 1-6, lines in any order: any section may be
    left out, a vector line may repeat a basis term or cancel one, a
    rational may be 0, and entries come over different denominators."""
    n = draw(hs.integers(min_value=1, max_value=6))
    idx = hs.integers(min_value=1, max_value=n)
    lines = []
    for sec in SECTIONS.values():
        for label in draw(hs.lists(_labels, unique=True, max_size=2)):
            for at in draw(hs.lists(hs.tuples(*[idx] * sec.nidx), unique=True, max_size=6)):
                if sec.terms:
                    terms = draw(hs.lists(hs.tuples(_qs, idx), min_size=1, max_size=4))
                    if draw(hs.booleans()):  # a term and its negation
                        terms.append((-terms[0][0], terms[0][1]))
                    rhs = " + ".join("%s*e%d" % term for term in terms)
                else:
                    rhs = str(draw(_qs))
                lines.append("%s %s %s = %s" % (sec.keyword, label, " ".join(map(str, at)), rhs))
    lines = draw(hs.permutations(lines))
    return "algebra gen\ndim %d\n# a comment\n\n%s\n" % (n, "\n".join(lines))


class TestParseOracle:
    """parse_algebra_file reads the section table into nonzero lists;
    parse_plain reads each line into dense Fractions."""

    @given(alg_texts())
    def test_parse_and_emit(self, text):
        af, plain = parse_algebra_file(text), parse_plain(text)
        for f in dataclasses.fields(AlgebraFile):
            assert getattr(af, f.name) == getattr(plain, f.name), f.name
        assert emit_algebra_file(af) == emit_plain(plain)


def run(argv):
    return main(argv)


@pytest.fixture
def ssla3(tmp_path):
    path = tmp_path / "ssla-2d-3.alg"
    assert run(["catalog", "show", "ssla-2d-3", "--export",
                "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def plsa2(tmp_path):
    path = tmp_path / "plsa-2d-II.alg"
    assert run(["catalog", "show", "plsa-2d-II", "--export",
                "--out", str(path)]) == 0
    return str(path)


def test_double_path_builds_no_dense_view(tmp_path, refuse_dense_views):
    # the CLI's doubles are parsed into nonzero lists, handed to the library
    # packed from them and written from the Packed coproducts; an omitted
    # slot reads as an empty list
    def path(stem):
        return str(tmp_path / (stem + ".alg"))
    refuse_dense_views()
    assert run(["catalog", "show", "plsa-2d-IV", "--export", "--out", path("d2")]) == 0
    for n in (4, 8):
        assert run(["construct", "drinfeld-double", path("d%d" % (n // 2)),
                    "--out", path("d%d" % n)]) == 0
        assert run(["verify", path("d%d" % n), "--check", "plsa", "--check", "plsba"]) == 0
    lsa = AlgebraFile("sum", 2, ops={"prod": op_add(*catalog_get("plsa-2d-IV").payload)})
    with open(path("sum"), "w", encoding="utf-8") as fh:
        fh.write(emit_algebra_file(lsa))
    assert run(["construct", "slsba-double", path("sum"), "--out", path("sum-d4")]) == 0
    assert run(["verify", path("sum-d4"), "--check", "slsba", "--check", "lsa"]) == 0
    with open(path("empty"), "w", encoding="utf-8") as fh:
        fh.write("algebra empty\ndim %d\n" % MAX_DIM)
    assert run(["verify", path("empty"), "--check", "plsa", "--check", "plsba"]) == 0


def test_double_coproducts_listed_once():
    # drinfeld_double re-verifies the double's coproduct pair through
    # CoproductPair.dual, which lists each Packed coproduct's rows once
    # (Packed.nonzeros); the RepTensor the CLI writes shares that list
    _, _, cp_d, _ = drinfeld_double(catalog_get("plsa-2d-IV").payload, zero_coproducts(2))
    kept = [vars(t)["nonzeros"] for t in cp_d.scaled]
    assert any(row for _, nz in kept for plane in nz for row in plane)
    assert all(cli._rep(t).nonzeros is nz for t, nz in zip(cp_d.scaled, kept))


class TestVerifyCommand:
    def test_pass_exit_zero(self, ssla3, capsys):
        assert run(["verify", ssla3, "--check", "special-symplectic"]) == 0
        out = capsys.readouterr().out
        assert "special-symplectic: PASS" in out

    def test_fail_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra bad\ndim 2\n"
                       "op bracket 1 2 = 1*e1\n"   # not antisymmetric
                       "op bracket 2 1 = 1*e1\n")
        assert run(["verify", str(bad), "--check", "lie"]) == 1
        out = capsys.readouterr().out
        assert "jacobi: FAIL" in out
        assert "antisymmetry" in out

    def test_multiple_checks(self, ssla3, capsys):
        code = run(["verify", ssla3, "--check", "lie",
                    "--check", "special-symplectic"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_unknown_check_exit_two(self, ssla3, capsys):
        assert run(["verify", ssla3, "--check", "bogus"]) == 2
        assert "unknown check" in capsys.readouterr().err

    def test_unknown_check_refused_before_any_check_runs(self, ssla3, monkeypatch, capsys):
        calls = []
        reads = cli.CHECKS["special-symplectic"].reads
        monkeypatch.setitem(cli.CHECKS, "special-symplectic",
                            cli.Check(lambda *objs: calls.append(objs), reads))
        assert run(["verify", ssla3, "--check", "special-symplectic",
                    "--check", "typo"]) == 2
        assert "unknown check 'typo'" in capsys.readouterr().err
        assert calls == []

    def test_missing_file_exit_two(self, capsys):
        assert run(["verify", "/nonexistent/x.alg", "--check", "lie"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exit_two(self, tmp_path, capsys):
        p = tmp_path / "broken.alg"
        p.write_text("algebra a\nop prod 1 1 = 1*e1\n")
        assert run(["verify", str(p), "--check", "lsa"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.alg"
        p.write_bytes(b"\xff\xfealgebra a\ndim 2\n")
        assert run(["verify", str(p), "--check", "lie"]) == 2
        err = capsys.readouterr().err
        assert err == "error: %s is not UTF-8 text (byte 0)\n" % p

    def test_huge_dim_exit_two(self, tmp_path, capsys):
        # a dense zero default at this size would exhaust memory
        p = tmp_path / "big.alg"
        p.write_text("algebra big\ndim 100000\n")
        assert run(["verify", str(p), "--check", "plsa"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 2: dimension 100000 exceeds the limit of 64" in err

    def test_json_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra bad\ndim 2\nop prod 1 2 = 1*e1\n")
        code = run(["verify", str(bad), "--check", "lsa", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        rep = payload[0]
        assert set(rep) == {"check", "verdict", "violations", "notes"}
        assert rep["check"] == "left-symmetric"
        assert rep["verdict"] is False
        v = rep["violations"][0]
        assert set(v) == {"where", "indices", "residual"}
        assert all(i >= 1 for i in v["indices"])

    def test_warning_on_stderr(self, tmp_path, capsys):
        p = tmp_path / "w.alg"
        p.write_text("algebra a\ndim 2\nform omega 1 2 = 1\n")
        run(["verify", str(p), "--check", "lie"])
        assert "warning:" in capsys.readouterr().err


class TestConstructCommand:
    def test_plsa_extract_roundtrip(self, ssla3, tmp_path, capsys):
        out = tmp_path / "pair.alg"
        assert run(["construct", "plsa-extract", ssla3, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "plsa: PASS" in stdout
        assert "wrote %s" % out in stdout
        assert run(["verify", str(out), "--check", "plsa"]) == 0
        text = out.read_text()
        assert "algebra ssla-2d-3-plsa-extract" in text

    def test_default_output_path_and_name(self, ssla3, capsys):
        assert run(["construct", "sub-adjacent", ssla3]) == 0
        # the lie check wants the label "bracket"; sub-adjacent wants "prod",
        # so feed it a file that has one
        out = capsys.readouterr().out
        expected = os.path.join(os.path.dirname(ssla3),
                                "ssla-2d-3-sub-adjacent.alg")
        assert "wrote %s" % expected in out
        assert os.path.exists(expected)

    def test_custom_name(self, ssla3, tmp_path):
        out = tmp_path / "named.alg"
        run(["construct", "plsa-extract", ssla3, "--out", str(out),
             "--name", "mypair"])
        assert parse(out.read_text()).name == "mypair"

    def test_hypersymplectic_family(self, ssla3, tmp_path, capsys):
        out = tmp_path / "hs.alg"
        code = run(["construct", "hypersymplectic-f1", ssla3,
                    "--lambda", "2", "--mu=-1/2", "--out", str(out)])
        assert code == 0
        assert run(["verify", str(out), "--check", "hypersymplectic"]) == 0

    def test_irrational_radical_exit_two(self, ssla3, capsys):
        code = run(["construct", "hypersymplectic-f3", ssla3,
                    "--lambda", "2", "--mu", "0", "--k", "1"])
        assert code == 2
        assert "square" in capsys.readouterr().err

    def test_missing_param_exit_two(self, ssla3, capsys):
        assert run(["construct", "hypersymplectic-f1", ssla3]) == 2
        assert "--lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["abc", "1/0"])
    def test_bad_k_exit_two(self, ssla3, capsys, k):
        assert run(["construct", "hypersymplectic-f3", ssla3, "--lambda", "1", "--k", k]) == 2
        err = capsys.readouterr().err
        assert "--k" in err and "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("opt,args", [
        ("--lambda", ["--lambda=1e3", "--mu=0"]), ("--mu", ["--lambda=1", "--mu=1e-3"])])
    def test_exponent_param_exit_two(self, ssla3, tmp_path, capsys, opt, args):
        out = tmp_path / "hs.alg"
        assert run(["construct", "hypersymplectic-f1", ssla3, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad rational for %s" % opt in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_degenerate_form_exit_two(self, tmp_path, capsys):
        # an abelian bracket and a skew form of rank 2 on a 3-dim space
        src, out = tmp_path / "w.alg", tmp_path / "lsa.alg"
        src.write_text("algebra w\ndim 3\nform omega 1 2 = 1\nform omega 2 1 = -1\n")
        assert run(["construct", "lsa-from-symplectic", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: form has rank 2 < 3\n"
        assert not out.exists()

    def test_unknown_recipe_exit_two(self, ssla3, capsys):
        assert run(["construct", "frobnicate", ssla3]) == 2
        assert "unknown recipe" in capsys.readouterr().err

    def test_failed_postcondition_writes_nothing(self, plsa2, tmp_path, capsys):
        # this r induces coproducts that fail validity, so the recipe must
        # report the failure and refuse to write
        out = tmp_path / "cb.alg"
        code = run(["construct", "coboundary", plsa2,
                    "--r", "1,1,-2;1,2,1/3;2,2,-1/2", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert "nothing written" in captured.err
        assert "plsca: FAIL" in captured.out

    def test_repeated_r_entry_exit_two(self, plsa2, tmp_path, capsys):
        out = tmp_path / "cb.alg"
        assert run(["construct", "coboundary", plsa2, "--r", "1,2,1;1,2,5",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "(1, 2) given twice" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_exponent_r_entry_exit_two(self, plsa2, tmp_path, capsys):
        out = tmp_path / "cb.alg"
        assert run(["construct", "coboundary", plsa2, "--r", "1,2,1e3",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad --r chunk '1,2,1e3'" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_coboundary_success(self, plsa2, tmp_path):
        out = tmp_path / "cb.alg"
        code = run(["construct", "coboundary", plsa2,
                    "--r", "1,2,1/2", "--out", str(out)])
        if code == 0:
            assert out.exists()
            assert run(["verify", str(out), "--check", "plsba"]) == 0
        else:
            # r failing validity must leave nothing behind
            assert not out.exists()

    def test_drinfeld_double(self, plsa2, tmp_path):
        out = tmp_path / "dd.alg"
        assert run(["construct", "drinfeld-double", plsa2,
                    "--out", str(out)]) == 0
        assert run(["verify", str(out), "--check", "plsa",
                    "--check", "plsba"]) == 0
        assert parse(out.read_text()).dim == 4

    def test_each_input_parsed_once(self, plsa2, tmp_path, monkeypatch):
        # drinfeld-double reads two parts of its one file
        parsed, real = [], cli.parse_algebra_file
        monkeypatch.setattr(cli, "parse_algebra_file",
                            lambda text: parsed.append(text) or real(text))
        assert run(["construct", "drinfeld-double", plsa2,
                    "--out", str(tmp_path / "dd.alg")]) == 0
        assert len(parsed) == 1

    def test_double_extension_two_inputs(self, plsa2, tmp_path):
        zero = tmp_path / "zero.alg"
        zero.write_text("algebra zero2\ndim 2\n")
        out = tmp_path / "dext.alg"
        assert run(["construct", "double-extension", plsa2, str(zero),
                    "--out", str(out)]) == 0
        assert run(["verify", str(out), "--check", "special-symplectic"]) == 0
        assert parse(out.read_text()).dim == 4

    def test_double_extension_builds_one_commutator(self, plsa2, tmp_path, monkeypatch,
                                                    list_builds):
        # the special-symplectic check and the written bracket read one
        # commutator of the glued product: the one 4-dim tensor built from a
        # summed list (the sum products of the two sides are 2-dim)
        sums, real = [], checks._nonzeros_sum
        monkeypatch.setattr(checks, "_nonzeros_sum",
                            lambda x, y: sums.append(real(x, y)) or sums[-1])
        zero = tmp_path / "zero.alg"
        zero.write_text("algebra zero2\ndim 2\n")
        assert run(["construct", "double-extension", plsa2, str(zero),
                    "--out", str(tmp_path / "dext.alg")]) == 0
        built = [t.n for t in list_builds if any(t.nonzeros is s for s in sums)]
        assert built.count(4) == 1 and set(built) == {2, 4}

    def test_double_extension_wrong_arity(self, plsa2, capsys):
        assert run(["construct", "double-extension", plsa2]) == 2
        assert "two input files" in capsys.readouterr().err

    @pytest.mark.parametrize("recipe,count", [
        *((name, 2) for name in sorted(set(cli.RECIPES) - {"double-extension"})),
        ("double-extension", 1), ("double-extension", 3)])
    def test_wrong_input_count_exit_two(self, recipe, count, ssla3, tmp_path, capsys):
        # refused before any input is read: one line, and nothing written;
        # --lambda and --r would let every recipe run if the count passed
        out = tmp_path / "x.alg"
        argv = ["construct", recipe] + [ssla3] * count + ["--out", str(out)]
        assert run(argv + ["--lambda", "1", "--r", ""]) == 2
        need = "two input files" if recipe == "double-extension" else "one input file"
        assert capsys.readouterr().err == "error: %s needs %s\n" % (recipe, need)
        assert not out.exists()

    def test_output_above_max_dim_refused(self, ssla3, tmp_path, monkeypatch, capsys):
        # the 2 -> 4 tangent double against a lowered file limit: refused
        # before any report is printed or any file is written
        out = tmp_path / "td.alg"
        monkeypatch.setattr(cli, "MAX_DIM", 3)
        assert run(["construct", "tangent-double", ssla3, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: output dimension 4 exceeds the limit of 3; nothing written\n"
        assert captured.out == ""
        assert not out.exists()
        monkeypatch.setattr(cli, "MAX_DIM", 4)
        assert run(["construct", "tangent-double", ssla3, "--out", str(out)]) == 0
        assert parse(out.read_text()).dim == 4

    @pytest.mark.parametrize("recipe", sorted(name for name, recipe in cli.RECIPES.items()
                                              if recipe.scale == 2))
    def test_output_above_max_dim_refused_before_building(self, recipe, tmp_path,
                                                          monkeypatch, capsys):
        # a 40-dim input doubles to 80 > MAX_DIM: refused from the input
        # dimension, so the builder, which would fail if called, never runs
        def refused(*_):
            raise AssertionError("%s built an output above MAX_DIM" % recipe)
        monkeypatch.setitem(cli.RECIPES, recipe, cli.RECIPES[recipe]._replace(build=refused))
        big = tmp_path / "big.alg"
        big.write_text("algebra big\ndim 40\n")
        out = tmp_path / "x.alg"
        inputs = [str(big)] * len(cli.RECIPES[recipe].reads)
        assert run(["construct", recipe, *inputs, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: output dimension 80 exceeds the limit of %d; "
                                "nothing written\n" % MAX_DIM)
        assert captured.out == ""
        assert not out.exists()

    def test_unmatched_double_extension_exit_two(self, tmp_path, capsys):
        a = tmp_path / "a.alg"
        b = tmp_path / "b.alg"
        run(["catalog", "show", "plsa-2d-II", "--export", "--out", str(a)])
        run(["catalog", "show", "plsa-2d-III", "--export", "--out", str(b)])
        assert run(["construct", "double-extension", str(a), str(b)]) == 2
        assert "error:" in capsys.readouterr().err


class TestOneLineErrors:
    """Bad parameters and bad file lines: exit 2, one line on stderr, and
    nothing written."""

    @pytest.mark.parametrize("r,message", [
        (None, "missing --r (format: i,j,q;i,j,q;...)"),
        ("1,2", "bad --r chunk '1,2'"),
        ("1,9,1", "--r index (1, 9) out of range 1..2"),
    ])
    def test_bad_r(self, plsa2, tmp_path, capsys, r, message):
        out = tmp_path / "cb.alg"
        argv = ["construct", "coboundary", plsa2, "--out", str(out)]
        assert run(argv + (["--r", r] if r is not None else [])) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("family,params,message", [
        ("f1", ["--lambda", "1", "--sign", "2"], "sign must be +1 or -1, got 2"),
        ("f1", ["--lambda", "0"], "lambda must be nonzero"),
        ("f3", ["--lambda", "1"], "family F3 needs the parameter k"),
    ])
    def test_bad_family_params(self, ssla3, tmp_path, capsys, family, params, message):
        out = tmp_path / "hs.alg"
        assert run(["construct", "hypersymplectic-" + family, ssla3, *params,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("op p x 1 = 1*e1", "bad index 'x'"),
        ("op = 1*e1", "missing label"),
    ])
    def test_bad_entry_line(self, tmp_path, capsys, line, message):
        p = tmp_path / "bad.alg"
        p.write_text("algebra a\ndim 2\n%s\n" % line)
        assert run(["verify", str(p), "--check", "lie"]) == 2
        assert capsys.readouterr().err == "error: line 3: %s\n" % message

    def test_oversized_output_entry(self, ssla3, tmp_path, capsys):
        # a valid --mu of 3000 digits squares past the digits Python turns
        # into text: one line, no report and no file, not a traceback
        out = tmp_path / "hs.alg"
        assert run(["construct", "hypersymplectic-f1", ssla3, "--lambda", "1",
                    "--mu", "9" * 3000, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: a rational has more than %d digits and cannot be printed\n"
            % sys.get_int_max_str_digits())
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("fmt", ([], ["--json"]))
    def test_oversized_residual(self, tmp_path, capsys, fmt):
        # entries of 2500 digits whose left-symmetry residual has about 5000
        big = "9" * 2500
        p = tmp_path / "big.alg"
        p.write_text("algebra a\ndim 2\nop prod 1 1 = %s*e2\nop prod 1 2 = %s*e1\n"
                     "op prod 2 1 = %s*e2\n" % (big, big, big))
        assert run(["verify", str(p), "--check", "lsa", *fmt]) == 2
        assert capsys.readouterr().err == (
            "error: a rational has more than %d digits and cannot be printed\n"
            % sys.get_int_max_str_digits())

    def test_oversized_basis_index(self, tmp_path, capsys):
        # more digits than int() converts: a bad index, not a traceback
        index = "9" * 5000
        p = tmp_path / "bad.alg"
        p.write_text("algebra a\ndim 2\nop p 1 1 = 1*e%s\n" % index)
        assert run(["verify", str(p), "--check", "lie"]) == 2
        assert capsys.readouterr().err == "error: line 3: bad basis index %r\n" % index

    def test_text_output_caps_violations(self, tmp_path, capsys):
        # every product 1*e1 + 2*e2 on a dim-8 bracket: 92 violations, of
        # which the text shows 50 and counts the rest
        p = tmp_path / "cap.alg"
        p.write_text("algebra cap\ndim 8\n" + "".join(
            "op bracket %d %d = 1*e1 + 2*e2\n" % (i, j)
            for i in range(1, 9) for j in range(1, 9)))
        assert run(["verify", str(p), "--check", "lie"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 52
        assert lines[0] == "jacobi: FAIL"
        assert lines[-1] == "  ... and 42 more violations"


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """(text, --check arguments) of the dim 2-4 files the fuzz mutates:
    every 2-dim catalog export, and the 4-dim tangent double and Drinfeld
    double built from two of them, each with checks that read its objects."""
    d = tmp_path_factory.mktemp("fuzz-bases")
    kinds = {"ssla": ["special-symplectic", "lie"], "plsa": ["plsa", "lsa"]}
    paths = {}
    for name, kind, _ in catalog_list():
        if kind in kinds:
            paths[name] = (d / ("%s.alg" % name), kinds[kind])
            assert main(["catalog", "show", name, "--export",
                         "--out", str(paths[name][0])]) == 0
    for recipe, name, names in (("tangent-double", "ssla-2d-3", ["lie", "post-affine"]),
                                ("drinfeld-double", "plsa-2d-II", ["plsa", "plsba"])):
        out = d / ("%s.alg" % recipe)
        assert main(["construct", recipe, str(paths[name][0]), "--out", str(out)]) == 0
        paths[recipe] = (out, names)
    return [(path.read_text(encoding="utf-8"), [a for c in names for a in ("--check", c)])
            for path, names in paths.values()]


# what the fuzz inserts into a line: digit strings of up to 3000 digits,
# exponent notation, non-ASCII digits (Arabic-Indic, Devanagari, fullwidth
# and a superscript, which is no decimal digit), NUL and line breaks
_INSERTS = hs.one_of(
    hs.builds(lambda d, k: d * k, hs.sampled_from("1379"), hs.integers(1, 3000)),
    hs.sampled_from(("1e5", "-2E-3", "1e999999999", "e", "\u0663", "\u0967\u0968", "\uff11",
                     "\u00b2", "\x00", "\r", "\r\n", "=", "*e", "/0")))
_UNDECODABLE = hs.sampled_from((b"\xff", b"\xc3\x28", b"\x80\x80", b"\xed\xa0\x80"))


@hs.composite
def mutated_files(draw, text):
    """The bytes of text after 1-4 mutations: a line or a token (split on
    one space) dropped, duplicated or swapped with another, or an _INSERTS
    string put into a line; then CRLF or LF line ends, and one time in
    eight an undecodable byte sequence at any offset."""
    lines = text.splitlines()
    for _ in range(draw(hs.integers(1, 4))):
        if not lines:
            lines = [""]
        i = draw(hs.integers(0, len(lines) - 1))
        how = draw(hs.sampled_from(("drop", "duplicate", "swap", "insert")))
        if draw(hs.booleans()) and how != "insert":  # on the tokens of line i
            items = lines[i].split(" ")
        else:
            items = lines
        k = draw(hs.integers(0, len(items) - 1))
        if how == "drop":
            del items[k]
        elif how == "duplicate":
            items.insert(k, items[k])
        elif how == "swap":
            j = draw(hs.integers(0, len(items) - 1))
            items[k], items[j] = items[j], items[k]
        else:
            at = draw(hs.integers(0, len(items[k])))
            items[k] = items[k][:at] + draw(_INSERTS) + items[k][at:]
        if items is not lines:
            lines[i] = " ".join(items)
    end = draw(hs.sampled_from(("\n", "\r\n")))
    data = "".join(line + end for line in lines).encode("utf-8")
    if draw(hs.integers(0, 7)) == 0:
        at = draw(hs.integers(0, len(data)))
        data = data[:at] + draw(_UNDECODABLE) + data[at:]
    return data


class TestVerifyFuzz:
    """verify on mutated catalog exports and doubles: bad input gets a
    one-line message, never a traceback.  No exception escapes main, the
    exit code is 0, 1 or 2, and exit 2 prints exactly one line on stderr,
    starting with "error:"."""

    @settings(max_examples=40)
    @given(data=hs.data())
    def test_mutated_files(self, fuzz_bases, tmp_path_factory, data):
        text, argv = data.draw(hs.sampled_from(fuzz_bases))
        path = tmp_path_factory.getbasetemp() / "fuzz.alg"
        path.write_bytes(data.draw(mutated_files(text)))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["verify", str(path), *argv])
        assert code in (0, 1, 2)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines


class TestUnknownCheckFirst:
    """verify refuses an unknown --check before it reads the input file, so
    the file's parse warnings or errors never precede the one error line."""

    @pytest.mark.parametrize("text", ("form w 1 2 = 1\n",
                                      "algebra w\ndim 2\nform w 1 2 = 1\n"))
    def test_one_line(self, tmp_path, capsys, text):
        p = tmp_path / "w.alg"
        p.write_text(text)
        assert run(["verify", str(p), "--check", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith("error: unknown check 'nope'; valid: ")


# what the argument fuzz passes as a number: digit strings of up to 5000
# digits (past the 4300 digits int() converts), fractions of them, exponent
# notation, zero and words
_DIGITS = hs.builds(lambda d, k: d * k, hs.sampled_from("1379"), hs.integers(1, 5000))
_NUMBERS = hs.one_of(
    _DIGITS, hs.builds("{}/{}".format, _DIGITS, _DIGITS),
    hs.sampled_from(("0", "1", "-1", "2", "1/2", "-3/4", "0.5", "1e9", "1E-3", "-1e9", "1/0",
                     "x", "")))
_INDICES = hs.one_of(hs.sampled_from(("0", "1", "2", "3", "-1", "", "x")), _DIGITS)
_R_CHUNKS = hs.one_of(hs.builds("{},{},{}".format, _INDICES, _INDICES, _NUMBERS),
                      hs.sampled_from(("1,2", "1,2,3,4", "", ",,")))

# argparse's own usage errors: it prints a usage line before the error line
_ARGPARSE_ERRORS = ("invalid int value",  # --sign not an int
                    "expected one argument",  # a value that starts like an option
                    "the following arguments are required")  # no input file


@hs.composite
def construct_argv(draw, inputs, out):
    """construct with a recipe (or an unknown one), 0-3 of the inputs (as
    many as the recipe reads, one time in two), and any of --r, --lambda,
    --mu, --k and --sign."""
    recipe = draw(hs.sampled_from(sorted(cli.RECIPES) + ["nope"]))
    count = len(cli.RECIPES[recipe].reads) if recipe in cli.RECIPES else 1
    argv = ["construct", recipe] + draw(hs.one_of(
        hs.lists(hs.sampled_from(inputs), min_size=count, max_size=count),
        hs.lists(hs.sampled_from(inputs), max_size=3)))
    argv += ["--out", out]
    if draw(hs.booleans()):
        argv += ["--r", ";".join(draw(hs.lists(_R_CHUNKS, max_size=4)))]
    for name in ("--lambda", "--mu", "--k"):
        if draw(hs.booleans()):
            argv += [name, draw(_NUMBERS)]
    if draw(hs.booleans()):
        argv += ["--sign", draw(hs.one_of(hs.sampled_from(("1", "-1", "2", "0", "x")), _DIGITS))]
    return argv


@hs.composite
def recipe_argv(draw, inputs, out):
    """construct with a known recipe, exactly as many of the 2-dim inputs as
    it reads (a slot missing from a file reads as zero, so a pair export
    serves drinfeld-double and an ssla export serves semidirect), and
    in-range --lambda, --mu, --k, --sign, --double and --r: k = lambda
    2t/(1 + t^2) makes 1 - k^2/lambda^2 a square, as F3 needs."""
    recipe = draw(hs.sampled_from(sorted(cli.RECIPES)))
    count = len(cli.RECIPES[recipe].reads)
    lam, t = draw(_nonzero), draw(_nonzero)
    r = draw(hs.lists(hs.tuples(hs.integers(1, 2), hs.integers(1, 2), _rats),
                      max_size=4, unique_by=lambda e: e[:2]))
    # --name=value, so that a value starting with "-" reads as a value
    return ["construct", recipe,
            *draw(hs.lists(hs.sampled_from(inputs), min_size=count, max_size=count)),
            "--out", out, "--lambda=%s" % lam, "--mu=%s" % draw(_rats),
            "--k=%s" % (lam * 2 * t / (1 + t * t)),
            draw(hs.sampled_from(("--sign=1", "--sign=-1"))),
            "--double", draw(hs.sampled_from(("tangent", "cotangent"))),
            "--r=" + ";".join("%d,%d,%s" % e for e in r)]


@hs.composite
def verify_argv(draw, inputs):
    names = hs.sampled_from(sorted(cli.CHECKS) + ["nope", ""])
    checks_ = draw(hs.lists(names, min_size=1, max_size=3))
    return ["verify", draw(hs.sampled_from(inputs))] + [a for c in checks_ for a in ("--check", c)]


class TestArgumentFuzz:
    """construct and verify with fuzzed arguments on the 2-dim catalog
    exports, and recipe builds with in-range ones: no exception escapes
    main, the exit code is 0, 1 or 2, and exit 2 prints exactly one stderr
    line, starting with "error:", but for argparse's own usage errors
    (_ARGPARSE_ERRORS), which exit 2 with a usage line first."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz-args")
        paths = []
        for name, kind, _ in catalog_list():
            if name.startswith(("ssla-2d", "plsa-2d")):
                paths.append(str(d / ("%s.alg" % name)))
                assert main(["catalog", "show", name, "--export", "--out", paths[-1]]) == 0
        return paths

    @settings(max_examples=40)
    @given(data=hs.data())
    def test_arguments(self, inputs, tmp_path_factory, data):
        out = str(tmp_path_factory.getbasetemp() / "fuzz-out.alg")
        argv = data.draw(hs.one_of(construct_argv(inputs, out), recipe_argv(inputs, out),
                                   verify_argv(inputs)))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse: usage line, then its error
                lines = err.getvalue().splitlines()
                assert e.code == 2 and lines[0].startswith("usage:"), lines
                assert any(m in lines[-1] for m in _ARGPARSE_ERRORS), lines
                return
        assert code in (0, 1, 2)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)


class TestCatalogCommand:
    def test_list(self, capsys):
        assert run(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 9
        assert any(l.startswith("ssla-2d-1") for l in lines)
        assert any(l.startswith("lsa-1d-idem") for l in lines)

    def test_show(self, capsys):
        assert run(["catalog", "show", "plsa-2d-II"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# plsa-2d-II (plsa):")
        assert "op prec 1 1 = 1*e2" in out

    def test_show_note(self, capsys):
        run(["catalog", "show", "ssla-2d-3"])
        assert "# note:" in capsys.readouterr().out

    def test_show_unknown_exit_two(self, capsys):
        assert run(["catalog", "show", "nope"]) == 2
        valid = ", ".join(sorted(name for name, _, _ in catalog_list()))
        assert capsys.readouterr().err == (
            "error: unknown catalog entry 'nope'; valid: %s\n" % valid)

    def test_show_missing_name_exit_two(self, capsys):
        assert run(["catalog", "show"]) == 2
        assert "needs an entry name" in capsys.readouterr().err

    def test_export_default_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["catalog", "show", "lsa-1d-idem", "--export"]) == 0
        assert (tmp_path / "lsa-1d-idem.alg").exists()
        assert run(["verify", "lsa-1d-idem.alg", "--check", "lsa"]) == 0

    def test_exported_catalog_files_reverify(self, tmp_path):
        checks = {"ssla": "special-symplectic", "plsa": "plsa", "lsa": "lsa"}
        for name, kind, _ in catalog_list():
            path = tmp_path / ("%s.alg" % name)
            assert run(["catalog", "show", name, "--export",
                        "--out", str(path)]) == 0
            assert run(["verify", str(path), "--check", checks[kind]]) == 0


def test_internal_mismatch_exit_three(ssla3, tmp_path, monkeypatch, capsys):
    # a cross-check that fails on valid input is a bug in the package, not in
    # the input: its own exit code and one line, no traceback, no output file
    from symplie import constructions
    from symplie.checks import Violation, report
    monkeypatch.setattr(constructions, "check_flat", lambda br, conn: report(
        "flat", [Violation("flat", (0, 0, 0), (Q(1), Q(0)))]))
    out = tmp_path / "lsa.alg"
    code = run(["construct", "lsa-from-symplectic", ssla3, "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "internal error (a bug in symplie): derived product is not flat\n"
    assert not out.exists()


class TestInvalidInputClaimsNoBug:
    """Input that breaks a hypothesis of a self-check (here a bracket that is
    not antisymmetric) fails with exit 1, never exit 3, and no line of the
    report claims a bug."""

    def _verify(self, path, check, capsys):
        code = run(["verify", str(path), "--check", check])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        assert "%s: FAIL" % check in out and "jacobi: antisymmetry" in out
        assert "bug" not in out and "ALERT" not in out

    def test_special_symplectic(self, tmp_path, capsys):
        p = tmp_path / "w.alg"
        p.write_text("algebra w\ndim 3\nop bracket 3 1 = -1*e1\n"
                     "form omega 1 2 = 1\nform omega 2 1 = -1\n")
        self._verify(p, "special-symplectic", capsys)

    def test_hypersymplectic(self, tmp_path, capsys):
        _, J, E, g = hypersymplectic_from_tangent(catalog_get("ssla-2d-3").payload,
                                                  FamilyParams("F1", Q(1), Q(0)))
        br = st(4, {(0, 0, 2): Q(-1), (0, 2, 0): Q(1)})
        p = tmp_path / "w.alg"
        p.write_text(emit_algebra_file(cli._afile("w", cli.HYPERSYMPLECTIC, (br, J, E, g))))
        self._verify(p, "hypersymplectic", capsys)


class TestPreconditionFailureReports:
    """verify reports a failed precondition of plsba and slsba as the failing
    sub-reports, without evaluating the identities."""

    def test_plsba_on_invalid_coproducts(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra bad\ndim 2\nop prec 1 1 = 1*e2\nrep alpha 1 1 2 = 1\n")
        assert run(["verify", str(bad), "--check", "plsba"]) == 1
        out = capsys.readouterr().out
        assert "plsba: FAIL" in out
        assert "  plsca: co-commutativity (1, 1, 2): 1\n" in out
        assert run(["verify", str(bad), "--check", "plsba", "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == [{
            "check": "plsba", "verdict": False,
            "violations": [
                {"where": "plsca: co-commutativity", "indices": [1, 1, 2], "residual": "1"},
                {"where": "plsca: co-compatibility", "indices": [1, 1, 2, 2],
                 "residual": "-1"},
                {"where": "plsca: co-commutativity", "indices": [1, 2, 1], "residual": "-1"}],
            "notes": ["plsa: sum-product left-symmetry agrees with succ left-symmetry (pass)",
                      "plsca: dual product-pair route agrees (fail)"]}]

    def test_slsba_on_non_lsa_product(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra bad\ndim 2\nop prod 1 1 = 1*e1\nop prod 2 1 = 1*e1\n")
        assert run(["verify", str(bad), "--check", "slsba"]) == 1
        out = capsys.readouterr().out
        assert "slsba: FAIL" in out
        assert "  left-symmetric: left-symmetric (1, 2, 1): ['-1', '0']\n" in out
        assert run(["verify", str(bad), "--check", "slsba", "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == [{
            "check": "slsba", "verdict": False,
            "violations": [{"where": "left-symmetric: left-symmetric",
                            "indices": [1, 2, 1], "residual": ["-1", "0"]}],
            "notes": []}]


def _help_text(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestOneParserPerProcess:
    """build_parser is built once per process; main looks the command up
    when it runs, so each call parses from scratch and a rebound command
    function is the one called (bench/tracer.py rebinds cmd_verify and
    cmd_construct after the first call)."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_successive_calls_parse_as_in_a_fresh_process(self, monkeypatch):
        seen = []
        for name in ("cmd_verify", "cmd_construct"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
        argvs = [
            ["construct", "hypersymplectic-f1", "a.alg", "--lambda", "2",
             "--sign", "-1", "--double", "cotangent"],
            ["verify", "a.alg", "--check", "lie", "--check", "lsa"],
            ["verify", "b.alg", "--check", "plsa", "--json"],
            ["construct", "hypersymplectic-f2", "b.alg", "c.alg"],
        ]
        for argv in argvs:
            assert main(argv) == 0
        fresh = [vars(cli.build_parser.__wrapped__().parse_args(argv)) for argv in argvs]
        assert seen == fresh
        assert [s.get("check") for s in seen] == [None, ["lie", "lsa"], ["plsa"], None]
        assert (seen[3]["sign"], seen[3]["double"], seen[3]["lam"]) == (1, "tangent", None)
        assert seen[2]["json"] and not seen[3]["json"]

    def test_later_verify_runs_only_its_checks(self, ssla3, capsys):
        assert run(["verify", ssla3, "--check", "lie", "--check", "special-symplectic"]) == 0
        assert capsys.readouterr().out.count("PASS") == 2
        assert run(["verify", ssla3, "--check", "lie"]) == 0
        assert capsys.readouterr().out == "jacobi: PASS\n"

    def test_command_rebound_after_first_call_runs(self, monkeypatch, capsys):
        assert main(["catalog", "list"]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.file) or 7)
        assert main(["verify", "x.alg", "--check", "lie"]) == 7
        assert calls == ["x.alg"]

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_unchanged_by_earlier_calls(self, argv, ssla3, capsys):
        assert run(["verify", ssla3, "--check", "lie"]) == 0
        capsys.readouterr()
        first = _help_text(main, argv, capsys)
        assert _help_text(main, argv, capsys) == first
        assert first == _help_text(cli.build_parser.__wrapped__().parse_args, argv, capsys)
        assert first.startswith("usage: symplie")
