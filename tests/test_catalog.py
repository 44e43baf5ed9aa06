import pytest

from symplie.checks import (
    check_left_symmetric,
    check_plsa,
    check_special_symplectic,
    op_add,
)
from symplie.catalog import CatalogEntry, UnknownEntry, catalog_get, catalog_list
from symplie.constructions import plsa_from_special_symplectic


class TestCatalogList:
    def test_contents_and_order(self):
        rows = catalog_list()
        names = [name for name, _, _ in rows]
        assert names == [
            "ssla-2d-1", "ssla-2d-2", "ssla-2d-3", "ssla-2d-4",
            "plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV",
            "lsa-1d-idem",
        ]
        kinds = {kind for _, kind, _ in rows}
        assert kinds == {"ssla", "plsa", "lsa"}
        assert all(prov for _, _, prov in rows)

    def test_stable_across_calls(self):
        assert catalog_list() == catalog_list()


class TestCatalogGet:
    def test_returns_entry(self):
        e = catalog_get("ssla-2d-3")
        assert isinstance(e, CatalogEntry)
        assert e.name == "ssla-2d-3"
        assert e.kind == "ssla"

    def test_unknown_name(self):
        with pytest.raises(UnknownEntry) as exc:
            catalog_get("ssla-9d-0")
        assert isinstance(exc.value, KeyError)
        assert exc.value.args == ("ssla-9d-0",)
        valid = ", ".join(sorted(name for name, _, _ in catalog_list()))
        assert str(exc.value) == "unknown catalog entry 'ssla-9d-0'; valid: %s" % valid


class TestEntriesVerify:
    def test_ssla_entries(self):
        for n in ("ssla-2d-1", "ssla-2d-2", "ssla-2d-3", "ssla-2d-4"):
            p = catalog_get(n).payload
            rep = check_special_symplectic(p.bracket, p.conn, p.omega)
            assert rep.verdict, (n, rep.violations[:3])

    def test_plsa_entries(self):
        for n in ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV"):
            prec, succ = catalog_get(n).payload
            assert check_plsa(prec, succ).verdict, n

    def test_lsa_entry(self):
        assert check_left_symmetric(catalog_get("lsa-1d-idem").payload).verdict

    def test_plsa_entries_match_ssla_extraction(self):
        pairs = zip(("ssla-2d-1", "ssla-2d-2", "ssla-2d-3", "ssla-2d-4"),
                    ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV"))
        for sname, pname in pairs:
            extracted = plsa_from_special_symplectic(catalog_get(sname).payload)
            assert extracted == catalog_get(pname).payload, (sname, pname)

    def test_plsa_pairs_sum_to_connections(self):
        pairs = zip(("ssla-2d-1", "ssla-2d-2", "ssla-2d-3", "ssla-2d-4"),
                    ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV"))
        for sname, pname in pairs:
            prec, succ = catalog_get(pname).payload
            assert op_add(prec, succ) == catalog_get(sname).payload.conn


class TestNotes:
    def test_bracket_note_on_nonabelian_packages(self):
        for n in ("ssla-2d-3", "ssla-2d-4"):
            notes = catalog_get(n).notes
            assert notes and any("bracket" in note for note in notes)

    def test_no_notes_elsewhere(self):
        for n in ("ssla-2d-1", "ssla-2d-2", "plsa-2d-I", "lsa-1d-idem"):
            assert catalog_get(n).notes == ()
