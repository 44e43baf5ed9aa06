"""Built-in instances, exactly encoded and re-verified at import time.

Names: ssla-2d-1 .. ssla-2d-4 are two-dimensional flat symplectic packages
(bracket, connection, form); plsa-2d-I .. plsa-2d-IV are the product pairs
extracted from them; lsa-1d-idem is the one-dimensional idempotent algebra.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .checks import (
    Form,
    check_left_symmetric,
    check_plsa,
    check_special_symplectic,
    require,
    st,
)
from .constructions import SpecialSymplecticData
from .linalg import InternalMismatch


class UnknownEntry(KeyError):
    """A name with no catalog entry; args[0] is that name.  Its message names
    the valid entries, as an unknown check or recipe does (a plain KeyError
    would print only the quoted name)."""

    def __str__(self):
        return "unknown catalog entry %r; valid: %s" % (self.args[0],
                                                        ", ".join(sorted(_BY_NAME)))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "ssla" | "plsa" | "lsa"
    payload: object
    provenance: str
    notes: tuple = field(default=())


_H = Fraction(1, 2)

# the standard area form: omega(e1, e2) = 1
_AREA = Form(2, ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))))

# [e1, e2] = e1 (and nothing else), shared by the two nonabelian packages
_NONABELIAN = st(2, {(0, 1, 0): 1, (1, 0, 0): -1})

_BRACKET_NOTE = ("bracket normalized to send (e1, e2) to e1, the commutator "
                 "of the stored connection; the variant sending (e1, e2) to "
                 "e2 is not torsion-free against either connection")


def _entries():
    out = []
    out.append(CatalogEntry(
        "ssla-2d-1", "ssla",
        SpecialSymplecticData(st(2), st(2), _AREA),
        "abelian bracket, zero connection, standard area form"))
    out.append(CatalogEntry(
        "ssla-2d-2", "ssla",
        SpecialSymplecticData(st(2), st(2, {(0, 0, 1): 1}), _AREA),
        "abelian bracket, connection sending (e1, e1) to e2"))
    out.append(CatalogEntry(
        "ssla-2d-3", "ssla",
        SpecialSymplecticData(_NONABELIAN,
                              st(2, {(1, 0, 0): -1, (1, 1, 1): 1}), _AREA),
        "nonabelian bracket, integral connection through e2",
        (_BRACKET_NOTE,)))
    out.append(CatalogEntry(
        "ssla-2d-4", "ssla",
        SpecialSymplecticData(_NONABELIAN,
                              st(2, {(0, 1, 0): _H, (1, 0, 0): -_H,
                                     (1, 1, 0): 1, (1, 1, 1): _H}), _AREA),
        "nonabelian bracket, half-integer connection through e2",
        (_BRACKET_NOTE,)))
    out.append(CatalogEntry(
        "plsa-2d-I", "plsa",
        (st(2), st(2)),
        "both products zero"))
    out.append(CatalogEntry(
        "plsa-2d-II", "plsa",
        (st(2, {(0, 0, 1): 1}), st(2)),
        "e1 prec e1 = e2, second product zero"))
    out.append(CatalogEntry(
        "plsa-2d-III", "plsa",
        (st(2, {(0, 1, 0): -1, (1, 0, 0): -1}),
         st(2, {(0, 1, 0): 1, (1, 1, 1): 1})),
        "pair extracted from the integral-connection package"))
    out.append(CatalogEntry(
        "plsa-2d-IV", "plsa",
        (st(2, {(0, 1, 0): -_H, (1, 0, 0): -_H, (1, 1, 0): 1, (1, 1, 1): -_H}),
         st(2, {(0, 1, 0): 1, (1, 1, 1): 1})),
        "pair extracted from the half-integer-connection package"))
    out.append(CatalogEntry(
        "lsa-1d-idem", "lsa",
        st(1, {(0, 0, 0): 1}),
        "one-dimensional idempotent product"))
    return tuple(out)


def _validate(entry):
    """Re-verify a built-in entry; a failure, or an unknown kind, is a bug in
    symplie (InternalMismatch)."""
    if entry.kind == "ssla":
        rep = check_special_symplectic(entry.payload.bracket, entry.payload.conn,
                                       entry.payload.omega)
    elif entry.kind == "plsa":
        rep = check_plsa(*entry.payload)
    elif entry.kind == "lsa":
        rep = check_left_symmetric(entry.payload)
    else:
        raise InternalMismatch("unknown catalog kind %r" % entry.kind)
    require(rep, InternalMismatch, "catalog entry %s fails %%s at %%s" % entry.name)


_ENTRIES = _entries()
for _e in _ENTRIES:
    _validate(_e)
_BY_NAME = {e.name: e for e in _ENTRIES}


def catalog_list():
    """All entries as (name, kind, provenance), in a fixed order."""
    return [(e.name, e.kind, e.provenance) for e in _ENTRIES]


def catalog_get(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownEntry(name)
