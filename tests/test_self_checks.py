"""The package's self-checks, each made to fire by replacing one route it
relies on or by a bad catalog entry: the InternalMismatch raises of the
verifiers whose two routes, or whose sub-reports and a consequence of them,
contradict each other, of the constructions that re-verify their own
output, and of the catalog's re-verification.  Each raise is also run in a
subprocess under python -O, where an assert would vanish but an explicit
raise must not.  On input that is merely invalid no self-check fires."""

import os
import subprocess
import sys
from fractions import Fraction as Q
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from symplie import catalog, checks, constructions
from symplie.catalog import CatalogEntry, catalog_get
from symplie.checks import CheckReport, Endo, Form, StructureTensor, Violation, st
from symplie.constructions import (
    FamilyParams,
    family_JE,
    hypersymplectic_from_tangent,
    lsa_from_symplectic,
    plsa_from_special_symplectic,
    post_affine_check,
)
from symplie.linalg import InternalMismatch

from oracles import scalar_plain
from test_linalg import matrices, tensors


def _negated(rep):
    """rep with its verdict negated, all else kept."""
    return CheckReport(rep.check, not rep.verdict, rep.violations, rep.notes)


def _flipped(route):
    """route with the verdict of its report negated."""
    return lambda *args: _negated(route(*args))


def _failing_square(where):
    """square_violations, with one violation for the identity named where."""
    def call(w, N, sign):
        if w == where:
            return [Violation(w, (0, 0), Q(1))]
        return checks.square_violations(w, N, sign)
    return call


def _family_JE():
    return family_JE(FamilyParams("F1", Q(1), Q(0)), Endo(2, scalar_plain(2, 1)))


def _lsa():
    return lsa_from_symplectic(st(2, {(0, 1, 0): Q(1), (1, 0, 0): Q(-1)}),
                               Form(2, ((Q(0), Q(1)), (Q(-1), Q(0)))))


def _plsa():
    return plsa_from_special_symplectic(catalog_get("ssla-2d-4").payload)


def _unknown_kind():
    return catalog._validate(CatalogEntry("e", "unknown", None, "none"))


def _failing_entry():
    # e_1 e_1 = e_2 and e_2 e_1 = e_1: the left-symmetry defect at (e_1, e_2, e_1) is -2 e_2
    return catalog._validate(CatalogEntry("e", "lsa", st(2, {(0, 0, 1): 1, (1, 0, 0): 1}),
                                          "none"))


def _plsa_check():
    return checks._plsa(*catalog_get("plsa-2d-IV").payload)


def _special_symplectic():
    s = catalog_get("ssla-2d-3").payload
    return checks._special_symplectic(s.bracket, s.conn, s.omega)


@cache
def _tangent_f1():
    """(d, J, E, g) of ssla-2d-3's tangent F1 package, lambda = 1, mu = 0."""
    return hypersymplectic_from_tangent(catalog_get("ssla-2d-3").payload,
                                        FamilyParams("F1", Q(1), Q(0)))


def _hypersymplectic():
    d, J, E, g = _tangent_f1()
    return checks.check_hypersymplectic(d.bracket, J, E, g)


_check_closed = checks.check_closed


def _closed_but_w1(br, w):
    """check_closed with the verdict negated for every form but the first
    form of _tangent_f1."""
    _, J, E, g = _tangent_f1()
    rep = _check_closed(br, w)
    return rep if w == checks.three_forms(g, J, E)[0] else _negated(rep)


def _post_affine():
    prec, succ = catalog_get("plsa-2d-IV").payload
    dot = checks.op_add(prec, succ)
    return post_affine_check(succ, dot, checks.sub_adjacent(dot))


# (patches, call, error, message): each patch (module, name, value) is set
# for the call only
RAISES = [
    (((constructions, "square_violations", _failing_square("J^2+id")),), _family_JE,
     InternalMismatch, "built J does not square to -id"),
    (((constructions, "square_violations", _failing_square("E^2-id")),), _family_JE,
     InternalMismatch, "built E does not square to id"),
    (((constructions, "anticommute_violations",
       lambda where, J, E: [Violation(where, (0, 0), Q(1))]),), _family_JE,
     InternalMismatch, "J and E do not anticommute"),
    (((constructions, "check_torsion_free", _flipped(checks.check_torsion_free)),), _lsa,
     InternalMismatch, "derived product has torsion"),
    (((constructions, "scaled_equal", lambda a, b: False),), _plsa,
     InternalMismatch, "parts do not sum back to the connection"),
    (((constructions, "check_plsa", _flipped(checks.check_plsa)),), _plsa,
     InternalMismatch, "derived pair fails the product-pair axioms"),
    ((), _unknown_kind, InternalMismatch, "unknown catalog kind 'unknown'"),
    ((), _failing_entry, InternalMismatch,
     "catalog entry e fails left-symmetric at (0, 1, 0)"),
    (((checks, "check_left_symmetric", _flipped(checks.check_left_symmetric)),), _plsa_check,
     InternalMismatch, "sum-product left-symmetry (pass) disagrees with succ left-symmetry "
     "(fail) although commutativity and compatibility hold"),
    (((checks, "check_closed", _flipped(checks.check_closed)),), _special_symplectic,
     InternalMismatch, "form is parallel for a torsion-free connection of a Lie bracket yet "
     "not closed"),
    (((constructions, "check_plsa", _flipped(checks.check_plsa)),), _post_affine,
     InternalMismatch, "direct identity (pass) disagrees with the product-pair route (fail) "
     "on flat torsion-free input"),
]

# the hypersymplectic self-check has a test of its own below; the python -O
# run covers it with the rest
HYPERSYMPLECTIC_RAISE = (
    ((checks, "check_closed", _closed_but_w1),), _hypersymplectic,
    InternalMismatch, "first form closed but a companion form is not, for a Lie bracket "
    "with a complex product structure and compatible metric")
ALL_RAISES = RAISES + [HYPERSYMPLECTIC_RAISE]


def print_raises():
    """Run each call of ALL_RAISES under its patches and print the message of
    the error it raises; a call that raises nothing exits with status 4."""
    for patches, call, error, _ in ALL_RAISES:
        originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
        for module, name, value in patches:
            setattr(module, name, value)
        try:
            call()
        except error as e:
            print(e)
        else:
            sys.exit(4)
        finally:
            for module, name, value in originals:
                setattr(module, name, value)


def _assert_raises(monkeypatch, patches, call, error, message):
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


@pytest.mark.parametrize("patches, call, error, message", RAISES,
                         ids=[message for *_, message in RAISES])
def test_raise(monkeypatch, patches, call, error, message):
    _assert_raises(monkeypatch, patches, call, error, message)


def test_hypersymplectic_alert(monkeypatch):
    _assert_raises(monkeypatch, *HYPERSYMPLECTIC_RAISE)


def test_raises_survive_optimize():
    here = os.path.dirname(os.path.abspath(__file__))
    code = "\n".join([
        "import sys",
        "if sys.flags.optimize != 1:",
        "    sys.exit(3)",
        "sys.path.insert(0, %r)" % here,
        "import test_self_checks",
        "test_self_checks.print_raises()",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.join(os.path.dirname(here), "src"),
                                                      env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [message for *_, message in ALL_RAISES]


# --- no self-check fires on input that is merely invalid ---

VERIFIERS = {"special-symplectic": checks.check_special_symplectic,
             "hypersymplectic": checks.check_hypersymplectic,
             "post-affine": post_affine_check, "plsa": checks.check_plsa}


@hs.composite
def invalid_inputs(draw):
    """(name, args) for a VERIFIERS entry: dense, zero or single-nonzero
    structure constants of dim 2-4, so that brackets which are not
    antisymmetric come up, and forms skew one time in two.  The
    hypersymplectic verifier reads a random 4-dim bracket with the (J, E, g)
    of a catalog package's tangent F1 double."""
    name = draw(hs.sampled_from(sorted(VERIFIERS)))
    if name == "hypersymplectic":
        s = catalog_get(draw(hs.sampled_from(("ssla-2d-1", "ssla-2d-2", "ssla-2d-3",
                                               "ssla-2d-4")))).payload
        _, J, E, g = hypersymplectic_from_tangent(s, FamilyParams("F1", Q(1), Q(0)))
        return name, (StructureTensor(4, draw(tensors((4, 4, 4)))), J, E, g)
    n = draw(hs.integers(2, 4))
    ops = [StructureTensor(n, draw(tensors((n, n, n)))) for _ in range(2 if name == "plsa" else 3)]
    if name == "special-symplectic":
        m = draw(matrices(n, n))
        if draw(hs.booleans()):
            m = tuple(tuple(x - y for x, y in zip(row, col)) for row, col in zip(m, zip(*m)))
        ops[2] = Form(n, m)
    return name, tuple(ops)


@settings(max_examples=40)
@given(invalid_inputs())
# [e_3, e_1] = -e_1 with [e_1, e_3] = 0 is not antisymmetric: torsion-free,
# skew and parallel pass on the pairs they read, and the form is not closed
@example(("special-symplectic", (st(3, {(2, 0, 0): -1}), st(3),
                                 Form(3, ((0, 1, 0), (-1, 0, 0), (0, 0, 0))))))
# a bracket that is not antisymmetric: w1 closed, w2 not
@example(("hypersymplectic", (st(4, {(0, 0, 2): -1, (0, 2, 0): 1}), *_tangent_f1()[1:])))
def test_invalid_input_fires_no_self_check(case):
    name, args = case
    try:
        rep = VERIFIERS[name](*args)
    except InternalMismatch as e:
        pytest.fail("%s raised InternalMismatch: %s" % (name, e))
    assert not any("report a bug" in note or "verifier bug" in note for note in rep.notes)
