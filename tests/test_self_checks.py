"""The package's self-checks, each made to fire by replacing one route it
relies on: the ALERT notes that flag two verifier routes disagreeing, and
the InternalMismatch raises of the constructions that re-verify their own
output.  Each raise is also run in a subprocess under python -O, where an
assert would vanish but an explicit raise must not."""

import os
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from symplie import catalog, checks, constructions
from symplie.catalog import CatalogEntry, catalog_get
from symplie.checks import CheckReport, Endo, Form, Violation, st
from symplie.constructions import (
    FamilyParams,
    family_JE,
    hypersymplectic_from_tangent,
    lsa_from_symplectic,
    plsa_from_special_symplectic,
    post_affine_check,
)
from symplie.linalg import InternalMismatch, mat_identity


def _flipped(route):
    """route with the verdict of its report negated, all else kept."""
    def call(*args):
        rep = route(*args)
        return CheckReport(rep.check, not rep.verdict, rep.violations, rep.notes)
    return call


def _failing_square(where):
    """square_violations, with one violation for the identity named where."""
    def call(w, N, sign):
        if w == where:
            return [Violation(w, (0, 0), Q(1))]
        return checks.square_violations(w, N, sign)
    return call


def _family_JE():
    return family_JE(FamilyParams("F1", Q(1), Q(0)), Endo(2, mat_identity(2)))


def _lsa():
    return lsa_from_symplectic(st(2, {(0, 1, 0): Q(1), (1, 0, 0): Q(-1)}),
                               Form(2, ((Q(0), Q(1)), (Q(-1), Q(0)))))


def _plsa():
    return plsa_from_special_symplectic(catalog_get("ssla-2d-4").payload)


def _unknown_kind():
    return catalog._validate(CatalogEntry("e", "unknown", None, "none"))


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
    ((), _unknown_kind, AssertionError, "unknown catalog kind 'unknown'"),
]


def print_raises():
    """Run each call of RAISES under its patches and print the message of
    the error it raises; a call that raises nothing exits with status 4."""
    for patches, call, error, _ in RAISES:
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


@pytest.mark.parametrize("patches, call, error, message", RAISES,
                         ids=[message for *_, message in RAISES])
def test_raise(monkeypatch, patches, call, error, message):
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


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
    assert done.stdout.splitlines() == [message for *_, message in RAISES]


def test_plsa_alert_despite_commutativity_and_compatibility(monkeypatch):
    monkeypatch.setattr(checks, "check_left_symmetric", _flipped(checks.check_left_symmetric))
    rep = checks._plsa(*catalog_get("plsa-2d-IV").payload)
    assert rep.notes == (
        "ALERT: sum-product left-symmetry (pass) disagrees with succ left-symmetry (fail)",
        "ALERT: disagreement despite commutativity and compatibility holding; "
        "this indicates a verifier bug")


def test_special_symplectic_closed_consequence(monkeypatch):
    # a form that is not closed for a 4-dim bracket, read in place of the
    # package's own closedness
    br = st(4, {(0, 1, 2): Q(1), (1, 0, 2): Q(-1)})
    w = Form(4, ((Q(0), Q(1), Q(0), Q(0)), (Q(-1), Q(0), Q(0), Q(0)),
                 (Q(0), Q(0), Q(0), Q(1)), (Q(0), Q(0), Q(-1), Q(0))))
    closed = checks.check_closed(br, w)
    assert closed.violations
    monkeypatch.setattr(checks, "check_closed", lambda *args: closed)
    s = catalog_get("ssla-2d-3").payload
    rep = checks._special_symplectic(s.bracket, s.conn, s.omega)
    assert rep.notes == ("ALERT: form is parallel for a torsion-free connection yet "
                         "not closed; mathematically impossible, report a bug",)
    assert rep.violations == tuple(Violation("closed (consequence): " + v.where, v.indices,
                                             v.residual) for v in closed.violations)


def test_hypersymplectic_alert(monkeypatch):
    d, J, E, g = hypersymplectic_from_tangent(catalog_get("ssla-2d-3").payload,
                                              FamilyParams("F1", Q(1), Q(0)))
    calls, real = [], checks.check_closed

    def closed(br, w):  # the second form, w2, reads as not closed
        calls.append(w)
        return (_flipped(real) if len(calls) == 2 else real)(br, w)
    monkeypatch.setattr(checks, "check_closed", closed)
    rep = checks.check_hypersymplectic(d.bracket, J, E, g)
    assert len(calls) == 3
    assert rep.notes == ("ALERT: first form closed but a companion form is not, despite "
                         "a valid complex product structure and compatible metric; "
                         "mathematically impossible, report a bug",)


def test_post_affine_alert(monkeypatch):
    prec, succ = catalog_get("plsa-2d-IV").payload
    dot = checks.op_add(prec, succ)
    monkeypatch.setattr(constructions, "check_plsa", _flipped(checks.check_plsa))
    rep = post_affine_check(succ, dot, checks.sub_adjacent(dot))
    assert rep.notes == ("ALERT: direct identity (pass) disagrees with the product-pair "
                         "route (fail) on flat torsion-free input; report a bug",)
