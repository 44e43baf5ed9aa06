"""Witnesses for the dimension preconditions: each guarded entry point,
called on inputs of two dimensions, raises DimensionMismatch with its exact
one-line message, also under python -O; and a failing matched-pair check
raises NotMatched with the failing report attached."""

import os
import subprocess
import sys

import pytest

from symplie.catalog import catalog_get
from symplie.checks import (
    Endo,
    Form,
    RepTensor,
    check_bimodule,
    check_closed,
    check_complex_product,
    check_flat,
    check_hypersymplectic,
    check_metric_compatible,
    check_parallel_form,
    check_plsa,
    check_representation,
    check_special_symplectic,
    check_torsion_free,
    nijenhuis_torsion,
    op_add,
    op_sub,
    st,
    torsion_violations,
)
from symplie.constructions import post_affine_check
from symplie.linalg import DimensionMismatch, mat_inverse, mat_mul, mat_zero
from symplie.matched import (
    NotMatched,
    bowtie_lsa,
    build_double_plsa,
    check_matched_pair,
    double_extension,
    dual_actions,
)

from oracles import scalar_plain


def _form(n):
    return Form(n, mat_zero(n))


def _endo(n):
    return Endo(n, scalar_plain(n, 1))


def _rep(n):
    return RepTensor(n, n, (mat_zero(n),) * n)


# (entry point, call on objects of dims 2 and 3, exact message); each call
# gives the last object listed in the message the other dimension, and
# mat_inverse's message, on a 2 x 3 matrix, names none
GUARDS = [
    ("op_add", lambda: op_add(st(2), st(3)), "operations on dimensions 2 and 3"),
    ("op_sub", lambda: op_sub(st(2), st(3)), "operations on dimensions 2 and 3"),
    ("check_plsa", lambda: check_plsa(st(2), st(3)), "prec dim 2, succ dim 3"),
    ("check_torsion_free", lambda: check_torsion_free(st(2), st(3)),
     "bracket dim 2, connection dim 3"),
    ("check_flat", lambda: check_flat(st(2), st(3)), "bracket dim 2, connection dim 3"),
    ("check_closed", lambda: check_closed(st(2), _form(3)), "bracket dim 2, form dim 3"),
    ("check_parallel_form", lambda: check_parallel_form(st(2), _form(3)),
     "connection dim 2, form dim 3"),
    ("check_special_symplectic", lambda: check_special_symplectic(st(2), st(2), _form(3)),
     "dimensions 2, 2, 3"),
    ("nijenhuis_torsion", lambda: nijenhuis_torsion(st(2), _endo(3)),
     "bracket dim 2, endomorphism dim 3"),
    ("torsion_violations", lambda: torsion_violations("torsion", st(2), _endo(3)),
     "bracket dim 2, endomorphism dim 3"),
    ("check_complex_product", lambda: check_complex_product(st(2), _endo(2), _endo(3)),
     "dimensions 2, 2, 3"),
    ("check_metric_compatible", lambda: check_metric_compatible(_form(2), _endo(2), _endo(3)),
     "dimensions 2, 2, 3"),
    ("check_hypersymplectic",
     lambda: check_hypersymplectic(st(2), _endo(2), _endo(2), _form(3)),
     "dimensions 2, 2, 2, 3"),
    ("check_representation", lambda: check_representation(st(2), _rep(3)),
     "bracket dim 2, representation dim 3"),
    ("check_bimodule", lambda: check_bimodule(st(2), _rep(2), _rep(3)),
     "algebra dim 2, actions on dims 2, 3"),
    ("post_affine_check", lambda: post_affine_check(st(2), st(2), st(3)),
     "dimensions 2, 2, 3"),
    ("double_extension", lambda: double_extension((st(2), st(2)), (st(3), st(3))),
     "sides have dimensions 2 and 3"),
    ("build_double_plsa", lambda: build_double_plsa((st(2), st(2)), (st(3), st(3))),
     "sides have dimensions 2 and 3"),
    ("mat_mul", lambda: mat_mul(mat_zero(2), mat_zero(3)), "inner dimensions 2 and 3"),
    ("mat_inverse", lambda: mat_inverse(mat_zero(2, 3)), "matrix is not square"),
]


@pytest.mark.parametrize("call,message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_dimension_guard(call, message):
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert str(err.value) == message


def test_each_guard_in_either_position():
    # the mismatch may sit in any argument: a guard compares every n
    calls = [
        lambda: check_special_symplectic(st(3), st(2), _form(2)),
        lambda: check_hypersymplectic(st(2), _endo(3), _endo(2), _form(2)),
        lambda: check_bimodule(st(2), _rep(3), _rep(2)),
        lambda: post_affine_check(st(3), st(2), st(2)),
    ]
    messages = ["dimensions 3, 2, 2", "dimensions 2, 3, 2, 2",
                "algebra dim 2, actions on dims 3, 2", "dimensions 3, 2, 2"]
    for call, message in zip(calls, messages):
        with pytest.raises(DimensionMismatch, match="^%s$" % message):
            call()


def test_dimension_guards_under_optimize():
    # every guard is an explicit raise, so it does not vanish under
    # python -O as an assert would
    tests = os.path.dirname(os.path.abspath(__file__))
    code = "\n".join([
        "import sys",
        "if sys.flags.optimize != 1:",
        "    sys.exit(3)",
        "from symplie.linalg import DimensionMismatch",
        "from test_guards import GUARDS",
        "for name, call, message in GUARDS:",
        "    try:",
        "        call()",
        "    except DimensionMismatch as e:",
        "        print(e)",
        "    else:",
        "        print('%s: no error' % name)",
    ])
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(tests), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, tests, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(message + "\n" for _, _, message in GUARDS)


def _pair(name):
    return catalog_get(name).payload


class TestNotMatched:
    def test_bowtie_message_and_report(self):
        mp = dual_actions(_pair("plsa-2d-II"), _pair("plsa-2d-III"))
        expected = check_matched_pair(mp)
        v = expected.violations[0]
        with pytest.raises(NotMatched) as err:
            bowtie_lsa(mp)
        assert str(err.value) == "not a matched pair: %s at %s" % (v.where, v.indices)
        assert err.value.report == expected

    def test_double_extension_message_and_report(self):
        a, b = _pair("plsa-2d-II"), _pair("plsa-2d-III")
        expected = check_matched_pair(dual_actions(a, b))
        v = expected.violations[0]
        with pytest.raises(NotMatched) as err:
            double_extension(a, b)
        assert str(err.value) == "dual actions do not match: %s at %s" % (v.where, v.indices)
        assert err.value.report == expected
