"""Characterization of the command line's output.

Every recipe of test_acceptance's recipe table and every check, each run
with and without --json, plus the catalog exports and a few usage errors:
the exit code, stdout, stderr and each file written must equal the record
in cli_outputs.json, byte for byte.  The commands run in a scratch
directory with relative paths, so no temporary path reaches the output.

To re-record after a deliberate change of output:

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import contextlib
import io
import json
import os

from symplie.catalog import catalog_list
from symplie.cli import RECIPES, main, parse_algebra_file

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_outputs.json")

# hand-made inputs, in the file format (the recipes that no catalog entry feeds)
INPUTS = {
    "sd-in.alg": "algebra sd-in\ndim 2\n"
                 "op bracket 1 2 = 1*e1\nop bracket 2 1 = -1*e1\n"
                 "rep rho 1 2 1 = -1\nrep rho 2 1 1 = 1\n",
    "bt-in.alg": "algebra bt-in\ndim 2\n"
                 "op a1 2 1 = -1*e1\nop a1 2 2 = 1*e2\nop a2 1 1 = 1*e2\n",
    "sl-in.alg": "algebra sl-in\ndim 2\n"
                 "op prod 1 2 = 1/2*e1\nop prod 2 1 = -1/2*e1\n"
                 "op prod 2 2 = 1*e1 + 1/2*e2\n",
    "zero-in.alg": "algebra zero-in\ndim 2\n",
    "bad.alg": "algebra bad\ndim 2\nop bracket 1 2 = 1*e1\n",
}

# (recipe, inputs, extra arguments): test_acceptance's table
RECIPE_RUNS = (
    ("sub-adjacent", ["lsa-1d-idem.alg"], []),
    ("lsa-from-symplectic", ["ssla-2d-3.alg"], []),
    ("plsa-extract", ["ssla-2d-3.alg"], []),
    ("tangent-double", ["ssla-2d-3.alg"], []),
    ("cotangent-double", ["ssla-2d-3.alg"], []),
    ("hypersymplectic-f1", ["ssla-2d-3.alg"], ["--lambda", "1", "--mu", "0"]),
    ("hypersymplectic-f2", ["ssla-2d-3.alg"],
     ["--lambda", "1", "--mu", "1", "--double", "cotangent"]),
    ("hypersymplectic-f3", ["ssla-2d-3.alg"], ["--lambda", "5", "--mu", "0", "--k", "3"]),
    ("semidirect", ["sd-in.alg"], []),
    ("bowtie", ["bt-in.alg"], []),
    ("double-extension", ["plsa-2d-II.alg", "zero-in.alg"], []),
    ("drinfeld-double", ["plsa-2d-II.alg"], []),
    ("slsba-double", ["sl-in.alg"], []),
    ("coboundary", ["plsa-2d-II.alg"], ["--r", "2,2,1"]),
)

# (check, input): every check on one input, some of them failing
CHECK_RUNS = (
    ("lie", "bad.alg"),
    ("lsa", "lsa-1d-idem.alg"),
    ("plsa", "plsa-2d-II.alg"),
    ("special-symplectic", "ssla-2d-3.alg"),
    ("hypersymplectic", "out-hypersymplectic-f1.alg"),
    ("matched-pair", "bt-in.alg"),
    ("plsba", "out-drinfeld-double.alg"),
    ("slsba", "out-slsba-double.alg"),
    ("para-kahler", "ssla-2d-3.alg"),
    ("para-kahler", "out-hypersymplectic-f1.alg"),  # no op conn
    ("post-affine", "out-tangent-double.alg"),
)

ERROR_RUNS = (
    ["construct", "double-extension", "plsa-2d-II.alg"],
    ["construct", "no-such-recipe", "plsa-2d-II.alg"],
    ["construct", "hypersymplectic-f1", "ssla-2d-3.alg"],
    ["construct", "coboundary", "plsa-2d-II.alg", "--r", "1,1,-2;1,2,1/3;2,2,-1/2",
     "--out", "cb-fail.alg"],
    ["verify", "plsa-2d-II.alg", "--check", "no-such-check"],
)


def _runs():
    """Every command in order; a later one may read what an earlier wrote."""
    for name, _, _ in catalog_list():
        yield ["catalog", "show", name]
        yield ["catalog", "show", name, "--export", "--out", "%s.alg" % name]
    for recipe, inputs, extra in RECIPE_RUNS:
        out = "out-%s.alg" % recipe
        yield ["construct", recipe] + inputs + extra + ["--out", out]
        yield ["construct", recipe] + inputs + extra + ["--out", out, "--json"]
    yield ["construct", "sub-adjacent", "ssla-2d-3.alg"]  # the default path and name
    for check, path in CHECK_RUNS:
        yield ["verify", path, "--check", check]
        yield ["verify", path, "--check", check, "--json"]
    yield from ERROR_RUNS


def _run(argv):
    """The exit code, stdout, stderr and the files written by main(argv),
    run in the current directory: every file's mtime is set to 0 first, so
    a file with another mtime afterwards was written."""
    for f in os.listdir("."):
        os.utime(f, (0, 0))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    written = {}
    for f in sorted(os.listdir(".")):
        if os.path.getmtime(f) != 0:
            with open(f, encoding="utf-8") as fh:
                written[f] = fh.read()
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "written": written}


def _record_all():
    for fname, text in INPUTS.items():
        with open(fname, "w", encoding="utf-8") as fh:
            fh.write(text)
    return [_run(argv) for argv in _runs()]


def test_cli_outputs_match_the_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(RECORD, encoding="utf-8") as fh:
        want = json.load(fh)
    got = _record_all()
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


def test_recipe_scale_is_the_output_dimension():
    """Each recipe's scale times the dimension of its first input is the
    dimension of the file it wrote in the record: cmd_construct refuses an
    output above MAX_DIM from that product, before it builds."""
    with open(RECORD, encoding="utf-8") as fh:
        files = dict(INPUTS)
        for r in json.load(fh):
            files.update(r["written"])
    assert {run[0] for run in RECIPE_RUNS} == set(RECIPES)
    for recipe, inputs, _ in RECIPE_RUNS:
        dim = parse_algebra_file(files[inputs[0]]).dim
        assert parse_algebra_file(files["out-%s.alg" % recipe]).dim == RECIPES[recipe].scale * dim


if __name__ == "__main__":
    import tempfile
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        results = _record_all()
        os.chdir(here)
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
