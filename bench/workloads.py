"""The three benchmark workloads: inputs made from a seed, the jobs, and the
correctness gate on each job's output.

Every input a run can draw comes from a fixed candidate pool (built from
``POOL_SEED``); the run's seed only selects from it.  ``digests.json`` holds
the output digest of every candidate, recorded by ``record_digests.py`` from
the package as it stood when the benchmark was written, so every job of every
seed is checked against a recorded answer: the same verdicts, violations in
the same order and the same notes.

Jobs call into symplie through module attributes (``cli.main``,
``checks.check_hypersymplectic``, ...) so that the tracer's wrappers see
them; the gate uses functions bound here at import time, so gate work is
never traced.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from symplie import bialgebra, checks, cli, constructions, matched
from symplie.catalog import catalog_get
from symplie.checks import StructureTensor, op_add, st, sub_adjacent
from symplie.cli import emit_algebra_file, parse_algebra_file

POOL_SEED = 20101031

PLSA_NAMES = ("plsa-2d-I", "plsa-2d-II", "plsa-2d-III", "plsa-2d-IV")
SSLA_NAMES = ("ssla-2d-1", "ssla-2d-2", "ssla-2d-3", "ssla-2d-4")

# entries of a dense random r: nonzero, with small denominators
DENSE_VALUES = tuple(Fraction(q) for q in
                     ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "1/3", "-2/3"))


class GateMiss(Exception):
    """A job's output failed the correctness gate."""


@dataclasses.dataclass
class Job:
    id: str
    dim: int
    run: object  # () -> output; the timed call into symplie
    check: object  # output -> canonical form to digest; raises GateMiss


@dataclasses.dataclass
class Workload:
    name: str
    jobs: list
    inputs: object  # () -> tensors fed in, for the nonzero share
    probes: list = dataclasses.field(default_factory=list)  # counted, never timed


# ---------------------------------------------------------------------------
# canonical forms and digests

def canon(x):
    """A JSON-ready form of reports, tensors and dataclasses, with every
    rational written exactly."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    if dataclasses.is_dataclass(x):
        return [[f.name, canon(getattr(x, f.name))] for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return [[str(k), canon(v)] for k, v in sorted(x.items())]
    return [canon(v) for v in x]


def digest(x):
    text = json.dumps(canon(x), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _entries(x):
    """(nonzero, total) entries of nested tensors and structure objects."""
    if isinstance(x, StructureTensor):
        x = x.c
    elif isinstance(x, (checks.Form, checks.Endo)):
        x = x.m
    elif isinstance(x, checks.RepTensor):
        x = x.t
    if not isinstance(x, (tuple, list)):
        return (1 if x else 0), 1
    nz = tot = 0
    for v in x:
        a, b = _entries(v)
        nz += a
        tot += b
    return nz, tot


def nonzero_share(tensors):
    nz, tot = _entries(list(tensors))
    return nz / tot


def _require(cond, what):
    if not cond:
        raise GateMiss(what)


# ---------------------------------------------------------------------------
# double-chain: the shell user's path through the CLI

def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_reports(rc, text):
    _require(rc == 0, "exit code %d" % rc)
    reports, _ = json.JSONDecoder().raw_decode(text)
    _require(all(r["verdict"] for r in reports),
             "failing report %s" % [r["check"] for r in reports if not r["verdict"]])
    return reports


def _check_verify(output):
    return _cli_reports(*output)


def _check_construct(path):
    def check(output):
        reports = _cli_reports(*output)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        af = parse_algebra_file(text)
        again = parse_algebra_file(emit_algebra_file(af))
        _require((af.dim, af.ops, af.forms, af.maps, af.tensor2s, af.reps) ==
                 (again.dim, again.ops, again.forms, again.maps, again.tensor2s,
                  again.reps), "emitted file does not re-parse to the same tensors")
        return [reports, af]
    return check


def _alg_text(name, op_label, op):
    """An algebra file holding one product, written as a user would."""
    lines = ["algebra %s" % name, "dim %d" % op.n]
    for i in range(op.n):
        for j in range(op.n):
            terms = ["%s*e%d" % (q, k + 1) for k, q in enumerate(op.c[i][j]) if q]
            if terms:
                lines.append("op %s %d %d = %s" % (op_label, i + 1, j + 1,
                                                  " + ".join(terms)))
    return "\n".join(lines) + "\n"


def double_chain(seed, workdir, full=False):
    """The shell user's path, one CLI command per job: for each catalog pair,
    the Drinfeld double 2 -> 4 verified with plsa and plsba, and the slsba
    double 2 -> 4 of its sum product verified with slsba and lsa.  Uses no
    randomness.

    The Drinfeld double 4 -> 8 of plsa-2d-IV is a probe: the traced run
    counts its Fraction.__new__ calls and re-verified preconditions, but it
    is not timed, because a 2 s job on a shared 2-core machine varies by
    10-30% from run to run even in reference seconds."""
    del seed, full
    jobs, read = [], []

    def path(stem):
        return os.path.join(workdir, stem + ".alg")

    def construct(recipe, src, dst):
        argv = ["construct", recipe, path(src), "--out", path(dst), "--json"]
        jobs.append(Job("dc/" + dst, int(dst[-1]), lambda: _cli(argv),
                        _check_construct(path(dst))))
        read.append(path(src))

    def verify(stem, names):
        argv = ["verify", path(stem)] + [a for n in names for a in ("--check", n)] + ["--json"]
        jobs.append(Job("dc/verify-" + stem, int(stem[-1]), lambda: _cli(argv),
                        _check_verify))
        read.append(path(stem))

    for name in PLSA_NAMES:
        rc, _ = _cli(["catalog", "show", name, "--export", "--out", path(name)])
        if rc != 0:
            raise RuntimeError("catalog export of %s failed" % name)
        with open(path("sum-" + name), "w", encoding="utf-8") as fh:
            fh.write(_alg_text("sum-" + name, "prod", op_add(*catalog_get(name).payload)))
        construct("drinfeld-double", name, name + "-d4")
        verify(name + "-d4", ("plsa", "plsba"))
        construct("slsba-double", "sum-" + name, "sum-%s-d4" % name)
        verify("sum-%s-d4" % name, ("slsba", "lsa"))
    probe = ["construct", "drinfeld-double", path("plsa-2d-IV-d4"),
             "--out", path("plsa-2d-IV-d8"), "--json"]
    probes = [Job("dc/probe/plsa-2d-IV-d8", 8, lambda: _cli(probe),
                  _check_construct(path("plsa-2d-IV-d8")))]

    def inputs():
        out = []
        for p in read:
            with open(p, encoding="utf-8") as fh:
                af = parse_algebra_file(fh.read())
            for group in (af.ops, af.forms, af.maps, af.tensor2s, af.reps):
                out += group.values()
        return out

    return Workload("double-chain", jobs, inputs, probes)


# ---------------------------------------------------------------------------
# family-grid: hypersymplectic packages through constructions, checks, linalg

def _family_params():
    Q = Fraction
    lams = (Q(1), Q(2), Q(-1))
    mus = (Q(0), Q(1), Q(-1, 2))
    fp = constructions.FamilyParams
    return {
        "F1": [fp("F1", lam, mu, None, 1) for lam in lams for mu in mus],
        "F2": [fp("F2", lam, mu, None, 1) for lam in lams for mu in mus if mu != 0],
        "F3": [fp("F3", lam, mu, k, 1) for lam, mu, k in
               ((Q(5), Q(0), Q(3)), (Q(5), Q(1), Q(3)), (Q(5), Q(1), Q(4)))],
    }


# per (package, double) at dim 8, how many points of each family a run draws
DIM8_DRAW = {"F1": 2, "F2": 1, "F3": 1}


def _family_job(tag, dim, s, double, p):
    build = getattr(constructions, "hypersymplectic_from_" + double)

    def run():
        d, J, E, g = build(s, p)
        return d.bracket, J, E, g, checks.check_hypersymplectic(d.bracket, J, E, g)

    def check(out):
        _require(out[4].verdict, "hypersymplectic check fails")
        return list(out)

    pid = "%s:%s:%s:%s" % (p.family, p.lam, p.mu, p.k)
    return Job("fg/%s/%s/%s" % (tag, double, pid), dim, run, check)


def family_grid(seed, workdir, full=False):
    """The 144-point F1/F2/F3 grid over the 2-dim catalog packages (dim 4),
    plus a seeded, family-stratified draw over the four 4-dim packages
    glued by ``double_extension`` with the zero pair (dim 8)."""
    del workdir
    params = _family_params()
    every = [p for fam in ("F1", "F2", "F3") for p in params[fam]]
    rnd = random.Random(seed)
    jobs, packages = [], []
    for name in SSLA_NAMES:
        s = catalog_get(name).payload
        packages.append(s)
        for double in ("tangent", "cotangent"):
            jobs += [_family_job(name, 4, s, double, p) for p in every]
    for name in PLSA_NAMES:
        ded, _ = matched.double_extension(catalog_get(name).payload, (st(2), st(2)))
        s = constructions.SpecialSymplecticData(sub_adjacent(ded.glued), ded.glued,
                                                ded.omega_p)
        packages.append(s)
        for double in ("tangent", "cotangent"):
            for fam in ("F1", "F2", "F3"):
                chosen = params[fam] if full else rnd.sample(params[fam], DIM8_DRAW[fam])
                jobs += [_family_job("ext-" + name, 8, s, double, p) for p in chosen]

    def inputs():
        return [t for s in packages for t in (s.bracket, s.conn, s.omega)]

    return Workload("family-grid", jobs, inputs)


# ---------------------------------------------------------------------------
# coboundary-dense: the bialgebra layer on dense random r

# per dimension: (candidates in the pool per base pair, drawn per run per pair)
DENSE_POOL = {2: (20, 10), 3: (10, 5), 4: (12, 6)}


def _inverse(m):
    """Gauss-Jordan inverse over Fraction, or None if singular."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _moved(op, extra, P, Pinv):
    """op on the first two coordinates plus e3 e3 = extra e3, conjugated by
    the basis change P: x o' y = P^-1 (Px o Py)."""
    n = 3
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                c[i][j][k] = op.c[i][j][k]
    c[2][2][2] = extra
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            img = [sum(P[a][i] * P[b][j] * c[a][b][k] for a in range(n) for b in range(n))
                   for k in range(n)]
            for k in range(n):
                out[i][j][k] = sum(Pinv[k][a] * img[a] for a in range(n))
    return StructureTensor(n, tuple(tuple(tuple(row) for row in plane) for plane in out))


def _dense_pairs(rnd):
    pairs = {2: [], 3: [], 4: []}
    for name in PLSA_NAMES:
        prec, succ = catalog_get(name).payload
        pairs[2].append((name, (prec, succ)))
        for copy in range(2):
            while True:
                P = [[rnd.choice(DENSE_VALUES) for _ in range(3)] for _ in range(3)]
                Pinv = _inverse(P)
                if Pinv is not None:
                    break
            pairs[3].append(("%s+e3/%d" % (name, copy),
                             (_moved(prec, Fraction(0), P, Pinv),
                              _moved(succ, Fraction(1), P, Pinv))))
        double, _, _, _ = bialgebra.drinfeld_double((prec, succ),
                                                    bialgebra.zero_coproducts(2))
        pairs[4].append((name + "-d4", double))
    return pairs


def _dense_job(tag, pair, r):
    def run():
        bialgebra.R_operators(pair, r)  # direct and closed-form routes, cross-asserted
        cp = bialgebra.coboundary_coproducts(pair, r)
        coalg = bialgebra.plsca_check(cp)
        cond = bialgebra.coboundary_conditions(pair, r)
        compat = bialgebra.plsba_check(pair, cp) if coalg.verdict else None
        return cp, coalg, cond, compat

    return Job("cb/" + tag, len(r), run, list)


def coboundary_dense(seed, workdir, full=False):
    """Dense random r over product pairs of dims 2, 3 and 4; each job runs
    the operator routes, the coboundary coproducts, the coalgebra check, the
    closure conditions and, when the coalgebra check passes, the bialgebra
    compatibility check."""
    del workdir
    pool = random.Random(POOL_SEED)
    pairs = _dense_pairs(pool)
    rnd = random.Random(seed)
    jobs, inputs = [], []
    for dim in (2, 3, 4):
        size, draw = DENSE_POOL[dim]
        for name, pair in pairs[dim]:
            rs = [tuple(tuple(pool.choice(DENSE_VALUES) for _ in range(dim))
                        for _ in range(dim)) for _ in range(size)]
            for idx in (range(size) if full else sorted(rnd.sample(range(size), draw))):
                jobs.append(_dense_job("%s/r%d" % (name, idx), pair, rs[idx]))
                inputs += [pair[0], pair[1], rs[idx]]
    return Workload("coboundary-dense", jobs, lambda: inputs)


WORKLOADS = {
    "double-chain": double_chain,
    "family-grid": family_grid,
    "coboundary-dense": coboundary_dense,
}
