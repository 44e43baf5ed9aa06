"""Failing inputs at the dimensions the iterated doubles reach: the 16- and
32-dimensional product pairs of the Drinfeld double chain of plsa-2d-IV,
with one entry of prec bumped by 1 or by 2**70.  The list-built tensor and
the tensor built from its dense entries give identical reports; at dim 16
both equal the sparse plain-loop oracles.  The chain's 16 -> 32 double
builds no dense view of any StructureTensor or RepTensor.  No Hypothesis:
each input is fixed."""

import hashlib

import pytest

from symplie.bialgebra import CoproductPair, drinfeld_double, zero_coproducts
from symplie.catalog import catalog_get
from symplie.checks import CheckReport, StructureTensor, check_plsa, op_add, st
from symplie.matched import check_matched_pair, dual_actions

from oracles import bimodule_sparse, left_symmetric_sparse, mixed_compat_sparse, plsa_compat_sparse
from test_checks import _plsa_oracle_report
from test_matched import _oracle_report


@pytest.fixture(scope="module")
def chain():
    """{dim: (pair, coproduct pair)} of the Drinfeld doubles 2 -> 32."""
    pair, cp = catalog_get("plsa-2d-IV").payload, zero_coproducts(2)
    out = {}
    while pair[0].n < 32:
        pair, _, cp, _ = drinfeld_double(pair, cp)
        out[pair[0].n] = pair, cp
    return out


@pytest.mark.parametrize("n", (16, 32))
@pytest.mark.parametrize("bump", (1, 1 << 70), ids=("1", "2**70"))
def test_bumped_prec(chain, n, bump):
    (prec, succ), cp = chain[n]
    listed = op_add(prec, st(n, {(0, n - 1, n // 2): bump}))
    reports = [(check_plsa(t, succ), check_matched_pair(dual_actions((t, succ), cp.dual)))
               for t in (listed, StructureTensor(n, listed.c))]
    assert reports[0] == reports[1]
    plsa_rep, matched_rep = reports[0]
    assert not plsa_rep.verdict and not matched_rep.verdict
    if n == 16:
        assert plsa_rep == _plsa_oracle_report(listed.c, succ.c, left_symmetric_sparse,
                                               plsa_compat_sparse)
        assert matched_rep == _oracle_report(dual_actions((listed, succ), cp.dual),
                                             mixed_compat_sparse, bimodule_sparse)


# sha256 of the 32-dim double's prec, succ, alpha and beta entries, written
# as in _entries_digest, recorded when every tensor was stored dense
DOUBLE_32 = "a0919b137f7f40f114616e3341b6317c418deb2c475ac8e0aeed7a082698e09e"


def _entries_digest(*tensors):
    text = "|".join(" ".join(str(x) for plane in t for row in plane for x in row)
                    for t in tensors)
    return hashlib.sha256(text.encode()).hexdigest()


def test_16_to_32_double_builds_no_dense_view(chain, monkeypatch, refuse_dense_views):
    (prec, succ), cp = chain[16]
    # fresh objects, so nothing the chain kept on its own is reused
    pair = tuple(StructureTensor.listed(16, op.nonzeros) for op in (prec, succ))
    cp = CoproductPair(16, cp.alpha, cp.beta)
    refuse_dense_views()
    pair_d, _, cp_d, rep = drinfeld_double(pair, cp)
    assert rep == CheckReport("double", True, (), (
        "plsca: dual product-pair route agrees (pass)",
        "plsba: matched-pair route agrees (pass)"))
    monkeypatch.undo()
    assert _entries_digest(pair_d[0].c, pair_d[1].c, cp_d.alpha, cp_d.beta) == DOUBLE_32
