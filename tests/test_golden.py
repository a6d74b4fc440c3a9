"""Fixed-seed regression pins for the end-to-end scheme kernels.

The totals below are the per-source bit-error sums of ``simulate_batch``
for every scheme on one fixed stream.  Any refactor of the kernels must
keep them bitwise: a change in a total means a decision changed.
"""

import pytest

from marnsim.airlink import NetworkConfig, RngStream, make_psk
from marnsim.harness import COMPARISON_ORDERS
from marnsim.schemes import SchemeId, simulate_batch

GOLDEN = {
    (2, 2, 3): {
        SchemeId.DstcIcRec: 549,
        SchemeId.TdmaIcRec: 307,
        SchemeId.IcRelayTdma: 639,
        SchemeId.FullTdmaDstc: 1054,
        SchemeId.DecodeRelayIcDest: 241,
        SchemeId.ConcurrentJoint: 215,
    },
    (2, 4, 3): {
        SchemeId.DstcIcRec: 375,
        SchemeId.TdmaIcRec: 391,
        SchemeId.IcRelayTdma: 320,
        SchemeId.FullTdmaDstc: 1794,
        SchemeId.DecodeRelayIcDest: 289,
        SchemeId.ConcurrentJoint: 13,
    },
}


def _order(scheme, cfg3):
    # The (2,4,3) joint search at QPSK needs 4^8 hypotheses per trial;
    # BPSK keeps the pin small.
    if scheme is SchemeId.ConcurrentJoint and cfg3 == (2, 4, 3):
        return 2
    return COMPARISON_ORDERS[scheme]


@pytest.mark.parametrize("cfg3", sorted(GOLDEN))
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_fixed_seed_totals(scheme, cfg3):
    cfg = NetworkConfig(*cfg3, 10.0)
    errors, bad = simulate_batch(scheme, cfg, make_psk(_order(scheme, cfg3)), RngStream(5, 77), 512)
    assert not bad.any()
    assert int(errors.sum()) == GOLDEN[cfg3][scheme]
