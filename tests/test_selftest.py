"""The structural self-checks are live: a check fails when a kernel stage
it runs is broken, and every check passes on several seeds."""

import pytest

from marnsim import selftest
from marnsim.rx_ic import forwarded_inverse, schur_pairs


def test_noise_covariance_catches_wrong_kappa(monkeypatch):
    # R0^-1 built for the other split weight: 2 where one Alamouti system
    # needs 1, and 1 where the splits of the 4-slot codeword need 2.
    monkeypatch.setattr(selftest, "forwarded_inverse", lambda g, c, kappa: forwarded_inverse(g, c, 3.0 - kappa))
    ok, detail = selftest.check_noise_covariance(0)
    assert not ok and detail.startswith("AF")


def test_noise_covariance_catches_dropped_sigma(monkeypatch):
    # The estimate-and-forward target's own relay noise left out of IC.
    monkeypatch.setattr(selftest, "schur_pairs", lambda p, q, target, T, sigma=None: schur_pairs(p, q, target, T))
    ok, detail = selftest.check_noise_covariance(0)
    assert not ok and detail.startswith("EF")


def test_hermitian_diagonality_catches_scaled_gamma(monkeypatch):
    def scaled(*args):
        w, gamma = schur_pairs(*args)
        return w, gamma * (1.0 + 1e-6)

    monkeypatch.setattr(selftest, "schur_pairs", scaled)
    ok, detail = selftest.check_hermitian_diagonality(0)
    assert not ok and "gamma I" in detail


@pytest.mark.parametrize("seed", range(5))
def test_all_checks_pass(seed):
    assert len(selftest.ALL_CHECKS) == 6
    for name, check in selftest.ALL_CHECKS:
        ok, detail = check(seed)
        assert ok, f"{name}: {detail}"
