"""The heap policy that importing ``numerics`` sets.

Every stage of the scheme kernels allocates its own temporaries, every
batch.  Under the policy, glibc keeps the blocks one batch frees for the
next, so a steady-state batch faults in almost no fresh pages, keeps no
memory, and peaks no higher than the kernels did before the policy.  The
measurements run in a spawned process, so no earlier test's heap counts.
Without the policy, or without ``mallopt``, the decisions are the same.
``python tests/test_heap_policy.py`` prints the steady-state time and
minor page faults per 4096-trial chunk of every row, and per 64-trial
chunk of the joint search at (2,4,3).
"""

import ctypes
import gc
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from marnsim import numerics
from marnsim.airlink import NetworkConfig, RngStream, make_psk
from marnsim.harness import CHUNK_TRIALS, COMPARISON_ORDERS
from marnsim.schemes import SchemeId, simulate_batch, simulate_chunk

IC_ROWS = [s for s in SchemeId if s is not SchemeId.ConcurrentJoint]
ROWS = IC_ROWS + [SchemeId.ConcurrentJoint]

# tracemalloc peak of one 4096-trial (2,4,3) batch, in MB, of each IC row
# as the kernels allocated before any buffer reuse (each scheme at its
# fig8 order).
FRESH_PEAK_MB = {
    SchemeId.DstcIcRec: 14.0,
    SchemeId.TdmaIcRec: 9.2,
    SchemeId.IcRelayTdma: 9.1,
    SchemeId.FullTdmaDstc: 13.5,
    SchemeId.DecodeRelayIcDest: 9.2,
}

# Minor page faults allowed per steady-state batch.  Without the policy
# each batch faults in thousands; a stray allocation of Python objects
# faults in a few.
MAX_FAULTS = 64

# tracemalloc peak of one 64-trial (2,4,3) concurrent_joint batch at QPSK,
# in MB: the search's candidate table and its complex scores.  Scoring by
# a three-operand einsum peaked at 181 MB.
JOINT_PEAK_MB = 160.0
JOINT_TRIALS = 64


def _cfg3(scheme):
    """Each row's steady-state (J, M, N): fig8's, or fig7's (2,2,3) for
    concurrent_joint, since a 4096-trial chunk of its (2,4,3) search does
    not fit in memory."""
    return (2, 2, 3) if scheme is SchemeId.ConcurrentJoint else (2, 4, 3)


def _faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _steady_state(scheme):
    """(minor faults per batch, tracemalloc peak of one batch, traced
    growth from the end of the 2nd batch to the end of the 3rd) of
    steady-state 4096-trial batches at the row's ``_cfg3``, each row at
    its fig8 PSK order."""
    cfg, const = NetworkConfig(*_cfg3(scheme), 100.0), make_psk(COMPARISON_ORDERS[scheme])
    for k in range(3):
        simulate_batch(scheme, cfg, const, RngStream(5, k), CHUNK_TRIALS)
    batches, before = 8, _faults()
    for k in range(batches):
        simulate_batch(scheme, cfg, const, RngStream(5, 3 + k), CHUNK_TRIALS)
    faults = (_faults() - before) / batches
    gc.collect()
    tracemalloc.start()
    try:
        simulate_batch(scheme, cfg, const, RngStream(5, 1), CHUNK_TRIALS)
        second = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        simulate_batch(scheme, cfg, const, RngStream(5, 2), CHUNK_TRIALS)
        third, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return faults, peak, third - second


def _steady_states():
    return {s.value: _steady_state(s) for s in ROWS}


@pytest.fixture(scope="module")
def steady():
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply_async(_steady_states).get(timeout=300)


@pytest.mark.parametrize("scheme", ROWS)
def test_steady_batches_fault_in_no_fresh_pages(steady, scheme):
    faults, _, _ = steady[scheme.value]
    assert faults < MAX_FAULTS


@pytest.mark.parametrize("scheme", IC_ROWS)
def test_steady_batches_keep_nothing_within_fresh_peak(steady, scheme):
    _, peak, growth = steady[scheme.value]
    assert peak / 1e6 <= FRESH_PEAK_MB[scheme]
    # Garbage that awaits the cycle collector moves by a few hundred bytes per
    # batch; a kept array would be at least one float64 per trial.
    assert growth < 8 * CHUNK_TRIALS


def test_joint_search_peak():
    scheme = SchemeId.ConcurrentJoint
    cfg, const = NetworkConfig(2, 4, 3, 100.0), make_psk(COMPARISON_ORDERS[scheme])
    gc.collect()
    tracemalloc.start()
    try:
        simulate_batch(scheme, cfg, const, RngStream(5, 0), JOINT_TRIALS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < JOINT_PEAK_MB


def test_libc_without_mallopt_is_left_alone():
    assert numerics._keep_heap(SimpleNamespace()) is False
    calls = []

    def refuse(param, value):
        calls.append((param, value))
        return 0

    assert numerics._keep_heap(SimpleNamespace(mallopt=refuse)) is False
    assert calls == list(numerics._HEAP_POLICY)  # each setting tried and checked


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_glibc_accepts_the_policy():
    assert numerics._keep_heap(ctypes.CDLL(None)) is True


# Runs in a fresh interpreter whose libc stand-in lacks mallopt, so the
# import sets no policy; prints the batch's (errors, bad) as hex.
_WITHOUT_POLICY = """
import ctypes, sys
import numpy as np
ctypes.CDLL = lambda *args, **kwargs: object()
from marnsim import numerics
from marnsim.airlink import NetworkConfig, RngStream, make_psk
from marnsim.schemes import SchemeId, simulate_batch
errors, bad = simulate_batch(SchemeId.DstcIcRec, NetworkConfig(2, 4, 3, 10.0), make_psk(4), RngStream(9, 3), 4096)
print(errors.tobytes().hex(), bad.tobytes().hex())
"""


def test_decisions_without_the_policy_are_the_same():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_POLICY], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    errors, bad = simulate_batch(SchemeId.DstcIcRec, NetworkConfig(2, 4, 3, 10.0), make_psk(4), RngStream(9, 3), 4096)
    assert errors.sum() > 0
    assert run.stdout.split() == [errors.tobytes().hex(), bad.tobytes().hex()]


def table():
    """Rows of (scheme, (J, M, N), trials, ms per chunk, minor faults per
    chunk) for steady-state simulate_chunk calls, each row at its fig8
    PSK order: 4096-trial chunks at the row's ``_cfg3``, then 64-trial
    chunks of concurrent_joint at (2,4,3)."""
    cases = [(s, _cfg3(s), CHUNK_TRIALS) for s in SchemeId]
    cases.append((SchemeId.ConcurrentJoint, (2, 4, 3), JOINT_TRIALS))
    rows = []
    for scheme, cfg3, trials in cases:
        cfg, const = NetworkConfig(*cfg3, 100.0), make_psk(COMPARISON_ORDERS[scheme])
        for k in range(3):
            simulate_chunk(scheme, cfg, const, RngStream(7, k), trials)
        chunks, times, before = 20, [], _faults()
        for k in range(chunks):
            t0 = time.perf_counter()
            simulate_chunk(scheme, cfg, const, RngStream(7, 3 + k), trials)
            times.append(time.perf_counter() - t0)
        rows.append((scheme.value, cfg3, trials, 1e3 * float(np.median(times)), (_faults() - before) / chunks))
    return rows


if __name__ == "__main__":
    print("| row | (J,M,N) | trials per chunk | ms per chunk | minor faults per chunk |")
    print("|---|---|---|---|---|")
    for name, cfg3, trials, ms, faults in table():
        print(f"| `{name}` | {cfg3} | {trials} | {ms:.1f} | {faults:.1f} |")
    print("\nSteady-state chunks, each row at its fig8 PSK order; median time of 20.")
