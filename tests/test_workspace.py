"""The retained workspace of the scheme kernels.

``simulate_batch`` runs every IC row in the calling thread's workspace,
kept while batches repeat its (scheme, J, M, N, order, n) key.  These
tests check that reuse, replacement and concurrency leave every
decision bitwise as a fresh run makes it, that concurrent_joint and a
key change free the old buffers, and that a steady-state batch holds no
more memory than the kernels did before they retained any.
``python tests/test_workspace.py`` prints, per IC row at (2,4,3) with
4096-trial chunks, the steady-state time and minor page faults per chunk
and the retained megabytes.
"""

import gc
import multiprocessing
import resource
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from marnsim.airlink import NetworkConfig, RngStream, make_psk
from marnsim.harness import CHUNK_TRIALS, COMPARISON_ORDERS
from marnsim.schemes import SchemeId, retained_workspace, simulate_batch, simulate_chunk

IC_ROWS = [s for s in SchemeId if s is not SchemeId.ConcurrentJoint]

# tracemalloc peak of one 4096-trial (2,4,3) batch, in MB, of each IC row
# before the kernels retained a workspace (each scheme at its fig8 order).
FRESH_PEAK_MB = {
    SchemeId.DstcIcRec: 14.0,
    SchemeId.TdmaIcRec: 9.2,
    SchemeId.IcRelayTdma: 9.1,
    SchemeId.FullTdmaDstc: 13.5,
    SchemeId.DecodeRelayIcDest: 9.2,
}


def _batch(args):
    """(errors, bad) of one batch; args (scheme value, (J, M, N), order, P,
    stream id, n)."""
    scheme, cfg3, order, P, stream_id, n = args
    cfg, const = NetworkConfig(*cfg3, P), make_psk(order)
    return simulate_batch(SchemeId(scheme), cfg, const, RngStream(17, stream_id), n)


def _in_new_thread(fn, *args):
    """fn(*args) in a thread of its own, whose workspace slot starts empty."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn(*args)))
    t.start()
    t.join(timeout=120)
    assert not t.is_alive() and len(out) == 1
    return out[0]


def _alone(args):
    return _in_new_thread(_batch, args)


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _buffers(ws):
    """Weak references to a workspace and to each of its stores."""
    return [weakref.ref(ws)] + [weakref.ref(store) for store in ws.stores.values()]


def test_consecutive_batches_equal_fresh_processes():
    # Each row's second batch reuses the pages its first wrote: nothing
    # stale leaks.  Every batch of the reference runs in a new process.
    batches = [(s.value, (2, 4, 3), COMPARISON_ORDERS[s], 10.0, k, 512) for s in IC_ROWS for k in (1, 2)]
    here = []
    for b in batches:
        here.append(_batch(b))
        assert retained_workspace().key == (SchemeId(b[0]), 2, 4, 3, b[2], 512)
    with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=1) as pool:
        fresh = pool.map(_batch, batches, chunksize=1)
    for h, f in zip(here, fresh):
        assert _same(h, f)


@pytest.mark.parametrize(
    "a,b",
    [
        ((SchemeId.DstcIcRec, (2, 4, 3), 4, 300), (SchemeId.DstcIcRec, (3, 3, 4), 2, 129)),
        ((SchemeId.TdmaIcRec, (2, 4, 3), 8, 300), (SchemeId.TdmaIcRec, (1, 2, 2), 16, 64)),
        ((SchemeId.FullTdmaDstc, (2, 4, 3), 16, 256), (SchemeId.IcRelayTdma, (3, 3, 4), 4, 200)),
        ((SchemeId.DecodeRelayIcDest, (2, 2, 3), 8, 100), (SchemeId.DstcIcRec, (1, 3, 2), 2, 333)),
    ],
)
def test_interleaved_keys_equal_each_alone(a, b):
    # A, B, A: B replaces A's buffers and A then allocates anew.
    runs = [(s.value, cfg3, order, 10.0, k, n) for k, (s, cfg3, order, n) in enumerate([a, b, a])]
    for run in runs:
        assert _same(_batch(run), _alone(run))


def test_joint_row_and_key_change_free_the_old_buffers():
    _batch((SchemeId.DstcIcRec.value, (2, 4, 3), 4, 10.0, 0, 256))
    old = _buffers(retained_workspace())
    _batch((SchemeId.ConcurrentJoint.value, (2, 2, 3), 2, 10.0, 1, 16))
    assert retained_workspace() is None
    assert all(ref() is None for ref in old)

    _batch((SchemeId.TdmaIcRec.value, (2, 4, 3), 8, 10.0, 2, 256))
    old = _buffers(retained_workspace())
    _batch((SchemeId.TdmaIcRec.value, (2, 4, 3), 8, 10.0, 3, 255))  # a resample-sized batch
    assert retained_workspace().key[-1] == 255
    assert all(ref() is None for ref in old)


def test_concurrent_threads_equal_serial():
    # More threads than cores, switching often: two keys, each run by two
    # threads at once on different streams, so a workspace shared between
    # threads would mix their batches.
    runs = [
        (SchemeId.DstcIcRec.value, (2, 4, 3), 4, 10.0, 0, 256),
        (SchemeId.TdmaIcRec.value, (2, 4, 3), 8, 10.0, 1, 256),
        (SchemeId.DstcIcRec.value, (2, 4, 3), 4, 10.0, 2, 256),
        (SchemeId.TdmaIcRec.value, (2, 4, 3), 8, 10.0, 3, 256),
    ]
    serial = [_alone(run) for run in runs]
    got, rounds = [[] for _ in runs], 6
    start = threading.Barrier(len(runs))

    def work(i):
        start.wait(timeout=60)
        for _ in range(rounds):
            got[i].append(_batch(runs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(runs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, results in zip(serial, got):
        assert len(results) == rounds and all(_same(r, want) for r in results)


def _steady_state(scheme):
    """(retained bytes, tracemalloc peak of the third batch, traced growth
    from the end of the second batch to the end of the third) of 4096-trial
    batches at (2,4,3), in a thread whose slot starts empty."""
    cfg, const = NetworkConfig(2, 4, 3, 100.0), make_psk(COMPARISON_ORDERS[scheme])

    def run():
        simulate_batch(scheme, cfg, const, RngStream(5, 0), CHUNK_TRIALS)
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
        return retained_workspace().nbytes, peak, third - second

    return _in_new_thread(run)


@pytest.mark.parametrize("scheme", IC_ROWS)
def test_retained_plus_transient_within_fresh_peak(scheme):
    retained, peak, growth = _steady_state(scheme)
    assert retained > 0
    assert (retained + peak) / 1e6 <= FRESH_PEAK_MB[scheme]
    # Garbage that awaits the cycle collector moves by a few hundred bytes per
    # batch; a kept array would be at least one float64 per trial.
    assert growth < 8 * CHUNK_TRIALS


def table():
    """Rows of (scheme, ms per chunk, minor faults per chunk, retained MB)
    for steady-state 4096-trial simulate_chunk calls at (2,4,3)."""
    rows = []
    for scheme in IC_ROWS:
        cfg, const = NetworkConfig(2, 4, 3, 100.0), make_psk(COMPARISON_ORDERS[scheme])
        for k in range(3):
            simulate_chunk(scheme, cfg, const, RngStream(7, k), CHUNK_TRIALS)
        chunks, times = 20, []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for k in range(chunks):
            t0 = time.perf_counter()
            simulate_chunk(scheme, cfg, const, RngStream(7, 3 + k), CHUNK_TRIALS)
            times.append(time.perf_counter() - t0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        ms = 1e3 * float(np.median(times))
        rows.append((scheme.value, ms, faults / chunks, retained_workspace().nbytes / 1e6))
    return rows


if __name__ == "__main__":
    print("| row | ms per chunk | minor faults per chunk | retained MB |")
    print("|---|---|---|---|")
    for name, ms, faults, mb in table():
        print(f"| `{name}` | {ms:.1f} | {faults:.1f} | {mb:.2f} |")
    print("\nSteady-state 4096-trial chunks at (2,4,3), each row at its fig8 PSK order; median of 20.")
