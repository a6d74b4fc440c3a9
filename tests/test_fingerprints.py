"""Decision fingerprints of every scheme kernel on fixed streams.

Each cell runs ``simulate_chunk`` for 256 trials and hashes its per-source
error counts and its erasure mask.  A refactor of the relay, IC,
covariance or decoder stages must keep every hash: a changed hash means
a decision (or an erasure) changed somewhere in that cell.  The stored
hashes are in ``fingerprints.json``; ``python tests/test_fingerprints.py``
prints the current ones in the same format.
"""

import hashlib
import json
import pathlib

import numpy as np

from marnsim.airlink import NetworkConfig, RngStream, make_psk
from marnsim.schemes import SchemeId, block_length, simulate_chunk

STORED = pathlib.Path(__file__).with_name("fingerprints.json")
CONFIGS = [(1, 2, 3), (1, 4, 3), (2, 2, 3), (2, 3, 3), (2, 4, 3), (3, 4, 3), (3, 3, 4)]
ORDERS = [2, 4, 16]
POWERS = [1.0, 10.0, 1000.0]
TRIALS = 256
MAX_JOINT_HYPOTHESES = 256


def _cells():
    """(name, scheme, (J, M, N), order, P) of every fingerprinted cell."""
    cells = []
    for scheme in SchemeId:
        for cfg3 in CONFIGS:
            for order in ORDERS:
                if scheme is SchemeId.ConcurrentJoint:
                    J, M, _ = cfg3
                    if order ** (J * block_length(scheme, J, M)) > MAX_JOINT_HYPOTHESES:
                        continue
                for P in POWERS:
                    name = f"{scheme.value}/{','.join(map(str, cfg3))}/{order}/{P:g}"
                    cells.append((name, scheme, cfg3, order, P))
    return cells


def _fingerprint(k, scheme, cfg3, order, P):
    errors, erased = simulate_chunk(
        scheme, NetworkConfig(*cfg3, P), make_psk(order), RngStream(2024, k), TRIALS
    )
    digest = hashlib.sha256(errors.astype("<i8").tobytes() + erased.astype(np.uint8).tobytes())
    return digest.hexdigest()[:16]


def fingerprints():
    return {cell[0]: _fingerprint(k, *cell[1:]) for k, cell in enumerate(_cells())}


def test_decisions_bitwise_unchanged():
    stored = json.loads(STORED.read_text())
    got = fingerprints()
    assert sorted(got) == sorted(stored)
    differ = [name for name in stored if got[name] != stored[name]]
    assert not differ, f"{len(differ)} of {len(stored)} cells changed: {differ}"


if __name__ == "__main__":
    print(json.dumps(fingerprints(), indent=1))
