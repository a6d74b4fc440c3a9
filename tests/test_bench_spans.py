"""The benchmark's traced run (bench/layers.py) wraps marnsim functions
at the names their callers look them up by, listed in ``SPANS``.  A name
that no longer resolves makes the traced run fail when it installs its
wrappers, so these tests read ``SPANS`` as it is and check each entry.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from marnsim import schemes
from marnsim.airlink import make_psk
from marnsim.rx_ic import symbol_spec

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))  # layers.py imports its sibling oracles.py
    try:
        spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_every_span_resolves(layers):
    spans = layers.SPANS.items()
    assert not [name for name, (owner, attr) in spans if not callable(getattr(owner, attr, None))]


def test_ml_decode_batch_takes_the_traced_arguments():
    # The decoder hook unpacks (obs, h, r, scale, spec, const) positionally.
    params = list(inspect.signature(schemes.ml_decode_batch).parameters.values())
    assert [p.name for p in params] == ["obs", "h", "r", "scale", "spec", "c"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)


def test_tracer_installs_and_checks_the_decoder(layers):
    before = {name: getattr(owner, attr) for name, (owner, attr) in layers.SPANS.items()}
    tracer = layers.Tracer()
    tracer.install()
    try:
        rng = np.random.default_rng(0)
        h = rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2))
        obs = h @ np.array([1.0, -1.0]) + 0.1 * rng.standard_normal((5, 4))
        r = np.broadcast_to(np.eye(4, dtype=complex), (5, 4, 4))
        out = schemes.ml_decode_batch(obs, h, r, 1.0, symbol_spec(2), make_psk(2))
    finally:
        tracer.uninstall()
    assert out.shape == (5, 2)
    assert tracer.ml_rows > 0 and tracer.ml_mismatches == 0 and not tracer.problems
    assert all(getattr(owner, attr) is before[name] for name, (owner, attr) in layers.SPANS.items())
