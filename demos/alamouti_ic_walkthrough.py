"""Walkthrough: from raw relay signals to a clean per-source decision.

Builds one random two-source network with a 2-antenna relay and a
3-antenna destination, runs the concurrent-uplink pipeline step by step
on the simulator's own stages (one draw is a batch of one), and prints
the intermediate objects: the distributed codeword, the equivalent
Alamouti-structured channel stacks, the zero-forcing IC residuals, and
the final whitened-metric decisions.

Run:  python3 demos/alamouti_ic_walkthrough.py
"""

import math

import numpy as np

from marnsim.airlink import NetworkConfig, RngStream, draw_channels, make_psk, modulate
from marnsim.relay_codec import apply_design, dstc_design, dstc_power_scale
from marnsim.rx_ic import (
    dstc_channel_stacks,
    gtilde,
    ic_stack_batch,
    ml_decode_batch,
    noise_cov_forwarded,
    recombine,
    symbol_spec,
)

cfg = NetworkConfig(J=2, M=2, N=3, P=10.0 ** (20 / 10))  # 20 dB transmit SNR
rng = RngStream(seed=7)
c = make_psk(2)

ch = draw_channels(cfg, rng)
print("first-hop channels F (M x J):\n", np.round(ch.F, 3))
print("second-hop channels G (M x N):\n", np.round(ch.G, 3))

# Sources transmit simultaneously; the relay hears a superposition.
design = dstc_design(cfg.M)
bits = rng.bits(cfg.J * design.T)
symbols = modulate(bits, c).reshape(cfg.J, design.T)
uplink_noise = rng.substream(0).complex_normal(cfg.M, design.T)
received = np.sqrt(cfg.P) * ch.F @ symbols + uplink_noise

# The relay applies per-antenna linear transforms; no decoding, no
# backward CSI needed.
scale = dstc_power_scale(cfg.P, cfg.M, cfg.J)
codeword = scale * apply_design(design, received)
print("\ndistributed codeword t (M x T):\n", np.round(codeword, 3))
print(f"power scale c = {scale:.4f}")

# Destination observes G^T-mixed slots plus noise, then conjugates the
# even slots to expose Alamouti structure.
downlink_noise = rng.substream(1).complex_normal(cfg.N, design.T)
raw = np.einsum("it,in->nt", codeword, ch.G) + downlink_noise
obs = recombine(raw[None], design.T)
stacks = dstc_channel_stacks(ch.F[None], ch.G[None])
print("\nequivalent per-source channel stacks (2N x 2 each):")
for j in range(cfg.J):
    print(f"  source {j}:\n", np.round(stacks[0, j], 3))

# Zero-forcing IC: one matrix per target that annihilates the other
# source's stack while keeping the block (Alamouti) structure; the
# decoder whitens with the post-IC covariance of the forwarded relay
# noise plus the destination noise.
gt = gtilde(ch.G[None])
decided_bits = []
for j in range(cfg.J):
    bmat, _ = ic_stack_batch(stacks, target=j)
    other = stacks[0, 1 - j]
    print(f"\ntarget {j}: residual ||B h_other|| = {np.linalg.norm(bmat[0] @ other):.2e}")
    idx = ml_decode_batch(
        np.einsum("nrk,nk->nr", bmat, obs),
        bmat @ stacks[:, j],
        noise_cov_forwarded(gt, scale, 1.0, bmat),
        math.sqrt(cfg.P) * scale,
        symbol_spec(design.T),
        c,
    )
    decided_bits.append(c.labels[idx[0]].reshape(-1))

print("\nsent bits:   ", bits.reshape(cfg.J, design.T).tolist())
print("decided bits:", [b.tolist() for b in decided_bits])
