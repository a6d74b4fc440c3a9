"""Walkthrough: from raw relay signals to a clean per-source decision.

Builds one random two-source network with a 2-antenna relay and a
3-antenna destination, runs the concurrent-uplink pipeline step by step
on the simulator's own stages (one draw is a batch of one), and prints
the intermediate objects: the distributed codeword, the equivalent
channel as Alamouti pairs and as the dense blocks they stand for, each
source's post-IC gain from the Schur complement of the other, and the
final PSK-slicer decisions.

Run:  python3 demos/alamouti_ic_walkthrough.py
"""

import math

import numpy as np

from marnsim.airlink import NetworkConfig, RngStream, draw_channels_batch, make_psk, modulate
from marnsim.relay_codec import apply_design, dstc_design, dstc_power_scale
from marnsim.rx_ic import (
    dstc_channel_stacks,
    forwarded_inverse,
    gram_pairs,
    pair_blocks,
    psk_slicer,
    recombine,
    schur_pairs,
)

cfg = NetworkConfig(J=2, M=2, N=3, P=10.0 ** (20 / 10))  # 20 dB transmit SNR
rng = RngStream(seed=7)
c = make_psk(2)

F, G = draw_channels_batch(cfg, rng, 1)  # one draw: (1, M, J) and (1, M, N)
print("first-hop channels F (M x J):\n", np.round(F[0], 3))
print("second-hop channels G (M x N):\n", np.round(G[0], 3))

# Sources transmit simultaneously; the relay hears a superposition.
design = dstc_design(cfg.M)
bits = rng.bits(cfg.J * design.T)
symbols = modulate(bits, c).reshape(cfg.J, design.T)
uplink_noise = rng.substream(0).complex_normal(cfg.M, design.T)
received = np.sqrt(cfg.P) * F[0] @ symbols + uplink_noise

# The relay applies per-antenna linear transforms; no decoding, no
# backward CSI needed.
scale = dstc_power_scale(cfg.P, cfg.M, cfg.J)
codeword = scale * apply_design(design, received)
print("\ndistributed codeword t (M x T):\n", np.round(codeword, 3))
print(f"power scale c = {scale:.4f}")

# Destination observes G^T-mixed slots plus noise, then conjugates the
# even slots to expose Alamouti structure: one observation pair (u, v)
# per destination antenna, like the channel's.
downlink_noise = rng.substream(1).complex_normal(cfg.N, design.T)
raw = G[0].T @ codeword + downlink_noise
obs = recombine(raw[..., None], design.T)  # (split, (u, v), antenna, trial)
pairs = dstc_channel_stacks(F, G)  # (split, (a, b), antenna, source, trial)
[blocks] = pair_blocks(pairs, design.T)
print("\nequivalent channel: one pair (a, b) per source and destination antenna,")
print("standing for the Alamouti block [[a, -conj(b)], [b, conj(a)]]; stacked, 2N x 2 per source:")
for j in range(cfg.J):
    print(f"  source {j} pairs (a, b):\n", np.round(pairs[0, :, :, j, 0].T, 3))
    print(f"  source {j} blocks:\n", np.round(blocks[0, j], 3))

# One Gram system of both sources, whitened by the inverse covariance of
# the forwarded relay noise plus the destination noise.  Zero-forcing IC
# of a target is the Schur complement of the other source's block: its
# Gram is then a real multiple gamma I, so a PSK slicer decides.
p, q = gram_pairs(pairs[0], obs[0], forwarded_inverse(np.moveaxis(G, 0, -1), scale, 1.0))
amp = math.sqrt(cfg.P) * scale  # symbol amplitude at the destination
decided_bits = []
for j in range(cfg.J):
    w, gamma = schur_pairs(p, q, j, design.T)
    print(f"\ntarget {j}: post-IC gain gamma = {amp * amp * gamma[0]:.3f}")
    idx = psk_slicer(amp * w, amp * amp * gamma[None], c)
    decided_bits.append(c.labels[idx[0]].reshape(-1))

print("\nsent bits:   ", bits.reshape(cfg.J, design.T).tolist())
print("decided bits:", [b.tolist() for b in decided_bits])
