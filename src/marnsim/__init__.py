"""Link-level Monte Carlo simulator and analysis toolkit for multi-access
relay networks with distributed space-time coding and zero-forcing
interference cancellation at the receiver."""

from .airlink import (
    ChannelRealization,
    Constellation,
    NetworkConfig,
    RngStream,
    draw_channels,
    make_psk,
    modulate,
)
from .analysis import (
    DiversityEstimate,
    ber_slope,
    lemma1_composite,
    outage_diversity,
    snr_dstc_batch,
    snr_tdma_batch,
    snr_tdma_closed_form,
    snr_tdma_direct,
    snr_upper_bound_dstc,
)
from .harness import (
    BerPoint,
    ExperimentSpec,
    canned_spec,
    emit,
    parse_csv,
    run_diversity,
    run_experiment,
)
from .numerics import NumericError, Projector, UsageError, is_alamouti, null_space_projector
from .relay_codec import DstcDesign, apply_design, dstc_design
from .rx_ic import (
    ic_stack_batch,
    joint_search,
    ml_decode_batch,
    noise_cov_forwarded,
    recombine,
)
from .schemes import (
    SchemeId,
    SchemeMeta,
    int_free_condition,
    relay_forward_groups,
    relay_hard_decision,
    scheme_meta,
    simulate_batch,
    simulate_chunk,
)

__version__ = "0.1.0"
