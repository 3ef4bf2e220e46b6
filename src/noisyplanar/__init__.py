"""Simulator and protocol library for noisy random planar sensor networks.

Builds seeded random geometric worlds on the unit square, runs in-network
MAX/OR and histogram aggregation over a slotted protocol-model channel with
bounded binary-symmetric noise, and measures transmissions, time, energy,
and error probability against independent oracles.
"""

from .channel import (
    COLLIDED,
    RECEIVED,
    SILENT,
    Channel,
    EnergyConfig,
    Metrics,
    NoiseModel,
    ScheduleClass,
    color_cells,
    resolve_slot,
)
from .coding import (
    ERASED,
    BlockCode,
    CapacityError,
    DecodeFailure,
    LineProtocol,
    LineResult,
    LinkSimConfig,
    RepetitionScheme,
    SimGuarantee,
    TreeCode,
    majority_decode,
    or_chain,
    simulate_line,
    smallest_odd_at_least,
)
from .config import ConfigError, ExperimentConfig
from .geometry import (
    Cell,
    CellGrid,
    DerivedParams,
    NetworkInstance,
    ProtocolInfeasibleError,
    SpanningTree,
    assign_cells,
    build_tree,
    derive_params,
    place_nodes,
)
from .harness import (
    AuditReport,
    InfeasibleRunError,
    RunReport,
    SweepReport,
    TrialRun,
    audit_coloring,
    main,
    run_experiment,
    run_trial,
    sweep,
    validate_run,
    wilson_interval,
)
from .intercell import (
    CellArray,
    Substage,
    SubstagePlan,
    adder_chain,
    build_substages,
    count_bits_for,
    distribute_result,
    run_stage2_hist,
    run_stage2_max,
    stage2_cost,
)
from .intracell import (
    Stage1Config,
    Stage1Result,
    confirm_value,
    distribute_identity,
    run_stage1_hist,
    run_stage1_max,
    stage1_layout,
    witness_discovery,
)
from .oracle import oracle

__version__ = "0.1.0"
