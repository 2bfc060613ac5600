"""Single-photon RDI QSDC simulator and secrecy-capacity analysis toolkit."""

from .adversary import (
    AttackOutcomeStats,
    BlindingAttackParams,
    detection_power,
    predict_attacked_distribution,
)
from .analysis import (
    CapacityParams,
    CapacityPoint,
    EfficiencyParams,
    ErrorBudget,
    OffsetModel,
    SweepColumns,
    binary_entropy,
    delta_theta_threshold,
    error_budget,
    eta_threshold,
    expected_stats,
    fidelity_pair,
    max_distance,
    offset_model,
    practical_efficiency,
    secrecy_capacity,
    sweep,
)
from .devices import ChannelNoiseModel, LinkBudget, LossSite
from .protocol import (
    Announcements,
    EstStat,
    MessageFrame,
    OffsetDistribution,
    ProtocolParams,
    ProtocolResult,
    ProtocolRun,
    ProtocolViolation,
    Round2Mode,
    SecurityCheckReport,
    SequenceLedger,
    TranscriptStats,
    hoeffding_tolerance,
    run_full_protocol,
    summary_record,
    write_transcript,
)
from .qstate import (
    BasisConfig,
    ChannelRotation,
    EncodeOp,
    Measurement,
    PureState,
    apply_encode,
    apply_rotation,
    born_p,
    outcome_probability,
    prepare,
    state_fidelity,
    states_close,
)
from .seeding import stream

__version__ = "0.1.0"
