"""Nonlocal correlations of two-qubit states under noisy channels.

Library surface: state constructors and validation (states), the four
correlation measures and hierarchy classifier (measures), Kraus channel
families (channels), closed-form Werner decay curves (werner_analytic),
critical-strength solvers and the region map (thresholds), and the seeded
Monte-Carlo hierarchy experiment (sampling). The ``qnl`` command exposes all
of it on the command line.
"""

from .channels import (
    FAMILIES,
    KrausChannel,
    Side,
    amplitude_damping,
    apply_channel,
    channel_family,
    depolarizing,
    phase_damping,
)
from .errors import (
    BadGrid,
    InvalidTolerance,
    NotHermitian,
    NotPSD,
    QnlError,
    QOutOfRange,
    RejectionStall,
    TraceNotOne,
)
from .measures import (
    GISIN_BOUND,
    HierarchyClass,
    Measure,
    MeasureReport,
    bell_parameter,
    classify,
    concurrence,
    concurrence_unclamped,
    correlation_matrix,
    fidelity,
    gisin_bound,
    n_value,
    spin_flip,
)
from .sampling import (
    HierarchyRecord,
    SamplerConfig,
    gaps_of,
    hierarchy_experiment,
    sample_mems_above_gisin,
    sample_weights,
    write_records_csv,
)
from .states import (
    DensityMatrix,
    MemsWeights,
    bell_singlet,
    load_state,
    mems,
    save_state,
    validate,
    werner,
)
from .thresholds import (
    ThresholdSet,
    critical_q,
    hierarchy_check,
    scan,
    threshold_set,
    werner_region,
)
from .werner_analytic import (
    bell_ad,
    bell_ad_branches,
    boundary_q_c,
    concurrence_ad,
    concurrence_ad_unclamped,
    fidelity_ad,
)

__version__ = "0.1.0"
