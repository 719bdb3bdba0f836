"""Nonlocal correlations of two-qubit states under noisy channels.

Library surface: state constructors and validation (states), the four
correlation measures and hierarchy classifier (measures), the three channel
families as one Kraus table, ``FAMILIES[name](q)`` reading one row of it
(channels), closed-form Werner decay curves (werner_analytic),
critical-strength solvers and the region map (thresholds), and the seeded
Monte-Carlo hierarchy experiment (sampling). The ``qnl`` command exposes all
of it on the command line.

The package exports what a user calls. The Werner closed forms and the
experiment's MEMS generator ``sampling.sample_mems_above_gisin`` are read
through their modules, as the region map and the tests read them.
"""

from .channels import FAMILIES, apply_channel, channel_family
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
    classify,
    concurrence,
    fidelity,
)
from .sampling import (
    HierarchyResult,
    SamplerConfig,
    hierarchy_experiment,
    write_records_csv,
)
from .states import (
    DensityMatrix,
    MemsWeights,
    bell_singlet,
    load_state,
    mems,
    werner,
)
from .thresholds import (
    ThresholdSet,
    hierarchy_check,
    scan,
    threshold_set,
    werner_region,
)

__version__ = "0.1.0"
