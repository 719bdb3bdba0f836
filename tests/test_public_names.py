"""The public surface of ``qnl``: its non-module names, pinned.

Adding or removing an export changes this list, so it shows up in review as a
deliberate diff. CI reports the same count next to the line count of src/qnl.
"""

import types

import qnl

PUBLIC_NAMES = [
    "BadGrid", "DensityMatrix", "FAMILIES", "GISIN_BOUND", "HierarchyClass",
    "HierarchyResult", "InvalidTolerance", "Measure", "MeasureReport",
    "MemsWeights", "NotHermitian", "NotPSD", "QOutOfRange", "QnlError",
    "RejectionStall", "SamplerConfig", "ThresholdSet", "TraceNotOne",
    "apply_channel", "bell_singlet", "channel_family", "classify", "concurrence",
    "fidelity", "hierarchy_check", "hierarchy_experiment", "load_state", "mems",
    "scan", "threshold_set", "werner", "werner_region", "write_records_csv",
]


def test_public_non_module_names():
    names = sorted(
        name for name in dir(qnl)
        if not name.startswith("_") and not isinstance(getattr(qnl, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
