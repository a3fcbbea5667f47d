"""Dynamic edge weights: epochs, incremental repair, live swap support.

Road networks change metric (travel times) far more often than topology.
This package keeps the repo's query indexes current across **weight
epochs** without from-scratch preprocessing:

- :mod:`repro.dynamic.epochs` — immutable per-epoch weight arrays over
  the one frozen CSR topology, fingerprint-versioned;
- :mod:`repro.dynamic.cch` — a customizable contraction hierarchy
  scaffold: metric-independent shortcut topology built once, then
  (re-)customised per epoch, incrementally where damage is local;
- :mod:`repro.dynamic.repair` — :class:`DynamicState`, the per-technique
  repair orchestrator (CH, hub labels, TNR, plain weight views) with a
  from-scratch comparator for the differential correctness suite.

The serving integration (a background repair thread, then an atomic
epoch flip between micro-batches) lives in :mod:`repro.serve.service`.
"""

from repro.dynamic.cch import CCHScaffold
from repro.dynamic.epochs import (
    WeightEpoch,
    arc_ids,
    changed_endpoints,
    next_epoch,
    reweight_graph,
    validate_batch,
)
from repro.dynamic.repair import (
    REPAIRABLE,
    DynamicState,
    RepairReport,
    build_labels_flat,
)

__all__ = [
    "CCHScaffold",
    "DynamicState",
    "RepairReport",
    "REPAIRABLE",
    "WeightEpoch",
    "arc_ids",
    "build_labels_flat",
    "changed_endpoints",
    "next_epoch",
    "reweight_graph",
    "validate_batch",
]
