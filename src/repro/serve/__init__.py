"""Multi-worker query service: shared segments, pool, scheduler.

The serving subsystem turns the repo's batched distance endpoint
(:func:`repro.harness.experiments.batched_distances`) into a long-lived
multi-process service:

- :mod:`repro.serve.segments` publishes the frozen CSR graph and the
  built technique indexes into ``multiprocessing.shared_memory``
  segments described by a versioned manifest, so N workers map the
  same bytes instead of unpickling N copies;
- :mod:`repro.serve.pool` runs the persistent worker pool — each
  worker attaches the segments, rebuilds zero-copy numpy views of the
  indexes, and answers batched distance queries through the existing
  many-to-many / CSR kernel paths;
- :mod:`repro.serve.scheduler` micro-batches compatible requests,
  applies admission control (bounded queue, deadlines, typed
  :class:`~repro.serve.scheduler.Overloaded` rejects) and retries
  batches once when a worker dies;
- :mod:`repro.serve.service` ties them together behind
  :class:`~repro.serve.service.QueryService` and the
  ``repro-harness service {start,status,stats,clean}`` CLI.

See ``docs/SERVING.md`` for the architecture, the manifest format and
the failure semantics.
"""

from repro.serve.scheduler import (
    TECHNIQUE_BATCH_CAPS,
    BatchingScheduler,
    Overloaded,
    QueryFuture,
)
from repro.serve.segments import (
    SERVE_SCHEMA,
    AttachedRing,
    AttachedSegments,
    RingBuffers,
    SegmentError,
    SegmentSet,
    attach_segments,
    load_manifest,
    save_manifest,
)
from repro.serve.pool import RingFull, RingPool, build_techniques
from repro.serve.service import (
    KNOWN_TECHNIQUES,
    QueryService,
    ServiceConfig,
    build_payloads,
)

__all__ = [
    "AttachedRing",
    "AttachedSegments",
    "BatchingScheduler",
    "KNOWN_TECHNIQUES",
    "Overloaded",
    "QueryFuture",
    "QueryService",
    "RingBuffers",
    "RingFull",
    "RingPool",
    "SERVE_SCHEMA",
    "SegmentError",
    "SegmentSet",
    "ServiceConfig",
    "TECHNIQUE_BATCH_CAPS",
    "attach_segments",
    "build_payloads",
    "build_techniques",
    "load_manifest",
    "save_manifest",
]
