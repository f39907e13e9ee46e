"""Mapping-as-a-service: persistent pricing across runs and processes.

The evaluation engine (:mod:`repro.eval`) makes pricing fast *within* one
context; this package makes it persistent *across* them.  Two layers, each
usable on its own:

* :mod:`repro.service.store` — :class:`~repro.service.store.ResultStore`, an
  on-disk, atomically written, versioned cache of priced
  :class:`~repro.core.metrics.MetricVector`s keyed by the full pricing
  identity (model + platform + workload content hash + mapping digest).  A
  candidate priced once — by any process, in any run — is never priced again.
* :mod:`repro.service.daemon` / :mod:`repro.service.client` — the resident
  :class:`~repro.service.daemon.MappingDaemon` (warm route tables, warm
  kernels, warm memos, job queue) with an in-process
  :class:`~repro.service.client.ServiceBackend` that plugs into the ordinary
  ``backend=`` seam, and a Unix-socket
  :class:`~repro.service.client.ServiceClient` /
  :class:`~repro.service.client.ServiceServer` pair (see the ``tools/serve``
  CLI) for external processes.

Everything is bit-identical to :class:`~repro.eval.parallel.SerialBackend`
by construction: store entries round-trip floats exactly, misses are priced
by the same chunk arithmetic, and results are reassembled in submission
order.  :class:`~repro.analysis.comparison.ComparisonConfig` keeps its
``backend`` knob at ``None``, so the reproduced paper tables never touch the
service.  See ``docs/service.md`` for the full tour.
"""

from repro.service.client import ServiceBackend, ServiceClient, ServiceServer
from repro.service.daemon import (
    DEFAULT_MAX_CONTEXTS,
    JOB_MODELS,
    MAX_COLLECTED_JOBS,
    EvalJob,
    JobResult,
    MappingDaemon,
)
from repro.service.store import (
    STORE_VERSION,
    ResultStore,
    StoreCorruptionWarning,
    StoreStats,
    mapping_digest,
    platform_digest,
    scope_for_context,
    workload_digest,
)

__all__ = [
    "STORE_VERSION",
    "StoreCorruptionWarning",
    "StoreStats",
    "ResultStore",
    "mapping_digest",
    "platform_digest",
    "scope_for_context",
    "workload_digest",
    "ServiceBackend",
    "ServiceClient",
    "ServiceServer",
    "DEFAULT_MAX_CONTEXTS",
    "JOB_MODELS",
    "MAX_COLLECTED_JOBS",
    "EvalJob",
    "JobResult",
    "MappingDaemon",
]
