"""Experiment serving: the long-lived, sharded, batched API layer.

The paper's methodology is a bag of independent (experiment,
processor-count) points; everything below this package — the DES, the
sweep runner, the result cache, fault campaigns, observability — makes
one such point a pure, cacheable function of its arguments.  This
package turns that substrate into a *service* (``ksr-serve``):

* :mod:`repro.service.cache2` — the result cache every tool shares:
  sharded (two-level digest fan-out), size-capped and pinnable.
* :mod:`repro.service.backends` — execution backends behind one
  protocol (inline, persistent process pool; the fleet client is the
  third) and the one per-job runner over them.
* :mod:`repro.service.batching` — fan-out slicing, admission pricing
  and identical-request coalescing.
* :mod:`repro.service.quotas` — per-tenant token buckets and
  stride-scheduled weighted fair share.
* :mod:`repro.service.scheduler` — the one scheduler: bounded,
  tenant-aware queueing with reject-with-retry-after overload
  behaviour.
* :mod:`repro.service.app` / :mod:`repro.service.cli` — the one HTTP/JSON
  app and the ``ksr-serve`` command line.
* :mod:`repro.service.fleet` — the federated tier: the fleet-client
  backend a coordinator app runs on, worker shards with consistent-hash
  routing and cache replication, and the ``--loadgen`` harness.

A daemon and a fleet coordinator are the same app and scheduler; they
differ only in the backend the per-job runner executes on (a local
backend over the daemon's cache, or the fleet client) and in the
status section that substrate reports.

Responses are byte-identical to the equivalent ``ksr-experiments`` /
``ksr-faults`` output: serving changes *where* points compute, never
*what* they compute.
"""

from repro.service.backends import (
    Backend,
    BackendSweepRunner,
    InlineBackend,
    ProcessPoolBackend,
    make_backend,
)
from repro.service.batching import JobTable, estimate_points, split_batches
from repro.service.cache2 import ShardedResultCache
from repro.service.jobs import JobSpec, ServiceError
from repro.service.quotas import TenantPolicy
from repro.service.scheduler import Job, RejectedError, Scheduler

__all__ = [
    "Backend",
    "BackendSweepRunner",
    "InlineBackend",
    "Job",
    "JobSpec",
    "JobTable",
    "ProcessPoolBackend",
    "RejectedError",
    "Scheduler",
    "ServiceError",
    "ShardedResultCache",
    "TenantPolicy",
    "estimate_points",
    "make_backend",
    "split_batches",
]
