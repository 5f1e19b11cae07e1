"""The serving layer: a resident, multi-tenant GX-Plug deployment.

Where :func:`repro.api.deploy` is a one-shot (build, run, tear down),
this package keeps the middleware warm: graphs stay loaded in a
versioned :class:`GraphStore`, tenant jobs queue through admission
control, a fair-share scheduler time-slices the daemon pool across
them at superstep granularity, and a version-keyed :class:`ResultCache`
answers repeated queries at lookup cost.  :class:`GraphService` is the
facade tying the four pieces together.

The service is crash-safe when given a journal path: the write-ahead
:class:`JobJournal` records every lifecycle transition, and
``GraphService.recover(path)`` rebuilds a crashed service by idempotent
replay, resuming in-flight jobs from their last durable checkpoint.

:class:`GraphServiceServer` puts the service on a socket (JSONL over
TCP, versioned frames, session leases, graceful drain) and
:class:`GraphClient` is its fault-tolerant counterpart (timeouts,
backoff reconnects, heartbeats, idempotent resubmit).
"""

from .cache import CACHE_LOOKUP_MS, CachedResult, ResultCache, params_fingerprint
from .job import ALGORITHMS as JOB_ALGORITHMS
from .job import (
    CANCELLED,
    DONE,
    ENGINES as JOB_ENGINES,
    FAILED,
    PENDING,
    QUARANTINED,
    RUNNING,
    Job,
    JobSpec,
)
from .journal import (
    JOURNAL_VERSION,
    JobJournal,
    read_journal,
    replay_journal,
)
from .client import GraphClient
from .queue import AdmissionControl, JobQueue, ResourceUsage
from .scheduler import FairShareLedger, FairShareScheduler, RunningJob
from .service import GraphService
from .store import GraphSnapshot, GraphStore, StoredGraph
from .wire import (
    FRAME_SCHEMA,
    PROTOCOL_VERSION,
    GraphServiceServer,
    WireCounters,
    decode_values,
    encode_values,
    validate_frame,
)

__all__ = [
    "GraphService",
    "GraphStore",
    "GraphSnapshot",
    "StoredGraph",
    "ResultCache",
    "CachedResult",
    "CACHE_LOOKUP_MS",
    "params_fingerprint",
    "JobSpec",
    "Job",
    "JOB_ALGORITHMS",
    "JOB_ENGINES",
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "QUARANTINED",
    "JobJournal",
    "JOURNAL_VERSION",
    "read_journal",
    "replay_journal",
    "AdmissionControl",
    "JobQueue",
    "ResourceUsage",
    "FairShareScheduler",
    "FairShareLedger",
    "RunningJob",
    "GraphServiceServer",
    "GraphClient",
    "WireCounters",
    "PROTOCOL_VERSION",
    "encode_values",
    "decode_values",
    "FRAME_SCHEMA",
    "validate_frame",
]
