"""Job specifications and lifecycle records for the serving layer.

A :class:`JobSpec` is what a tenant submits: which stored graph, which
algorithm with which parameters, which engine, and how the run should
be configured — the :class:`~repro.core.config.MiddlewareConfig`
carries presets and fault plans exactly as it does for one-shot
``deploy()`` runs, so a tenant can (deliberately) submit a chaos job.

A :class:`Job` is the service-side record: queue timestamps, consumed
service time, the result or the failure, and whether the answer came
from the result cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..algorithms import ALGORITHMS
from ..core.config import MiddlewareConfig, StragglerConfig
from ..engines import ENGINES
from ..errors import ServeError
from ..fault import FaultPlan
from ..fault.inject import FaultEvent

# Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: exhausted its retry budget: poison — recorded reason, never retried
QUARANTINED = "quarantined"


@dataclass(frozen=True)
class JobSpec:
    """What a tenant asks for.  Immutable; validated at construction."""

    graph: str
    algorithm: str = "pagerank"
    params: Mapping[str, Any] = field(default_factory=dict)
    engine: str = "powergraph"
    tenant: str = "default"
    #: fair-share weight; higher priority drains faster (must be >= 1)
    priority: int = 1
    max_iterations: Optional[int] = None
    runtime: MiddlewareConfig = MiddlewareConfig()
    use_cache: bool = True
    #: submit-to-finish budget on the service clock; a job that blows
    #: it fails terminally with "deadline exceeded" (None = no deadline)
    deadline_ms: Optional[float] = None
    #: failed runs are retried (resuming from the last checkpoint) up
    #: to this many times before the job is quarantined as poison
    max_retries: int = 0
    #: base of the exponential retry backoff (doubles per attempt)
    retry_backoff_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ServeError(
                f"unknown algorithm {self.algorithm!r}; "
                f"one of {sorted(ALGORITHMS)}")
        if self.engine not in ENGINES:
            raise ServeError(
                f"unknown engine {self.engine!r}; one of {sorted(ENGINES)}")
        if self.priority < 1:
            raise ServeError(
                f"priority must be >= 1, got {self.priority}")
        if self.deadline_ms is not None and not (
                isinstance(self.deadline_ms, (int, float))
                and not isinstance(self.deadline_ms, bool)
                and self.deadline_ms > 0):
            raise ServeError(
                f"deadline_ms must be a positive number, "
                f"got {self.deadline_ms!r}")
        if not isinstance(self.max_retries, int) \
                or isinstance(self.max_retries, bool) \
                or self.max_retries < 0:
            raise ServeError(
                f"max_retries must be an int >= 0, "
                f"got {self.max_retries!r}")
        if not isinstance(self.retry_backoff_ms, (int, float)) \
                or isinstance(self.retry_backoff_ms, bool) \
                or self.retry_backoff_ms < 0:
            raise ServeError(
                f"retry_backoff_ms must be a number >= 0, "
                f"got {self.retry_backoff_ms!r}")

    def build_algorithm(self):
        """Instantiate the algorithm with this spec's parameters.

        Lists become tuples first (the JSON jobs file can only spell
        tuples as lists; templates want hashable tuples for e.g.
        ``sources``).
        """
        params = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in dict(self.params).items()}
        try:
            return ALGORITHMS[self.algorithm](**params)
        except TypeError as exc:
            raise ServeError(
                f"bad params for {self.algorithm!r}: {exc}") from None

    def engine_cls(self):
        return ENGINES[self.engine]

    def cache_params(self) -> Dict[str, Any]:
        """The parameter mapping the result cache fingerprints.

        Algorithm params plus everything else that can change the
        *answer*: the engine (iteration semantics differ) and the
        iteration cap.  Tenant, priority and runtime preset are
        deliberately absent — they change scheduling and cost, never
        values, so tenants share each other's cached answers.
        """
        return dict(self.params,
                    __engine__=self.engine,
                    __max_iterations__=self.max_iterations)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "JobSpec":
        """Build a spec from a jobs-file record (see the submit CLI).

        Recognized keys: ``graph`` (required), ``algorithm``,
        ``params``, ``engine``, ``tenant``, ``priority``,
        ``max_iterations``, ``use_cache``, ``deadline_ms``,
        ``max_retries``, ``retry_backoff_ms``, ``preset`` (a
        :data:`~repro.core.config.PRESETS` name), and ``fault`` — a
        ``{kind, superstep, node, repeat}`` single-fault shorthand
        armed onto the preset's runtime.

        Unknown keys and malformed deadline/retry fields raise
        :class:`~repro.errors.ServeError` here — a bad jobs-file line
        fails at submit, not mid-serve.
        """
        keys = {f.name for f in dataclasses.fields(cls)} - {"runtime"}
        unknown = set(doc) - keys - {"preset", "fault"}
        if unknown:
            raise ServeError(f"unknown job keys: {sorted(unknown)}")
        if "graph" not in doc:
            raise ServeError("job record needs a 'graph' key")
        runtime = MiddlewareConfig.preset(doc.get("preset", "full"))
        fault = doc.get("fault")
        if fault is not None:
            fault = dict(fault)
            try:
                plan = FaultPlan.single(
                    fault.pop("kind"), superstep=fault.pop("superstep", 1),
                    node_id=fault.pop("node", 0), **fault)
            except (KeyError, TypeError) as exc:
                raise ServeError(f"bad fault shorthand: {exc}") from None
            runtime = runtime.with_(fault_plan=plan)
        return cls(**_known_fields(cls, doc), runtime=runtime)

    # -- journal round-trip ------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        """Lossless plain-dict form for the durable job journal.

        Unlike :meth:`from_dict`'s jobs-file shorthand, this captures
        the *resolved* :class:`~repro.core.config.MiddlewareConfig` (every
        middleware knob plus the full fault plan), so a recovered
        service re-runs the job under exactly the submitted
        configuration.
        """
        return {
            "graph": self.graph,
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "engine": self.engine,
            "tenant": self.tenant,
            "priority": self.priority,
            "max_iterations": self.max_iterations,
            "use_cache": self.use_cache,
            "deadline_ms": self.deadline_ms,
            "max_retries": self.max_retries,
            "retry_backoff_ms": self.retry_backoff_ms,
            "runtime": dataclasses.asdict(self.runtime),
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_doc` (journal recovery path)."""
        fields = _known_fields(cls, doc)
        fields["runtime"] = runtime_from_doc(doc.get("runtime") or {})
        return cls(**fields)


def runtime_from_doc(doc: Mapping[str, Any]) -> MiddlewareConfig:
    """Inverse of ``dataclasses.asdict`` on a :class:`MiddlewareConfig`:
    rebuilds the nested :class:`StragglerConfig` and :class:`FaultPlan`
    (and its events) from their dicts of scalars."""
    fields = _known_fields(MiddlewareConfig, doc)
    straggler = fields.pop("straggler", None)
    if straggler is not None:
        fields["straggler"] = StragglerConfig(
            **_known_fields(StragglerConfig, straggler))
    plan = fields.pop("fault_plan", None)
    if plan is not None:
        fields["fault_plan"] = FaultPlan(events=tuple(
            FaultEvent(**event) for event in plan.get("events", ())))
    try:
        return MiddlewareConfig(**fields)
    except TypeError as exc:
        raise ServeError(
            f"bad journaled runtime config: {exc}") from None


def _known_fields(cls, doc: Mapping[str, Any]) -> Dict[str, Any]:
    """``doc``'s entries that name a field of the dataclass ``cls``.  A
    journal outlives the code that wrote it: a field the config has
    since retired is dropped on replay, and its value is whatever the
    class that now owns it uses."""
    known = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in doc.items() if k in known}


class Job:
    """Mutable service-side record of one submitted job."""

    def __init__(self, job_id: int, spec: JobSpec,
                 submitted_ms: float) -> None:
        self.job_id = job_id
        self.spec = spec
        self.state = PENDING
        self.submitted_ms = submitted_ms
        self.started_ms: Optional[float] = None
        self.finished_ms: Optional[float] = None
        #: simulated service ms actually charged to this job
        self.consumed_ms = 0.0
        #: scheduler slices (supersteps/rollbacks) this job received
        self.slices = 0
        #: RunResult (engine run) or CachedResult (cache hit)
        self.result = None
        self.error: Optional[str] = None
        self.from_cache = False
        self.fault_report = None
        #: failed runs so far (bounded by ``spec.max_retries``)
        self.retries = 0
        #: Checkpoint to seed the next dispatch from (retry / recovery)
        self.resume_from = None
        #: service-clock instant before which a retry must not dispatch
        #: (exponential backoff); None = dispatchable immediately
        self.not_before_ms: Optional[float] = None
        #: why the job was quarantined (None unless state QUARANTINED)
        self.quarantine_reason: Optional[str] = None
        #: GraphSnapshot pinning the graph version the job computes
        #: against (acquired at submit, released at a terminal state)
        self.snapshot = None
        #: did this dispatch seed from a previous fixpoint (incremental
        #: re-convergence after a mutation) instead of a cold start?
        self.warm_started = False

    @property
    def snapshot_version(self) -> Optional[int]:
        return self.snapshot.version if self.snapshot is not None else None

    def release_snapshot(self) -> None:
        """Idempotently drop the job's version pin."""
        if self.snapshot is not None:
            self.snapshot.release()

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED, CANCELLED, QUARANTINED)

    @property
    def values(self):
        return self.result.values if self.result is not None else None

    @property
    def latency_ms(self) -> Optional[float]:
        """Submit-to-finish latency on the service clock."""
        if self.finished_ms is None:
            return None
        return self.finished_ms - self.submitted_ms

    @property
    def queue_ms(self) -> Optional[float]:
        if self.started_ms is None:
            return None
        return self.started_ms - self.submitted_ms

    def describe(self) -> Dict[str, Any]:
        """Plain-dict record for traces and CLI reporting."""
        spec = self.spec
        return {
            "job_id": self.job_id,
            "tenant": spec.tenant,
            "graph": spec.graph,
            "algorithm": spec.algorithm,
            "params": dict(spec.params),
            "engine": spec.engine,
            "priority": spec.priority,
            "max_iterations": spec.max_iterations,
            "state": self.state,
            "from_cache": self.from_cache,
            "submitted_ms": round(self.submitted_ms, 6),
            "queue_ms": (round(self.queue_ms, 6)
                         if self.queue_ms is not None else None),
            "latency_ms": (round(self.latency_ms, 6)
                           if self.latency_ms is not None else None),
            "consumed_ms": round(self.consumed_ms, 6),
            "slices": self.slices,
            "error": self.error,
            "deadline_ms": spec.deadline_ms,
            "retries": self.retries,
            "quarantine_reason": self.quarantine_reason,
            "snapshot_version": self.snapshot_version,
            "warm_started": self.warm_started,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Job(#{self.job_id} {self.spec.tenant}: "
                f"{self.spec.algorithm}@{self.spec.graph} {self.state})")
