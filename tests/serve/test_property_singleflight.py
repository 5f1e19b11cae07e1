"""Model-based property tests: the result cache, singleflight and
admission, each against a plain model.

``CacheMachine`` drives one :class:`ResultCache` through random
put / put_entry / get / invalidate sequences, plus losing and tampering
with the sidecars its spilled entries name, and checks it, after every
step, against a model of its two tiers: resident entries in recency
order, a lookup count per key (every get, hit or miss, resident or
not), each entry's ``compute_ms``, eviction of the smallest
``lookups x compute_ms`` with the least recent first among ties, every
count halved once per window of lookups, and the counts of invalidated
versions dropped.  An evicted entry that names a sidecar spills; a
lookup of a spilled key reloads it (a hit) when its sidecar still holds
the answer the index describes, and is otherwise a miss that drops the
key; invalidation drops both tiers.  The model keeps its own hit /
miss / eviction / invalidation / reload counts, and both the model and
:meth:`ResultCache.check_invariants` hold resident and spilled keys
disjoint, the resident tier within capacity and no spilled entry
holding values.

``SingleflightMachine`` drives a :class:`GraphService` through random
submit / step / cancel sequences of two identical-query groups, where a
job's runtime either finishes, fails (no recovery stack under repeated
crashes) or hangs (recovered, but slow enough for the waiter timeout
to hand its group off), with and without the result cache.  The model
replays every cache publish and hit in service-clock order on its own
recency-ordered dict (one entry, so the eviction rule has one choice),
and checks that:

* the cache holds the model's keys in the model's order, and its hit,
  miss and eviction counts are the ones the served jobs account for;
* every parked waiter has a live, coalescing leader for its query;
* admission never runs more than ``max_running`` jobs at once;
* every waiter ends served from the cache, redispatched to compute
  itself, or cancelled, and every answer equals a solo run's bytes;
* :meth:`GraphService.check_invariants` passes after every rule.

The three service bugs the machine found are pinned at the end as
plain tests.
"""

from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.algorithms import PageRank
from repro.api import (BASELINE, FULL, RESILIENT, ClusterSpec, GraphService,
                       JobSpec, deploy)
from repro.engines import PowerGraphEngine
from repro.fault import CRASH, HANG, FaultPlan
from repro.graph import rmat
from repro.serve import CachedResult, ResultCache
from repro.serve.cache import COUNT_WINDOW_PER_ENTRY

# -- the cache alone --------------------------------------------------------------

CAPACITY = 3
#: lookups between two halvings of every count
WINDOW = COUNT_WINDOW_PER_ENTRY * CAPACITY
CACHE_KEYS = st.builds(ResultCache.key, st.sampled_from(["a", "b"]),
                       st.integers(1, 2), st.just("pagerank"),
                       st.fixed_dictionaries({"k": st.integers(0, 1)}))
COSTS = st.sampled_from([1.0, 5.0, 25.0])
#: whether a put's answer has a sidecar (mostly: spills need one)
JOURNALED = st.sampled_from([True, True, True, False])


def answer(value, cost, file):
    return CachedResult(np.array([value]), 1, True, cost, "powergraph",
                        "pagerank", file)


class CacheMachine(RuleBasedStateMachine):

    @initialize()
    def start(self):
        self.cache = ResultCache(CAPACITY)
        #: resident key -> (value, compute_ms, file), least- to
        #: most-recently used; spilled key -> the same
        self.model = OrderedDict()
        self.spilled = {}
        #: the sidecars: file -> (value, compute_ms) (None: no sidecar)
        self.disk = {}
        #: key -> lookups, and lookups since the last halving
        self.lookups = {}
        self.since_halving = 0
        self.counts = dict(hits=0, misses=0, evictions=0, invalidations=0,
                           reloads=0)

    def insert(self, key, value, cost, file):
        self.spilled.pop(key, None)
        if key not in self.model and len(self.model) == CAPACITY:
            # smallest saving first, then the least recently used
            saving = {k: self.lookups.get(k, 0) * e[1]
                      for k, e in self.model.items()}
            recency = {k: i for i, k in enumerate(self.model)}
            victim = sorted(self.model,
                            key=lambda k: (saving[k], recency[k]))[0]
            evicted = self.model.pop(victim)
            self.counts["evictions"] += 1
            if evicted[2] is not None:
                self.spilled[victim] = evicted
        self.model[key] = (value, cost, file)
        self.model.move_to_end(key)

    def sidecar(self, value, cost, journaled):
        """A file holding the answer, when the service journals."""
        if not journaled:
            return None
        file = f"job-{len(self.disk) + 1}-result.npz"
        self.disk[file] = (value, cost)
        return file

    def load(self, spilled):
        """What reading ``spilled``'s sidecar back returns."""
        on_disk = self.disk.get(spilled.file)
        return None if on_disk is None else answer(*on_disk, spilled.file)

    @rule(key=CACHE_KEYS, value=st.floats(0, 9), cost=COSTS,
          journaled=JOURNALED)
    def put(self, key, value, cost, journaled):
        file = self.sidecar(value, cost, journaled)
        result = SimpleNamespace(values=np.array([value]), iterations=1,
                                 converged=True, total_ms=cost,
                                 engine_name="powergraph",
                                 algorithm_name="pagerank")
        self.cache.put(key, result, file)
        result.values[0] = -1.0             # the cache kept its own copy
        self.insert(key, value, cost, file)

    @rule(key=CACHE_KEYS, value=st.floats(0, 9), cost=COSTS,
          journaled=JOURNALED)
    def put_entry(self, key, value, cost, journaled):
        file = self.sidecar(value, cost, journaled)
        installed = self.cache.put_entry(key, answer(value, cost, file))
        # first resident write wins; a spilled key is replaced
        assert installed == (key not in self.model)
        if installed:
            self.insert(key, value, cost, file)

    @rule(key=CACHE_KEYS, times=st.integers(1, 25))
    def get(self, key, times):
        """``times`` lookups in a row, so windows fill and halve."""
        for _ in range(times):
            hit = self.cache.get(key, self.load)
            self.lookups[key] = self.lookups.get(key, 0) + 1
            self.since_halving += 1
            if self.since_halving == WINDOW:
                self.since_halving = 0
                self.lookups = {k: n // 2 for k, n in self.lookups.items()
                                if n // 2}
            if key in self.spilled:
                entry = self.spilled.pop(key)
                if self.disk.get(entry[2]) == entry[:2]:
                    self.counts["reloads"] += 1
                    self.insert(key, *entry)
            if key not in self.model:
                assert hit is None
                self.counts["misses"] += 1
                continue
            assert hit.values.tolist() == [self.model[key][0]]
            assert hit.compute_ms == self.model[key][1]
            assert hit.file == self.model[key][2]
            hit.values[0] = -1.0            # a defensive copy
            self.model.move_to_end(key)
            self.counts["hits"] += 1

    @precondition(lambda self: self.spilled)
    @rule(data=st.data(), tamper=st.booleans())
    def lose_sidecar(self, data, tamper):
        """A spilled entry's sidecar goes missing, or now holds another
        run's cost: either way its next lookup is a miss."""
        key = data.draw(st.sampled_from(sorted(self.spilled)))
        file = self.spilled[key][2]
        on_disk = self.disk[file]
        self.disk[file] = (None if not tamper or on_disk is None
                           else (on_disk[0], on_disk[1] + 1.0))

    @rule(graph=st.sampled_from(["a", "b"]),
          keep=st.sets(st.integers(1, 2)))
    def invalidate(self, graph, keep):
        stale = [k for tier in (self.model, self.spilled) for k in tier
                 if k[0] == graph and k[1] not in keep]
        for key in stale:
            self.model.pop(key, None)
            self.spilled.pop(key, None)
        self.lookups = {k: n for k, n in self.lookups.items()
                        if k[0] != graph or k[1] in keep}
        assert self.cache.invalidate_graph(graph, keep_versions=keep) == \
            len(stale)
        self.counts["invalidations"] += len(stale)

    @invariant()
    def matches_the_model(self):
        assert self.cache.keys() == list(self.model)
        assert set(self.cache._spilled) == set(self.spilled)
        assert self.cache._lookups == self.lookups
        stats = self.cache.stats()
        assert {k: stats[k] for k in self.counts} == self.counts
        assert stats["entries"] == len(self.model) <= CAPACITY
        assert stats["spilled"] == len(self.spilled)
        assert not self.model.keys() & self.spilled.keys()
        assert all(e.values is None for e in self.cache._spilled.values())
        self.cache.check_invariants()


CacheMachine.TestCase.settings = settings(max_examples=40,
                                          stateful_step_count=35,
                                          deadline=None)
test_cache_matches_the_model = CacheMachine.TestCase

# -- singleflight and admission in the service ------------------------------------

GRAPH = rmat(48, 192, seed=5)
SPEC = ClusterSpec(nodes=1, gpus_per_node=1)
MAX_RUNNING = 3
#: every query's answer, from a solo run outside the service
ANSWERS = {}
for _cap in (2, 3):
    _plug = deploy(SPEC)
    ANSWERS[_cap] = PowerGraphEngine.build(
        GRAPH, _plug.cluster, middleware=_plug).run(
            PageRank(), max_iterations=_cap).values
RUNTIMES = {
    "finish": FULL,
    "fail": BASELINE.with_(fault_plan=FaultPlan.single(
        CRASH, superstep=1, node_id=0, repeat=50)),
    "hang": RESILIENT.with_(fault_plan=FaultPlan.single(
        HANG, superstep=1, node_id=0, duration_ms=50_000.0)),
}


def service(**kw):
    svc = GraphService(SPEC, **kw)
    svc.load_graph("g", GRAPH)
    return svc


class SingleflightMachine(RuleBasedStateMachine):

    @initialize()
    def start(self):
        self.svc = service(cache_entries=1, max_running=MAX_RUNNING,
                           waiter_timeout_ms=50.0)
        self.jobs = []
        #: the cache's keys, least- to most-recently used
        self.model = OrderedDict()
        self.evictions = 0
        self.cancelled = set()
        #: jobs seen parked behind a leader / that ran as a leader
        self.parked = set()
        self.leaders = set()
        self.seen_finished = set()

    def unfinished(self):
        return [j for j in self.jobs if not j.finished]

    def observe(self):
        """Fold what the last rule did into the model: the cache
        publishes and hits in service-clock order, and who led or
        parked.  A run leaves no event between a hit at dispatch and a
        publish in the same slice, so a tie puts the hit first."""
        svc = self.svc
        self.leaders.update(r.job.job_id for r in svc.scheduler.running)
        self.parked.update(w.job_id for group in svc._waiters.values()
                           for w in group)
        done = [j for j in self.jobs
                if j.finished and j.job_id not in self.seen_finished]
        self.seen_finished.update(j.job_id for j in done)
        events = []
        for job in done:
            if job.state != "done" or not job.spec.use_cache:
                continue
            key = svc.cache.key("g", job.snapshot_version,
                                job.spec.algorithm, job.spec.cache_params())
            events.append((job.finished_ms, not job.from_cache, key))
        for _, publish, key in sorted(events):
            if publish or key in self.model:
                self.model[key] = True
                self.model.move_to_end(key)
            if len(self.model) > svc.cache.capacity:
                self.model.popitem(last=False)
                self.evictions += 1
        # a run that ended without a cached answer was a leader
        self.leaders.update(j.job_id for j in done
                            if j.state in ("done", "failed")
                            and not j.from_cache)

    @rule(cap=st.sampled_from(sorted(ANSWERS)),
          burst=st.lists(st.tuples(st.sampled_from(sorted(RUNTIMES)),
                                   st.booleans()), min_size=1, max_size=3))
    def submit(self, cap, burst):
        """One query, submitted once or more in a row: the next
        admission round makes the first a leader and parks the rest."""
        for runtime, use_cache in burst:
            self.jobs.append(self.svc.submit(JobSpec(
                graph="g", max_iterations=cap, tenant=runtime,
                runtime=RUNTIMES[runtime], use_cache=use_cache)))

    @precondition(lambda self: self.unfinished())
    @rule()
    def step(self):
        self.svc.step()
        self.observe()

    @precondition(lambda self: self.unfinished())
    @rule(data=st.data())
    def cancel(self, data):
        job = data.draw(st.sampled_from(self.unfinished()))
        assert self.svc.cancel(job.job_id)
        self.cancelled.add(job.job_id)
        self.observe()

    @invariant()
    def admission_and_groups(self):
        svc = self.svc
        running = svc.scheduler.running
        assert len(running) <= MAX_RUNNING
        for key, group in svc._waiters.items():
            assert group
            leaders = [r for r in running if r.cache_key == key
                       and r.coalesce and r.job.spec.use_cache]
            assert len(leaders) == 1
            for waiter in group:
                assert waiter.state == "running" and waiter.spec.use_cache
                assert waiter not in [r.job for r in running]

    @invariant()
    def cache_matches_the_model(self):
        cache = self.svc.cache
        assert cache.keys() == list(self.model)
        served = sum(j.from_cache for j in self.jobs)
        assert cache.stats()["hits"] == served
        # every lookup that missed started a leader or parked a waiter
        computed = sum(self.jobs[i - 1].spec.use_cache
                       for i in self.leaders)
        coalesced = self.svc.metrics()["coalesced"]
        assert cache.stats()["misses"] == computed + coalesced
        assert cache.stats()["evictions"] == self.evictions

    @invariant()
    def service_invariants(self):
        self.svc.check_invariants()

    @invariant()
    def outcomes(self):
        for job in self.jobs:
            cancelled = job.job_id in self.cancelled
            assert (job.state == "cancelled") == cancelled
            if job.state == "done":
                assert job.values.tobytes() == \
                    ANSWERS[job.spec.max_iterations].tobytes()
                # a run under repeated crashes never finishes itself
                assert job.from_cache or job.spec.tenant != "fail"
            if job.state == "failed":
                assert job.spec.tenant == "fail"

    def teardown(self):
        if not hasattr(self, "svc"):
            return
        # drain to idle one step at a time, checking every step
        for _ in range(500):
            if not self.unfinished():
                break
            self.step()
            self.admission_and_groups()
            self.cache_matches_the_model()
            self.service_invariants()
            self.outcomes()
        assert not self.unfinished()
        for job_id in self.parked:
            job = self.jobs[job_id - 1]
            # served, redispatched to compute itself, or cancelled
            assert (job.from_cache or job_id in self.leaders
                    or job_id in self.cancelled)


SingleflightMachine.TestCase.settings = settings(max_examples=25,
                                                 stateful_step_count=15,
                                                 deadline=None)
test_singleflight_matches_the_model = SingleflightMachine.TestCase


# -- the bugs the machine found, pinned ----------------------------------------------


def test_a_cache_bypassing_run_never_serves_the_waiters():
    """The waiter parks behind the slow leader; an identical
    ``use_cache=False`` run finishes first and publishes nothing, so
    only the leader may serve it."""
    svc = service()
    leader = svc.submit(JobSpec(graph="g", max_iterations=3,
                                runtime=RUNTIMES["hang"]))
    waiter = svc.submit(JobSpec(graph="g", max_iterations=3))
    bypass = svc.submit(JobSpec(graph="g", max_iterations=3,
                                use_cache=False))
    svc.run()
    assert waiter.state == "done" and waiter.from_cache
    assert np.array_equal(waiter.values, leader.values)
    assert np.array_equal(waiter.values, bypass.values)
    assert svc.cache.stats()["hits"] == 1


def test_a_failing_bypass_run_leaves_the_leaders_waiters_parked():
    svc = service(waiter_timeout_ms=1000.0)
    svc.submit(JobSpec(graph="g", max_iterations=3))
    waiter = svc.submit(JobSpec(graph="g", max_iterations=3))
    doomed = svc.submit(JobSpec(graph="g", max_iterations=3,
                                use_cache=False, runtime=RUNTIMES["fail"]))
    svc.step()
    parked = dict(svc._waiter_parked_ms)
    while doomed.state != "failed":
        svc.step()
    # not re-parked: counted once, its timeout clock not restarted
    assert svc.metrics()["coalesced"] == 1
    assert svc._waiter_parked_ms == parked
    svc.run()
    assert waiter.state == "done" and waiter.from_cache


def test_hung_leader_handoff_stays_within_max_running():
    """The abandoned leader keeps its slot, so the handed-off waiter
    waits for admission instead of running a third job."""
    svc = service(max_running=2, waiter_timeout_ms=20.0)
    svc.submit(JobSpec(graph="g", max_iterations=3,
                       runtime=RUNTIMES["hang"]))
    waiter = svc.submit(JobSpec(graph="g", max_iterations=3))
    svc.step()
    svc.submit(JobSpec(graph="g", max_iterations=2, use_cache=False))
    while svc.step():
        assert len(svc.scheduler.running) <= 2
    assert svc.metrics()["handoffs"] == 1
    assert waiter.state == "done" and not waiter.from_cache
