"""Gray-failure detection: EWMA straggler tracking for daemon pairs.

Binary failures earn hard verdicts (:class:`~repro.errors.DaemonDead`,
:class:`~repro.errors.NodeUnreachable`); a *gray* failure — a daemon
that keeps heartbeating but runs 5-50x slow — earns nothing from that
machinery, yet under BSP every superstep barrier waits for the slowest
pair.  The detector closes the gap:

* Every observed per-block compute/transfer duration is normalized by
  the device model's *expected* duration into an inflation ratio, and
  folded into a per-(daemon, phase) EWMA.  Normalizing first means a
  legitimately slow device in a heterogeneous cluster sits at inflation
  ~1.0 and is never flagged.
* A pair is compared against the cross-daemon *median* inflation
  (floored at 1.0, so a lone pair is judged against the cost model
  itself).  When the relative inflation exceeds ``ratio`` for
  ``patience`` consecutive observations, the detector issues a soft
  :class:`~repro.errors.StragglerVerdict` — recorded, never raised —
  and flags the daemon for the responses (speculative re-execution of
  a pair inflated enough for a backup to win, online Lemma-2
  re-estimation).
* ``patience`` consecutive healthy observations in every observed phase
  unflag the daemon again (gray failures are often transient).

The same machinery extends to the *network edge*: when a rack
:class:`~repro.cluster.topology.Topology` is wired in, the resilient
transport reports every node's observed vs healthy uplink fragment time
through :meth:`StragglerDetector.observe_link`.  Links keep their own
EWMAs, streaks, and flag set, judged by the same ``ratio`` against the
*other* links' median (exclude-self — with few links an inclusive
median would let a lone slow uplink drag the reference up and mask
itself).  A flagged link feeds the online Lemma-2 re-estimation
exactly like a flagged daemon.

Detection is pure bookkeeping on the simulated clock: it charges zero
simulated milliseconds, so enabling it cannot change a fault-free run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.config import check_cost, check_count
from ..errors import SimulationError, StragglerVerdict

#: The two observable phases of a pair's pipeline work.
PHASES = ("compute", "transfer")


class StragglerDetector:
    """Per-daemon EWMA inflation tracking with median-relative verdicts."""

    def __init__(self, ratio: float = 3.0, patience: int = 3,
                 alpha: float = 0.5) -> None:
        if check_cost("straggler ratio", ratio,
                      error=SimulationError) <= 1.0:
            raise SimulationError(
                f"straggler ratio must be > 1 (a slowness multiple), "
                f"got {ratio}")
        check_count("straggler patience", patience, 1, error=SimulationError)
        if not 0.0 < alpha <= 1.0:
            raise SimulationError(
                f"EWMA alpha must be in (0, 1], got {alpha}"
            )
        #: flag threshold for pairs and links alike
        self.ratio = float(ratio)
        self.patience = int(patience)
        self.alpha = float(alpha)
        #: (daemon_id, phase) -> EWMA of observed/expected duration
        self._ewma: Dict[Tuple[int, str], float] = {}
        self._slow_streak: Dict[Tuple[int, str], int] = {}
        self._healthy_streak: Dict[Tuple[int, str], int] = {}
        self._flagged: Set[int] = set()
        # per-link (node uplink) tracking, fed by the transport
        self._link_ewma: Dict[int, float] = {}
        self._link_slow_streak: Dict[int, int] = {}
        self._link_healthy_streak: Dict[int, int] = {}
        self._flagged_links: Set[int] = set()
        self.verdicts: List[StragglerVerdict] = []
        self.observations = 0
        self.recoveries = 0
        self.link_observations = 0
        self.link_verdicts = 0
        self.link_recoveries = 0
        # speculation accounting (filled in by the agents)
        self.speculative_wins = 0
        self.speculative_losses = 0
        self.speculative_wasted_ms = 0.0

    # -- observations -------------------------------------------------------

    def observe(self, daemon_id: int, phase: str, entities: int,
                observed_ms: float, expected_ms: float
                ) -> Optional[StragglerVerdict]:
        """Fold one observed duration into the pair's EWMA.

        ``expected_ms`` is what the device/transfer model predicts for
        the same work; the ratio of the two is what drifts when a gray
        failure hits.  Returns the verdict if this observation tipped
        the pair over, else ``None``.
        """
        if phase not in PHASES:
            raise SimulationError(
                f"unknown straggler phase {phase!r}; expected one of "
                f"{PHASES}"
            )
        if entities <= 0 or expected_ms <= 0.0:
            return None
        inflation = observed_ms / expected_ms
        key = (daemon_id, phase)
        prev = self._ewma.get(key)
        self._ewma[key] = (inflation if prev is None
                           else (1.0 - self.alpha) * prev
                           + self.alpha * inflation)
        self.observations += 1
        return self._evaluate(daemon_id, phase)

    def observe_link(self, link_id: int, observed_ms: float,
                     expected_ms: float) -> Optional[StragglerVerdict]:
        """Fold one collective fragment's wire time into the link EWMA.

        ``link_id`` is the sending node (its uplink toward the root);
        ``expected_ms`` is the topology's healthy fragment cost for the
        same bytes.  The transport calls this for *every* node on every
        topology collective, so healthy links keep the exclude-self
        median honest.  Returns the verdict if this observation tipped
        the link over, else ``None``.
        """
        if expected_ms <= 0.0:
            return None
        inflation = observed_ms / expected_ms
        prev = self._link_ewma.get(link_id)
        self._link_ewma[link_id] = (inflation if prev is None
                                    else (1.0 - self.alpha) * prev
                                    + self.alpha * inflation)
        self.link_observations += 1
        return self._evaluate_link(link_id)

    # -- queries ------------------------------------------------------------

    def inflation(self, daemon_id: int, phase: str) -> float:
        """The pair's current EWMA inflation (1.0 when unobserved)."""
        return self._ewma.get((daemon_id, phase), 1.0)

    def median_inflation(self, phase: str) -> float:
        """Cross-daemon median EWMA for ``phase``, floored at 1.0.

        The floor means a uniformly slow cluster (every pair inflated)
        is still flagged relative to the cost model, while a healthy
        heterogeneous cluster (every pair ~1.0 after normalization)
        never is.
        """
        values = [v for (d, p), v in self._ewma.items() if p == phase]
        if not values:
            return 1.0
        return max(1.0, float(np.median(values)))

    def relative_inflation(self, daemon_id: int, phase: str) -> float:
        """The pair's EWMA over the cross-daemon median reference."""
        ewma = self._ewma.get((daemon_id, phase))
        if ewma is None:
            return 1.0
        return ewma / self.median_inflation(phase)

    def is_straggler(self, daemon_id: int) -> bool:
        return daemon_id in self._flagged

    @property
    def flagged(self) -> List[int]:
        return sorted(self._flagged)

    def link_inflation(self, link_id: int) -> float:
        """The link's current EWMA inflation (1.0 when unobserved)."""
        return self._link_ewma.get(link_id, 1.0)

    def link_reference(self, link_id: int) -> float:
        """Median EWMA of the *other* links, floored at 1.0.

        Excluding the judged link matters with few links: in a two-node
        cluster an inclusive median of ``[1.0, 4.0]`` is 2.5, and a 4x
        uplink would sit at a relative 1.6 — below any sane ratio — and
        never be flagged.  Against the other link's 1.0 it reads 4x.
        """
        others = [v for k, v in self._link_ewma.items() if k != link_id]
        if not others:
            return 1.0
        return max(1.0, float(np.median(others)))

    def relative_link_inflation(self, link_id: int) -> float:
        """The link's EWMA over the exclude-self median reference."""
        ewma = self._link_ewma.get(link_id)
        if ewma is None:
            return 1.0
        return ewma / self.link_reference(link_id)

    def is_slow_link(self, link_id: int) -> bool:
        return link_id in self._flagged_links

    @property
    def flagged_links(self) -> List[int]:
        return sorted(self._flagged_links)

    # -- speculation accounting --------------------------------------------

    def record_win(self, wasted_ms: float) -> None:
        """A speculative copy finished first; ``wasted_ms`` is what the
        abandoned primary burned before being overtaken."""
        self.speculative_wins += 1
        self.speculative_wasted_ms += float(wasted_ms)

    def record_loss(self, wasted_ms: float) -> None:
        """The primary finished first; the backup's work is discarded."""
        self.speculative_losses += 1
        self.speculative_wasted_ms += float(wasted_ms)

    # -- lifecycle ----------------------------------------------------------

    def clear(self, daemon_id: int) -> None:
        """Forget a daemon entirely (respawn: its history is void)."""
        for phase in PHASES:
            self._ewma.pop((daemon_id, phase), None)
            self._slow_streak.pop((daemon_id, phase), None)
            self._healthy_streak.pop((daemon_id, phase), None)
        self._flagged.discard(daemon_id)

    # -- internals ----------------------------------------------------------

    def _evaluate(self, daemon_id: int, phase: str
                  ) -> Optional[StragglerVerdict]:
        key = (daemon_id, phase)
        rel = self.relative_inflation(daemon_id, phase)
        if rel >= self.ratio:
            streak = self._slow_streak.get(key, 0) + 1
            self._slow_streak[key] = streak
            self._healthy_streak[key] = 0
            if streak >= self.patience and daemon_id not in self._flagged:
                self._flagged.add(daemon_id)
                verdict = StragglerVerdict(
                    f"daemon {daemon_id}: {phase} running {rel:.1f}x "
                    f"slower than the cross-daemon median for {streak} "
                    f"consecutive blocks",
                    daemon_id=daemon_id, phase=phase, inflation=rel,
                    median=self.median_inflation(phase), streak=streak,
                )
                self.verdicts.append(verdict)
                return verdict
            return None
        self._slow_streak[key] = 0
        self._healthy_streak[key] = self._healthy_streak.get(key, 0) + 1
        if daemon_id in self._flagged and all(
                self._slow_streak.get((daemon_id, p), 0) == 0
                and self._healthy_streak.get((daemon_id, p), 0)
                >= self.patience
                for p in PHASES if (daemon_id, p) in self._ewma):
            self._flagged.discard(daemon_id)
            self.recoveries += 1
        return None

    def _evaluate_link(self, link_id: int) -> Optional[StragglerVerdict]:
        rel = self.relative_link_inflation(link_id)
        if rel >= self.ratio:
            streak = self._link_slow_streak.get(link_id, 0) + 1
            self._link_slow_streak[link_id] = streak
            self._link_healthy_streak[link_id] = 0
            if (streak >= self.patience
                    and link_id not in self._flagged_links):
                self._flagged_links.add(link_id)
                self.link_verdicts += 1
                verdict = StragglerVerdict(
                    f"link {link_id}: uplink fragments running {rel:.1f}x "
                    f"slower than the other links' median for {streak} "
                    f"consecutive collectives",
                    daemon_id=link_id, phase="link", inflation=rel,
                    median=self.link_reference(link_id), streak=streak,
                )
                self.verdicts.append(verdict)
                return verdict
            return None
        self._link_slow_streak[link_id] = 0
        self._link_healthy_streak[link_id] = (
            self._link_healthy_streak.get(link_id, 0) + 1)
        if (link_id in self._flagged_links
                and self._link_healthy_streak[link_id] >= self.patience):
            self._flagged_links.discard(link_id)
            self.link_recoveries += 1
        return None
