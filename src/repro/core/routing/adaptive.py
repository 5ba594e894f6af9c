"""Adaptive routing: learn the best routing scheme online, per query class.

The paper picks one routing scheme per run, yet its own sensitivity studies
(Fig. 9/14) show the best scheme depends on cache capacity, hotspot radius
and workload mix. :class:`AdaptiveRouting` wraps the static strategies as
*arms* and learns which to use from the
:class:`~repro.core.routing.base.RoutingFeedback` stream the router pushes
back on every acknowledgement.

A subtlety shapes the design: a routing scheme's benefit is *collective*.
One landmark-routed probe inside an embed-routed stream lands on caches
organised by embed and measures nothing useful. So instead of a per-query
bandit, arms are evaluated in **audition epochs** — contiguous spans where
every query routes through one arm, so the measurements include the arm's
own cache organisation. Epochs run in palindromic order (caches warm
monotonically; a fixed order would flatter whichever arm ran last), and
the strategy then **commits** per query class to the arm with the best
score, sticky until the next audition.

The ranking score is the per-query **cache miss ratio** (misses over
records touched), not raw latency: response times vary by orders of
magnitude with result-set size, while the miss ratio is size-normalised
and is precisely the thing a routing choice controls. Repeat-dominated
classes (e.g. zipfian walks) rank by the miss ratio over *repeat* queries
only — stable placement turning repeats into hits is their whole game.
A class deviates from the cluster-wide best arm only on a clear margin,
because cache organisation is collective.

The feedback signals keep the commitment honest:

* **per-query-class latency EWMAs** — drift detection: a committed arm
  whose fast EWMA rises well above its slow baseline triggers re-audition;
* **cache hit rates** — a per-class collapse from the committed-phase peak
  means the workload moved (e.g. a hotspot shifted): fresh audition;
* **queue depths** — sustained imbalance boosts the epsilon-greedy probe
  rate, as does a still-warming cache.

Between auditions, decaying epsilon-greedy probes route the occasional
query through the runner-up or stalest arm so estimates stay fresh as
caches warm and the next audition starts informed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..operators.registry import routing_keys
from ..queries import Query, query_class
from .base import BASE_DECISION_TIME, RoutingFeedback, RoutingStrategy

#: Traffic-light tier: the arm a query class uses before any feedback.
DEFAULT_PRIORS: Mapping[str, str] = {
    "point": "hash",
    "walk": "hash",
    "traversal": "embed",
}


class AdaptiveRouting(RoutingStrategy):
    """Audition-then-commit arm selection with per-class epsilon probes."""

    name = "adaptive"

    def __init__(
        self,
        arms: Mapping[str, RoutingStrategy],
        priors: Optional[Mapping[str, str]] = None,
        epoch: int = 32,
        audition_rounds: int = 2,
        audition_delay: int = 0,
        epsilon: float = 0.1,
        epsilon_decay: float = 0.05,
        epsilon_min: float = 0.02,
        switch_margin: float = 0.1,
        drift_threshold: float = 1.5,
        drift_patience: int = 16,
        hit_rate_drop: float = 0.25,
        min_drift_samples: int = 48,
        feedback_alpha: float = 0.2,
        seed: int = 0,
    ) -> None:
        if not arms:
            raise ValueError("adaptive routing needs at least one arm")
        if epoch < 1:
            raise ValueError("epoch must be >= 1")
        if audition_rounds < 0:
            raise ValueError("audition_rounds must be >= 0")
        if audition_delay < 0:
            raise ValueError("audition_delay must be >= 0")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if epsilon_decay < 0:
            raise ValueError("epsilon_decay must be >= 0")
        if not 0.0 <= epsilon_min <= 1.0:
            raise ValueError("epsilon_min must be in [0, 1]")
        if not 0.0 <= switch_margin < 1.0:
            raise ValueError("switch_margin must be in [0, 1)")
        if drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if drift_patience < 1:
            raise ValueError("drift_patience must be >= 1")
        if not 0.0 < feedback_alpha <= 1.0:
            raise ValueError("feedback_alpha must be in (0, 1]")
        self.arms: Dict[str, RoutingStrategy] = dict(arms)
        self._arm_names = tuple(self.arms)
        self.priors = dict(DEFAULT_PRIORS if priors is None else priors)
        self.epoch = epoch
        self.audition_rounds = audition_rounds
        self.audition_delay = audition_delay
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.epsilon_min = epsilon_min
        self.switch_margin = switch_margin
        self.drift_threshold = drift_threshold
        self.drift_patience = drift_patience
        self.hit_rate_drop = hit_rate_drop
        self.min_drift_samples = min_drift_samples
        self.feedback_alpha = feedback_alpha
        self._rng = np.random.default_rng(seed)
        # Audition scheduling: each queued arm gets one epoch of all traffic.
        self._audition_queue: Deque[str] = deque()
        self._current_audition: Optional[str] = None
        self._epoch_pos = 0
        self._decisions = 0
        self.auditions = 0
        # The initial audition is deferred by ``audition_delay`` decisions:
        # the traffic-light priors route the coldest stretch (where every
        # arm misses everything and measurements are least informative),
        # then the arms audition on a cluster warm enough to tell apart.
        self._audition_scheduled = (
            len(self._arm_names) <= 1 or audition_rounds == 0
        )
        if not self._audition_scheduled and audition_delay == 0:
            self._schedule_audition(self.audition_rounds)
            self._audition_scheduled = True
        # Per-(class, arm) latency EWMAs (drift detection, diagnostics),
        # miss-ratio EWMAs (the arm-ranking score), completed pulls, and
        # assignment counts (assignments include in-flight queries; they
        # drive the stale-arm probe choice). Raw latency is far too noisy
        # to rank arms — a traversal's response varies by orders of
        # magnitude with its result-set size — while the per-query miss
        # ratio is size-normalised and is precisely the thing a routing
        # choice controls.
        self._latency_ewma: Dict[Tuple[str, str], float] = {}
        self._score_ewma: Dict[Tuple[str, str], float] = {}
        # Repeat-miss scores: the miss ratio over *repeat* queries only.
        # Deterministic placement (hash) turns repeats into hits; arms
        # whose choice drifts with load or EMAs scatter them. For
        # repeat-dominated classes this is the ranking signal.
        self._repeat_ewma: Dict[Tuple[str, str], float] = {}
        self._pulls: Dict[Tuple[str, str], int] = {}
        self._assigned: Dict[Tuple[str, str], int] = {}
        # Audition accumulators: plain per-(class, arm) sums/counts of the
        # miss-ratio score. The palindromic epoch order makes their *means*
        # warmth-fair, so the commit decision seeds the score EWMAs from
        # them (a recency-weighted EWMA would flatter whichever arm
        # happened to run last).
        self._audition_sum: Dict[Tuple[str, str], float] = {}
        self._audition_cnt: Dict[Tuple[str, str], float] = {}
        self._audition_repeat_sum: Dict[Tuple[str, str], float] = {}
        self._audition_repeat_cnt: Dict[Tuple[str, str], float] = {}
        self._commit_seeded = False
        # Per-class repeat tracking: the fraction of queries whose node was
        # queried before. Unlike cache measurements it is a pure workload
        # property — immune to which arm currently organises the caches —
        # and high repeat rates are exactly where deterministic placement
        # (hash routing's repeat locality, §3.3.2) pays.
        self._class_nodes: Dict[str, set] = {}
        self._class_queries: Dict[str, int] = {}
        self._class_repeats: Dict[str, int] = {}
        # Committed-phase bookkeeping.
        self._class_decisions: Dict[str, int] = {}
        self._last_choice: Dict[str, str] = {}
        self._last_greedy: Dict[str, str] = {}
        self._previous_commit: Dict[str, str] = {}
        self.switches: Dict[str, int] = {}
        self.explorations = 0
        # Drift detection: per-class [fast EWMA, slow EWMA, samples,
        # consecutive exceedances] of the committed arm's latency.
        self._drift: Dict[str, List[float]] = {}
        # Cluster-state EWMAs fed by RoutingFeedback. Hit-ratio warmth is
        # tracked per class: the pooled ratio swings with the workload
        # *composition* (a hotspot streak vs a stretch of uniform point
        # lookups), which would read as phantom drift.
        self._hit_rate_ewma = 0.0
        self._class_hit: Dict[str, List[float]] = {}  # cls -> [ewma, peak, n]
        self._imbalance_ewma = 1.0
        self._feedback_seen = 0
        self._committed_feedback = 0
        # In-flight bookkeeping:
        # query id -> (class, arm name, in_audition, is_repeat).
        self._assignments: Dict[int, Tuple[str, str, bool, bool]] = {}
        self._last_arm: Optional[RoutingStrategy] = None

    # -- audition scheduling --------------------------------------------------
    @property
    def mode(self) -> str:
        """``"audition"`` while an arm owns all traffic, else ``"committed"``."""
        if self._current_audition is not None or self._audition_queue:
            return "audition"
        return "committed"

    def _schedule_audition(self, rounds: int = 1) -> None:
        # Palindromic order (A B C, C B A, ...): caches warm monotonically
        # during audition, so a fixed order would flatter whichever arm runs
        # last. Alternating direction gives every arm the same mean epoch
        # position across rounds.
        for round_index in range(rounds):
            order = self._arm_names
            if round_index % 2 == 1:
                order = tuple(reversed(order))
            self._audition_queue.extend(order)
        self.auditions += 1

    def _arm_pulls(self, arm: str) -> int:
        return sum(
            count for (_, a), count in self._pulls.items() if a == arm
        )

    def _advance_epoch(self) -> None:
        self._epoch_pos += 1
        if self._epoch_pos < self.epoch:
            return
        self._epoch_pos = 0
        if self._audition_queue:
            self._current_audition = self._audition_queue.popleft()
            return
        if self._current_audition is not None:
            # The router pipelines submission, so feedback trails decisions
            # by up to the in-flight window: an arm may have owned an epoch
            # whose acks mostly haven't arrived yet. Leaving audition now
            # would commit on partial (or pure-prior) data — extend the
            # audition with the least-measured arm until every arm has
            # enough completed pulls to compare.
            starved = min(self._arm_names, key=self._arm_pulls)
            if self._arm_pulls(starved) < max(1, self.epoch // 2):
                self._current_audition = starved
                return
            self._current_audition = None
            self._seed_commit()

    def _seed_commit(self) -> None:
        """Seed the score EWMAs from the audition means (warmth-fair)."""
        if self._commit_seeded:
            return
        for key, count in self._audition_cnt.items():
            if count > 0:
                self._score_ewma[key] = self._audition_sum[key] / count
        for key, count in self._audition_repeat_cnt.items():
            if count > 0:
                self._repeat_ewma[key] = (
                    self._audition_repeat_sum[key] / count
                )
        self._commit_seeded = True
        # A fresh generation: every class re-decides from the new audition
        # data at its next decision (sticky thereafter).
        self._previous_commit = dict(self._last_greedy)
        self._last_greedy.clear()
        # Warmth baselines only mean something once commitment starts: the
        # EWMAs fluctuate wildly while caches are cold, and a "drop" from a
        # lucky early peak is not workload drift.
        for entry in self._class_hit.values():
            entry[1] = entry[0]
            entry[2] = 0.0
        self._committed_feedback = 0

    def trigger_audition(self) -> None:
        """Re-audition every arm (drift detected or forced externally)."""
        if self._current_audition is not None or self._audition_queue:
            return
        self._schedule_audition(1)
        self._drift.clear()
        # Fresh accumulators: the post-drift world gets measured anew.
        self._audition_sum.clear()
        self._audition_cnt.clear()
        self._audition_repeat_sum.clear()
        self._audition_repeat_cnt.clear()
        self._commit_seeded = False

    # -- choice ---------------------------------------------------------------
    def exploration_rate(self, cls: str) -> float:
        """Current probe rate for ``cls``: decayed, boosted while unsettled."""
        decisions = self._class_decisions.get(cls, 0)
        decayed = max(
            self.epsilon_min,
            self.epsilon / (1.0 + self.epsilon_decay * decisions),
        )
        cold_boost = 0.5 * (1.0 - self._hit_rate_ewma)
        skew_boost = 0.25 * min(1.0, max(0.0, self._imbalance_ewma - 1.0))
        return min(1.0, decayed * (1.0 + cold_boost + skew_boost))

    def _global_best_arm(self) -> Optional[str]:
        """Arm with the lowest mean score across all measured classes.

        Cache organisation is *collective*: classes sharing one locality
        policy reinforce each other's warmth. So the per-class choice
        defaults to the globally best arm and deviates only on clear
        evidence (see :meth:`_greedy_arm`).
        """
        # Sorted, not set order: class names are strings, so set order
        # varies with hash randomization across processes — and float
        # summation order is result-visible in the arm means.
        classes = sorted({cls for cls, _ in self._score_ewma})
        means = {}
        for arm in self._arm_names:
            scores = [
                self._score_ewma[(cls, arm)]
                for cls in classes
                if (cls, arm) in self._score_ewma
            ]
            if len(scores) == len(classes) and scores:
                means[arm] = sum(scores) / len(scores)
        if not means:
            return None
        return min(means, key=means.__getitem__)

    def _class_scores(self, cls: str) -> Dict[str, float]:
        """Per-arm ranking scores for one class.

        Repeat-dominated classes rank by the *repeat* miss ratio: the whole
        game for them is whether placement is stable enough that a repeat
        finds its record cached, and the overall ratio (diluted by
        first-visit compulsory misses) hides exactly that.
        """
        scores = self._score_ewma
        if self.repeat_ratio(cls) > 0.5:
            repeat = {
                arm: self._repeat_ewma[(cls, arm)]
                for arm in self._arm_names
                if (cls, arm) in self._repeat_ewma
            }
            if len(repeat) == len(self._arm_names):
                return repeat
        return {
            arm: scores[(cls, arm)]
            for arm in self._arm_names
            if (cls, arm) in scores
        }

    def _greedy_arm(self, cls: str) -> str:
        # Sticky commit: the choice is made once per audition generation,
        # from the palindromic audition means. In-mixture probe updates are
        # too contaminated to overturn it query-by-query (a probe measures
        # an arm under *another* arm's cache organisation); corrections go
        # through drift detection → re-audition instead.
        committed = self._last_greedy.get(cls)
        if committed is not None:
            return committed
        tried = self._class_scores(cls)
        prior = self.priors.get(cls)
        if not tried:
            # The traffic-light tier: trust the prior until there is data.
            return prior if prior in self.arms else self._arm_names[0]
        best = min(tried, key=tried.__getitem__)
        # Anchor arm: the cluster-wide best, which a class deviates from
        # only when it clearly wins by it — cache organisation is
        # collective, and splitting off must earn its keep. Margins are
        # relative for meaningful scores, absolute for near-zero ones
        # (warm caches: every arm hits everywhere).
        anchor = self._global_best_arm()
        if anchor is not None and anchor in tried and best != anchor:
            gap = tried[anchor] - tried[best]
            if gap < max(self.switch_margin * tried[anchor], 0.05):
                best = anchor
        previous = self._previous_commit.get(cls)
        if previous is not None and previous in tried and best != previous:
            gap = tried[previous] - tried[best]
            # Hysteresis across generations: don't churn the cache
            # organisation for a win within the noise margin.
            if gap < max(self.switch_margin * tried[previous], 0.05):
                best = previous
        if previous is not None and previous != best:
            self.switches[cls] = self.switches.get(cls, 0) + 1
            self._drift.pop(cls, None)  # new arm, fresh drift baseline
        self._last_greedy[cls] = best
        return best

    def _probe_arm(self, cls: str) -> str:
        """Epsilon-probe target: alternate runner-up and stalest arm.

        Probing the runner-up (second-lowest EWMA) is nearly free — it is
        close to optimal by construction — and accelerates correction when
        the commitment is wrong; probing the stalest arm keeps every
        estimate fresh as caches warm and the workload drifts.
        """
        committed = self._last_greedy.get(cls)
        tried = {
            arm: self._score_ewma[(cls, arm)]
            for arm in self._arm_names
            if (cls, arm) in self._score_ewma and arm != committed
        }
        if tried and self.explorations % 4 != 0:
            return min(tried, key=tried.__getitem__)
        return min(
            self._arm_names,
            key=lambda arm: self._assigned.get((cls, arm), 0),
        )

    def _pick_arm(self, cls: str) -> Tuple[str, bool]:
        self._decisions += 1
        if (
            not self._audition_scheduled
            and self._decisions > self.audition_delay
        ):
            self._schedule_audition(self.audition_rounds)
            self._audition_scheduled = True
        if self._current_audition is None and self._audition_queue:
            # First decision of a scheduled audition round.
            self._current_audition = self._audition_queue.popleft()
            self._epoch_pos = 0
        in_audition = self._current_audition is not None
        if in_audition:
            pick = self._current_audition
        elif len(self._arm_names) > 1 and (
            float(self._rng.random()) < self.exploration_rate(cls)
        ):
            self.explorations += 1
            pick = self._probe_arm(cls)
        else:
            pick = self._greedy_arm(cls)
        self._last_choice[cls] = pick
        self._class_decisions[cls] = self._class_decisions.get(cls, 0) + 1
        self._assigned[(cls, pick)] = self._assigned.get((cls, pick), 0) + 1
        self._advance_epoch()
        return pick, in_audition

    def repeat_ratio(self, cls: str) -> float:
        """Fraction of this class's queries re-visiting an earlier node."""
        total = self._class_queries.get(cls, 0)
        return self._class_repeats.get(cls, 0) / total if total else 0.0

    def _track_repeats(self, cls: str, node: int) -> bool:
        seen = self._class_nodes.setdefault(cls, set())
        self._class_queries[cls] = self._class_queries.get(cls, 0) + 1
        if node in seen:
            self._class_repeats[cls] = self._class_repeats.get(cls, 0) + 1
            return True
        seen.add(node)
        return False

    def choose(self, query: Query, loads: Sequence[int]) -> Optional[int]:
        # Both the class and the repeat signal resolve through the operator
        # registry: the class feeds the per-class arms, and repeats are
        # tracked on the primary anchor (multi-anchor queries re-visiting
        # their lead anchor are repeats for placement purposes too).
        cls = query_class(query)
        is_repeat = self._track_repeats(cls, routing_keys(query)[0])
        arm_name, in_audition = self._pick_arm(cls)
        self._assignments[query.query_id] = (
            cls, arm_name, in_audition, is_repeat,
        )
        arm = self.arms[arm_name]
        self._last_arm = arm
        return arm.choose(query, loads)

    def on_membership_change(
        self, num_processors: int, alive: Sequence[bool]
    ) -> int:
        """Forward the topology change to every arm; learned state survives.

        The per-(class, arm) score/latency EWMAs, pull counts, commitment
        and audition schedule are all keyed by arm *name*, not processor
        id, so none of it resets — the bandit keeps its ranking while each
        arm rebalances its own table. Returns the total entries moved
        across arms.
        """
        return sum(
            self.arms[name].on_membership_change(num_processors, alive)
            for name in self._arm_names
        )

    # -- hooks ----------------------------------------------------------------
    def on_dispatch(self, query: Query, processor: int) -> None:
        # Every arm's internal model (e.g. the embed EMA tracker) follows the
        # full dispatch stream, not just the queries that arm routed — the
        # processor caches it models are warmed by all of them.
        for arm in self.arms.values():
            arm.on_dispatch(query, processor)

    def _update_cluster_signals(
        self, feedback: RoutingFeedback, cls: Optional[str]
    ) -> None:
        alpha = self.feedback_alpha
        self._feedback_seen += 1
        # Cache warmth: slow EWMAs of the per-query hit ratio — one global
        # (modulates exploration), one per class (drift detection; the
        # pooled ratio swings with workload composition, so only the
        # per-class series is compared against its peak).
        touched = feedback.cache_hits + feedback.cache_misses
        if touched:
            hit_ratio = feedback.cache_hits / touched
            if self._feedback_seen == 1:
                self._hit_rate_ewma = hit_ratio
            else:
                self._hit_rate_ewma += (alpha / 8.0) * (
                    hit_ratio - self._hit_rate_ewma
                )
            if cls is not None:
                entry = self._class_hit.get(cls)
                if entry is None:
                    self._class_hit[cls] = [hit_ratio, hit_ratio, 1.0]
                else:
                    entry[0] += (alpha / 8.0) * (hit_ratio - entry[0])
                    entry[1] = max(entry[1], entry[0])
                    entry[2] += 1.0
        loads = feedback.loads
        if loads:
            mean_load = sum(loads) / len(loads)
            imbalance = max(loads) / mean_load if mean_load > 0 else 1.0
            self._imbalance_ewma += alpha * (imbalance - self._imbalance_ewma)

    def _update_drift(self, cls: str, arm: str, latency: float) -> None:
        """Track the committed arm's fast vs slow latency EWMAs per class."""
        if self.mode != "committed" or self._last_greedy.get(cls) != arm:
            return
        fast_alpha = self.feedback_alpha
        slow_alpha = self.feedback_alpha / 8.0
        entry = self._drift.get(cls)
        if entry is None:
            self._drift[cls] = [latency, latency, 1.0, 0.0]
            return
        entry[0] += fast_alpha * (latency - entry[0])
        entry[1] += slow_alpha * (latency - entry[1])
        entry[2] += 1.0
        exceeded = entry[0] > entry[1] * (1.0 + self.drift_threshold)
        # Individual queries are wildly variable (result-set sizes differ by
        # orders of magnitude), so a single exceedance means nothing; only a
        # sustained streak marks genuine drift.
        entry[3] = entry[3] + 1.0 if exceeded else 0.0
        if entry[2] >= self.min_drift_samples and entry[3] >= self.drift_patience:
            self.trigger_audition()

    def on_feedback(self, feedback: RoutingFeedback) -> None:
        info = self._assignments.pop(feedback.query.query_id, None)
        self._update_cluster_signals(feedback, info[0] if info else None)
        if info is not None:
            self._update_scores(feedback, *info)
        if self.mode == "committed":
            self._committed_feedback += 1
            if self._committed_feedback >= self.min_drift_samples and any(
                entry[2] >= self.min_drift_samples
                and entry[1] - entry[0] > self.hit_rate_drop
                for entry in self._class_hit.values()
            ):
                # A query class lost its cache warmth: the workload moved.
                self.trigger_audition()
        for arm_strategy in self.arms.values():
            arm_strategy.on_feedback(feedback)

    def _update_scores(
        self,
        feedback: RoutingFeedback,
        cls: str,
        arm: str,
        in_audition: bool,
        is_repeat: bool,
    ) -> None:
        key = (cls, arm)
        touched = feedback.cache_hits + feedback.cache_misses
        score = feedback.cache_misses / touched if touched else None
        if score is not None:
            # Confidence weight: a 2-record walk says far less about an
            # arm's cache organisation than a 300-record traversal.
            weight = min(1.0, touched / 16.0)
            if in_audition and not self._commit_seeded:
                # Audition scores accumulate into plain (weighted) means;
                # the EWMAs are seeded from them when the audition
                # concludes.
                self._audition_sum[key] = (
                    self._audition_sum.get(key, 0.0) + score * weight
                )
                self._audition_cnt[key] = (
                    self._audition_cnt.get(key, 0.0) + weight
                )
                if is_repeat:
                    self._audition_repeat_sum[key] = (
                        self._audition_repeat_sum.get(key, 0.0) + score
                    )
                    self._audition_repeat_cnt[key] = (
                        self._audition_repeat_cnt.get(key, 0.0) + 1.0
                    )
            else:
                previous = self._score_ewma.get(key)
                if previous is None:
                    self._score_ewma[key] = score
                else:
                    self._score_ewma[key] = previous + (
                        self.feedback_alpha * weight * (score - previous)
                    )
                if is_repeat:
                    previous = self._repeat_ewma.get(key)
                    if previous is None:
                        self._repeat_ewma[key] = score
                    else:
                        self._repeat_ewma[key] = previous + (
                            self.feedback_alpha * (score - previous)
                        )
        previous = self._latency_ewma.get(key)
        if previous is None:
            self._latency_ewma[key] = feedback.response_time
        else:
            self._latency_ewma[key] = previous + self.feedback_alpha * (
                feedback.response_time - previous
            )
        self._pulls[key] = self._pulls.get(key, 0) + 1
        self._update_drift(cls, arm, feedback.response_time)

    # -- accounting -----------------------------------------------------------
    def decision_label(self, query: Query) -> str:
        info = self._assignments.get(query.query_id)
        if info is None:
            return self.name
        return f"{self.name}:{info[1]}"

    def decision_time(self, num_processors: int) -> float:
        # Classification + bandit lookup, then the chosen arm's own scan.
        arm_time = (
            self._last_arm.decision_time(num_processors)
            if self._last_arm is not None
            else 0.0
        )
        return BASE_DECISION_TIME + arm_time

    # -- diagnostics ----------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Diagnostic view of the learned state (for reports and tests)."""
        return {
            "mode": self.mode,
            "auditions": self.auditions,
            "committed": dict(self._last_greedy),
            "hit_rate_ewma": self._hit_rate_ewma,
            "imbalance_ewma": self._imbalance_ewma,
            "explorations": self.explorations,
            "switches": dict(self.switches),
            "latency_ewma_us": {
                f"{cls}/{arm}": value * 1e6
                for (cls, arm), value in sorted(self._latency_ewma.items())
            },
            "miss_ratio_ewma": {
                f"{cls}/{arm}": round(value, 4)
                for (cls, arm), value in sorted(self._score_ewma.items())
            },
            "repeat_miss_ewma": {
                f"{cls}/{arm}": round(value, 4)
                for (cls, arm), value in sorted(self._repeat_ewma.items())
            },
            "repeat_ratio": {
                cls: round(self.repeat_ratio(cls), 3)
                for cls in sorted(self._class_queries)
            },
            "pulls": {
                f"{cls}/{arm}": count
                for (cls, arm), count in sorted(self._pulls.items())
            },
        }
