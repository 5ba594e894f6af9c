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

* **latency** — used only for drift detection: per class, a fast and a
  slow EWMA of the committed arm's response time; a fast EWMA rising well
  above its slow baseline triggers re-audition;
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
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

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

# Tuning values. The service sets none of them; tests patch them.
AUDITION_ROUNDS = 2  # palindromic rounds of the initial audition
EPSILON = 0.1  # probe rate: initial, per-decision decay, floor
EPSILON_DECAY = 0.05
EPSILON_MIN = 0.02
SWITCH_MARGIN = 0.1  # relative win needed to leave the anchor/previous arm
DRIFT_THRESHOLD = 1.5  # fast latency EWMA over slow, as a fraction ...
DRIFT_PATIENCE = 16  # ... for this many consecutive acks
HIT_RATE_DROP = 0.25  # per-class hit-ratio fall from its committed peak
MIN_DRIFT_SAMPLES = 48  # samples before either drift signal may fire
FEEDBACK_ALPHA = 0.2  # EWMA smoothing (slow EWMAs use an eighth)


def _ewma(previous: Optional[float], sample: float, rate: float) -> float:
    """One EWMA step; the first sample seeds the average."""
    if previous is None:
        return sample
    return previous + rate * (sample - previous)


class _ArmStats:
    """What one arm has measured for one query class."""

    __slots__ = ("score", "repeat", "pulls", "assigned", "audition_sum",
                 "audition_cnt", "audition_repeat_sum", "audition_repeat_cnt")

    def __init__(self) -> None:
        # Miss-ratio EWMA, the arm-ranking score. Raw latency is far too
        # noisy to rank arms — a traversal's response varies by orders of
        # magnitude with its result-set size — while the per-query miss
        # ratio is size-normalised and is precisely the thing a routing
        # choice controls. None until the first measurement.
        self.score: Optional[float] = None
        # Repeat-miss score: the miss ratio over *repeat* queries only.
        # Deterministic placement (hash) turns repeats into hits; arms
        # whose choice drifts with load or EMAs scatter them. For
        # repeat-dominated classes this is the ranking signal.
        self.repeat: Optional[float] = None
        self.pulls = 0  # completed (acknowledged) queries
        self.assigned = 0  # includes in-flight ones; drives stale-arm probes
        self.reset_audition()

    def reset_audition(self) -> None:
        # Audition accumulators: plain sums/counts of the miss-ratio score.
        # The palindromic epoch order makes their *means* warmth-fair, so
        # the commit decision seeds the score EWMAs from them (a
        # recency-weighted EWMA would flatter whichever arm happened to run
        # last).
        self.audition_sum = 0.0
        self.audition_cnt = 0.0
        self.audition_repeat_sum = 0.0
        self.audition_repeat_cnt = 0.0


class _ClassState:
    """Everything the strategy tracks about one query class."""

    __slots__ = ("arms", "nodes", "queries", "repeats", "decisions",
                 "last_greedy", "previous_commit", "drift", "hit")

    def __init__(self, arm_names: Sequence[str]) -> None:
        # Built in arm order: min() over these stats breaks ties by it.
        self.arms = {arm: _ArmStats() for arm in arm_names}
        # Repeat tracking: the fraction of queries whose node was queried
        # before. Unlike cache measurements it is a pure workload property
        # — immune to which arm currently organises the caches — and high
        # repeat rates are exactly where deterministic placement (hash
        # routing's repeat locality, §3.3.2) pays.
        self.nodes: Set[int] = set()
        self.queries = 0
        self.repeats = 0
        # Committed-phase bookkeeping.
        self.decisions = 0
        self.last_greedy: Optional[str] = None
        self.previous_commit: Optional[str] = None
        # Drift detection: [fast EWMA, slow EWMA, samples, consecutive
        # exceedances] of the committed arm's latency.
        self.drift: Optional[List[float]] = None
        # Cache warmth: [hit-ratio EWMA, peak, samples]. Tracked per class:
        # the pooled ratio swings with the workload *composition* (a
        # hotspot streak vs a stretch of uniform point lookups), which
        # would read as phantom drift.
        self.hit: Optional[List[float]] = None

    def scores(self) -> Dict[str, float]:
        """Miss-ratio EWMAs of the measured arms, in arm order."""
        return {
            arm: stats.score
            for arm, stats in self.arms.items()
            if stats.score is not None
        }

    def repeat_ratio(self) -> float:
        """Fraction of this class's queries re-visiting an earlier node."""
        return self.repeats / self.queries if self.queries else 0.0

    def track_repeat(self, node: int) -> bool:
        self.queries += 1
        if node in self.nodes:
            self.repeats += 1
            return True
        self.nodes.add(node)
        return False


class AdaptiveRouting(RoutingStrategy):
    """Audition-then-commit arm selection with per-class epsilon probes."""

    name = "adaptive"

    def __init__(
        self,
        arms: Mapping[str, RoutingStrategy],
        epoch: int = 32,
        seed: int = 0,
    ) -> None:
        if not arms:
            raise ValueError("adaptive routing needs at least one arm")
        if epoch < 1:
            raise ValueError("epoch must be >= 1")
        self.arms: Dict[str, RoutingStrategy] = dict(arms)
        self._arm_names = tuple(self.arms)
        self.epoch = epoch
        self._rng = np.random.default_rng(seed)
        # Audition scheduling: each queued arm gets one epoch of all traffic.
        self._audition_queue: Deque[str] = deque()
        self._current_audition: Optional[str] = None
        self._epoch_pos = 0
        self.auditions = 0
        if len(self._arm_names) > 1:
            self._schedule_audition(AUDITION_ROUNDS)
        self._classes: Dict[str, _ClassState] = {}
        self._commit_seeded = False
        self.switches: Dict[str, int] = {}
        self.explorations = 0
        # Cluster-state EWMAs fed by RoutingFeedback.
        self._hit_rate_ewma = 0.0
        self._imbalance_ewma = 1.0
        self._feedback_seen = 0
        self._committed_feedback = 0
        # In-flight bookkeeping:
        # query id -> (class state, arm name, in_audition, is_repeat).
        self._assignments: Dict[int, Tuple[_ClassState, str, bool, bool]] = {}
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
        return sum(state.arms[arm].pulls for state in self._classes.values())

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
        for state in self._classes.values():
            for stats in state.arms.values():
                if stats.audition_cnt > 0:
                    stats.score = stats.audition_sum / stats.audition_cnt
                if stats.audition_repeat_cnt > 0:
                    stats.repeat = (
                        stats.audition_repeat_sum / stats.audition_repeat_cnt
                    )
            # A fresh generation: every class re-decides from the new
            # audition data at its next decision (sticky thereafter).
            state.previous_commit = state.last_greedy
            state.last_greedy = None
            # Warmth baselines only mean something once commitment starts:
            # the EWMAs fluctuate wildly while caches are cold, and a "drop"
            # from a lucky early peak is not workload drift.
            if state.hit is not None:
                state.hit[1] = state.hit[0]
                state.hit[2] = 0.0
        self._commit_seeded = True
        self._committed_feedback = 0

    def trigger_audition(self) -> None:
        """Re-audition every arm (drift detected or forced externally)."""
        if self._current_audition is not None or self._audition_queue:
            return
        self._schedule_audition(1)
        for state in self._classes.values():
            state.drift = None
            # Fresh accumulators: the post-drift world gets measured anew.
            for stats in state.arms.values():
                stats.reset_audition()
        self._commit_seeded = False

    # -- choice ---------------------------------------------------------------
    def exploration_rate(self, cls: str) -> float:
        """Current probe rate for ``cls``: decayed, boosted while unsettled."""
        state = self._classes.get(cls)
        decisions = state.decisions if state is not None else 0
        decayed = max(EPSILON_MIN, EPSILON / (1.0 + EPSILON_DECAY * decisions))
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
        # Sorted, not insertion order: float summation order is
        # result-visible in the arm means, so it must not depend on which
        # class happened to arrive first.
        ranked = [state.scores() for _, state in sorted(self._classes.items())]
        measured = [scores for scores in ranked if scores]
        means = {}
        for arm in self._arm_names:
            values = [scores[arm] for scores in measured if arm in scores]
            if len(values) == len(measured) and values:
                means[arm] = sum(values) / len(values)
        if not means:
            return None
        return min(means, key=means.__getitem__)

    def _class_scores(self, state: _ClassState) -> Dict[str, float]:
        """Per-arm ranking scores for one class.

        Repeat-dominated classes rank by the *repeat* miss ratio: the whole
        game for them is whether placement is stable enough that a repeat
        finds its record cached, and the overall ratio (diluted by
        first-visit compulsory misses) hides exactly that.
        """
        if state.repeat_ratio() > 0.5:
            repeat = {
                arm: stats.repeat
                for arm, stats in state.arms.items()
                if stats.repeat is not None
            }
            if len(repeat) == len(self._arm_names):
                return repeat
        return state.scores()

    def _greedy_arm(self, cls: str, state: _ClassState) -> str:
        # Sticky commit: the choice is made once per audition generation,
        # from the palindromic audition means. In-mixture probe updates are
        # too contaminated to overturn it query-by-query (a probe measures
        # an arm under *another* arm's cache organisation); corrections go
        # through drift detection → re-audition instead.
        committed = state.last_greedy
        if committed is not None:
            return committed
        tried = self._class_scores(state)
        prior = DEFAULT_PRIORS.get(cls)
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
            if gap < max(SWITCH_MARGIN * tried[anchor], 0.05):
                best = anchor
        previous = state.previous_commit
        if previous is not None and previous in tried and best != previous:
            gap = tried[previous] - tried[best]
            # Hysteresis across generations: don't churn the cache
            # organisation for a win within the noise margin.
            if gap < max(SWITCH_MARGIN * tried[previous], 0.05):
                best = previous
        if previous is not None and previous != best:
            self.switches[cls] = self.switches.get(cls, 0) + 1
            state.drift = None  # new arm, fresh drift baseline
        state.last_greedy = best
        return best

    def _probe_arm(self, state: _ClassState) -> str:
        """Epsilon-probe target: alternate runner-up and stalest arm.

        Probing the runner-up (second-lowest EWMA) is nearly free — it is
        close to optimal by construction — and accelerates correction when
        the commitment is wrong; probing the stalest arm keeps every
        estimate fresh as caches warm and the workload drifts.
        """
        tried = {
            arm: score for arm, score in state.scores().items()
            if arm != state.last_greedy
        }
        if tried and self.explorations % 4 != 0:
            return min(tried, key=tried.__getitem__)
        return min(self._arm_names, key=lambda arm: state.arms[arm].assigned)

    def _pick_arm(self, cls: str, state: _ClassState) -> Tuple[str, bool]:
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
            pick = self._probe_arm(state)
        else:
            pick = self._greedy_arm(cls, state)
        state.decisions += 1
        state.arms[pick].assigned += 1
        self._advance_epoch()
        return pick, in_audition

    def choose(self, query: Query, loads: Sequence[int]) -> Optional[int]:
        # Both the class and the repeat signal resolve through the operator
        # registry: the class feeds the per-class arms, and repeats are
        # tracked on the primary anchor (multi-anchor queries re-visiting
        # their lead anchor are repeats for placement purposes too).
        cls = query_class(query)
        state = self._classes.get(cls)
        if state is None:
            state = self._classes[cls] = _ClassState(self._arm_names)
        is_repeat = state.track_repeat(routing_keys(query)[0])
        arm_name, in_audition = self._pick_arm(cls, state)
        self._assignments[query.query_id] = (
            state, arm_name, in_audition, is_repeat,
        )
        arm = self.arms[arm_name]
        self._last_arm = arm
        return arm.choose(query, loads)

    def on_membership_change(
        self, num_processors: int, alive: Sequence[bool]
    ) -> int:
        """Forward the topology change to every arm; learned state survives.

        The per-(class, arm) score EWMAs, pull counts, commitment and
        audition schedule are all keyed by arm *name*, not processor id,
        so none of it resets — the bandit keeps its ranking while each
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
        self, feedback: RoutingFeedback, state: Optional[_ClassState]
    ) -> None:
        alpha = FEEDBACK_ALPHA
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
            if state is not None:
                entry = state.hit
                if entry is None:
                    state.hit = [hit_ratio, hit_ratio, 1.0]
                else:
                    entry[0] += (alpha / 8.0) * (hit_ratio - entry[0])
                    entry[1] = max(entry[1], entry[0])
                    entry[2] += 1.0
        loads = feedback.loads
        if loads:
            mean_load = sum(loads) / len(loads)
            imbalance = max(loads) / mean_load if mean_load > 0 else 1.0
            self._imbalance_ewma += alpha * (imbalance - self._imbalance_ewma)

    def _update_drift(self, state: _ClassState, arm: str, latency: float) -> None:
        """Track the committed arm's fast vs slow latency EWMAs per class."""
        if self.mode != "committed" or state.last_greedy != arm:
            return
        fast_alpha = FEEDBACK_ALPHA
        slow_alpha = FEEDBACK_ALPHA / 8.0
        entry = state.drift
        if entry is None:
            state.drift = [latency, latency, 1.0, 0.0]
            return
        entry[0] += fast_alpha * (latency - entry[0])
        entry[1] += slow_alpha * (latency - entry[1])
        entry[2] += 1.0
        exceeded = entry[0] > entry[1] * (1.0 + DRIFT_THRESHOLD)
        # Individual queries are wildly variable (result-set sizes differ by
        # orders of magnitude), so a single exceedance means nothing; only a
        # sustained streak marks genuine drift.
        entry[3] = entry[3] + 1.0 if exceeded else 0.0
        if entry[2] >= MIN_DRIFT_SAMPLES and entry[3] >= DRIFT_PATIENCE:
            self.trigger_audition()

    def on_feedback(self, feedback: RoutingFeedback) -> None:
        info = self._assignments.pop(feedback.query.query_id, None)
        self._update_cluster_signals(feedback, info[0] if info else None)
        if info is not None:
            self._update_scores(feedback, *info)
        if self.mode == "committed":
            self._committed_feedback += 1
            if self._committed_feedback >= MIN_DRIFT_SAMPLES and any(
                state.hit is not None
                and state.hit[2] >= MIN_DRIFT_SAMPLES
                and state.hit[1] - state.hit[0] > HIT_RATE_DROP
                for state in self._classes.values()
            ):
                # A query class lost its cache warmth: the workload moved.
                self.trigger_audition()
        for arm_strategy in self.arms.values():
            arm_strategy.on_feedback(feedback)

    def _update_scores(
        self,
        feedback: RoutingFeedback,
        state: _ClassState,
        arm: str,
        in_audition: bool,
        is_repeat: bool,
    ) -> None:
        stats = state.arms[arm]
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
                stats.audition_sum += score * weight
                stats.audition_cnt += weight
                if is_repeat:
                    stats.audition_repeat_sum += score
                    stats.audition_repeat_cnt += 1.0
            else:
                stats.score = _ewma(stats.score, score, FEEDBACK_ALPHA * weight)
                if is_repeat:
                    stats.repeat = _ewma(stats.repeat, score, FEEDBACK_ALPHA)
        stats.pulls += 1
        self._update_drift(state, arm, feedback.response_time)

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
        ranked = sorted(self._classes.items())
        return {
            "mode": self.mode,
            "auditions": self.auditions,
            "committed": {
                cls: state.last_greedy
                for cls, state in self._classes.items()
                if state.last_greedy is not None
            },
            "miss_ratio_ewma": {
                f"{cls}/{arm}": round(score, 4)
                for cls, state in ranked
                for arm, score in sorted(state.scores().items())
            },
            "pulls": {
                f"{cls}/{arm}": stats.pulls
                for cls, state in ranked
                for arm, stats in sorted(state.arms.items())
                if stats.pulls
            },
        }
