"""L-LMTF — LMTF with learned candidate ranking (``kind: "learned"``).

Exact LMTF probes all ``α+1`` sampled candidates with full ``Cost(U)``
planning every round; at ~ms per cache miss that probe loop dominates
per-round wall clock (``planner.plan_self_ms`` in ``bench/``). L-LMTF
keeps LMTF's sampling, admission rule, and probe-cache protocol
**bit-for-bit** but inserts a ranking stage between them:

1. ``probe_targets`` samples the usual ``α+1`` candidates (consuming the
   identical private-RNG draws, so sampling stays comparable with exact
   LMTF run-for-run), extracts a cheap feature vector per candidate
   (:mod:`repro.sched.learned.features` — no planning, no RNG), and asks
   the online model (:class:`~repro.sched.learned.model.OnlineRidge`) for
   a predicted cost.
2. When the model is *confident* — warmed up past ``warmup`` training
   samples and with prediction drift ``ewma_error`` at or under
   ``error_threshold`` — only the ``budget`` best-predicted candidates
   (the queue head always among them) are exactly probed. The rest are
   never planned this round: that is the amortization.
3. ``decide`` trains the model on every (features, actual cost) pair the
   round produced, then admits via the inherited LMTF rule
   (``pick_cheapest`` over the probed subset).

When confidence fails — cold start, or drift past the threshold — the
round degrades to **full probing**, exactly LMTF, and every probe becomes
a training sample. Quality therefore degrades gracefully, never silently:
a drifting model loses its speedup, not its schedule quality, and the
fallback is visible in metrics (``fallback_rounds``) and Prometheus
gauges.

The queue head is always probed even under budget, so the FIFO-fairness
floor of LMTF survives arbitrary model error: the head is admitted
whenever it is the cheapest feasible *probed* candidate, and a wrong
ranking can only delay a non-head bargain, never starve the head.

Composition: the class only overrides ``probe_targets``/``decide``; the
inherited ``select`` probes exactly the returned shortlist through the
inherited cache protocol and reports it as ``RoundDecision.probed``, so
only the shortlist enters the PROBED lifecycle state. Ranking reads no RNG
and model updates happen only in ``decide``, so the schedule is identical
across repeat runs and worker processes.

Labels are trained on ``log1p(cost)``: costs span orders of magnitude and
the ranking only needs relative order, which the log scale preserves while
keeping SGD steps bounded. ``error_threshold`` is on that log scale
(0.5 ≈ trusting predictions within ~65% multiplicative error).
"""

from __future__ import annotations

import math

from repro.core.plan import EventPlan
from repro.sched.base import QueuedEvent, RoundDecision, SchedulingContext
from repro.sched.learned.features import FEATURE_NAMES, FeatureExtractor
from repro.sched.learned.model import OnlineRidge
from repro.sched.lmtf import LMTFScheduler

__all__ = ["LearnedLMTFScheduler"]

#: Smoothing for the scheduler's recency features (congestion/faults).
_RECENCY_BETA = 0.9


class LearnedLMTFScheduler(LMTFScheduler):
    """LMTF that exactly probes only the predicted-cheapest candidates.

    Args:
        alpha: LMTF sampling width (non-head candidates per round).
        seed: private sampling-RNG seed (same stream as exact LMTF).
        probe_cache: memoize exact probes by footprint (inherited).
            Unlike exact LMTF, turning it off changes the schedule: the
            ``fault_pressure`` feature is an EWMA of cache invalidations
            and stays 0 without a cache.
        budget: exact probes per confident round (>= 1). The queue head
            is always one of them. ``budget >= alpha + 1`` disables
            skipping entirely.
        warmup: training samples required before predictions are trusted.
        error_threshold: max ``ewma_error`` (log1p-cost scale) before the
            scheduler falls back to full probing.
        model_path: optional JSON model (``OnlineRidge.save``) to start
            from — e.g. one written by :meth:`save_model` after an earlier
            run. Training continues online on top of it.
        lr / l2: optimizer hyper-parameters for a fresh model (ignored
            when ``model_path`` is given).
    """

    name = "l-lmtf"

    def __init__(self, alpha: int = 4, seed: int = 0,
                 probe_cache: bool = True, budget: int = 2,
                 warmup: int = 64, error_threshold: float = 0.5,
                 model_path: str | None = None,
                 lr: float = 0.05, l2: float = 1e-4):
        super().__init__(alpha=alpha, seed=seed, probe_cache=probe_cache)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        if error_threshold <= 0.0:
            raise ValueError(
                f"error_threshold must be > 0, got {error_threshold}")
        self.budget = budget
        self.warmup = warmup
        self.error_threshold = error_threshold
        if model_path is not None:
            self._model = OnlineRidge.load(model_path)
            if self._model.dim != len(FEATURE_NAMES):
                raise ValueError(
                    f"model at {model_path!r} has dim {self._model.dim}, "
                    f"expected {len(FEATURE_NAMES)}")
        else:
            self._model = OnlineRidge(dim=len(FEATURE_NAMES), lr=lr, l2=l2)
        # Snapshot for reset(): a reset run must retrain from the same
        # starting point, or back-to-back runs would not be comparable.
        self._model_snapshot = self._model.to_dict()
        self._extractor: FeatureExtractor | None = None
        self._congestion = 0.0
        self._fault_pressure = 0.0
        # Per-round ranking state (probe_targets -> decide handoff).
        self._round_features: dict[str, list[float]] = {}
        self._round_fallback = False
        self._round_skipped = 0

    # ------------------------------------------------------------ properties

    @property
    def model(self) -> OnlineRidge:
        """The live cost model (trains in place every round)."""
        return self._model

    @property
    def extractor(self) -> FeatureExtractor | None:
        """The feature extractor, once a round has bound it to a planner."""
        return self._extractor

    @property
    def prediction_error_ewma(self) -> float:
        """Drift tracker: EWMA of absolute error on the log1p-cost scale."""
        return self._model.ewma_error

    @property
    def fallback_active(self) -> bool:
        """True while the scheduler would full-probe the next round."""
        return not self._confident()

    def save_model(self, path: str) -> None:
        """Persist the current model state as JSON (``OnlineRidge.save``)."""
        self._model.save(path)

    def reset(self) -> None:
        super().reset()
        self._model = OnlineRidge.from_dict(self._model_snapshot)
        if self._extractor is not None:
            self._extractor.clear()
        self._congestion = 0.0
        self._fault_pressure = 0.0
        self._round_features = {}
        self._round_fallback = False
        self._round_skipped = 0

    # ------------------------------------------------------------------ API

    def probe_targets(self, ctx: SchedulingContext) -> list[QueuedEvent]:
        """Sample ``α+1`` candidates, rank them, return the probe set.

        Confident rounds return the ``budget`` best-predicted candidates
        (head forced in), in queue (``seq``) order; fallback rounds return
        all of them — byte-identical to exact LMTF's probe set.
        """
        candidates = self.sample_candidates(ctx.queue)
        extractor = self._bind_extractor(ctx)
        self._round_features = {}
        self._round_skipped = 0
        predicted: dict[str, float] = {}
        for queued in candidates:
            vec = extractor.extract(queued, ctx.network,
                                    congestion=self._congestion,
                                    fault_pressure=self._fault_pressure)
            self._round_features[queued.event.event_id] = vec
            predicted[queued.event.event_id] = self._model.predict(vec)
        self._round_fallback = not self._confident()
        if self._round_fallback or self.budget >= len(candidates):
            return candidates
        head = candidates[0]  # lowest seq == queue head after the sort
        ranked = sorted(
            candidates,
            key=lambda q: (predicted[q.event.event_id], q.seq))
        chosen = ranked[:self.budget]
        if all(c.seq != head.seq for c in chosen):
            chosen[-1] = head
        chosen.sort(key=lambda q: q.seq)
        self._round_skipped = len(candidates) - len(chosen)
        return chosen

    def decide(self, ctx: SchedulingContext,
               probes: list[tuple[QueuedEvent, EventPlan]],
               ops: int) -> RoundDecision:
        """Train on the round's exact probes, then admit via LMTF."""
        error_sum = 0.0
        samples = 0
        for queued, plan in probes:
            vec = self._round_features.get(queued.event.event_id)
            if vec is None or not plan.feasible:
                # Infeasible plans carry no meaningful cost label; the
                # model only ranks feasible work.
                continue
            error_sum += self._model.update(vec, math.log1p(plan.cost))
            samples += 1
        decision = super().decide(ctx, probes, ops)
        decision.probes_skipped = self._round_skipped
        decision.prediction_samples = samples
        decision.prediction_error_sum = error_sum
        decision.fallback = self._round_fallback
        if decision.admissions:
            admitted_cost = sum(a.plan.cost for a in decision.admissions)
            self._congestion = (_RECENCY_BETA * self._congestion
                                + (1.0 - _RECENCY_BETA)
                                * math.log1p(admitted_cost))
        self._fault_pressure = (_RECENCY_BETA * self._fault_pressure
                                + (1.0 - _RECENCY_BETA)
                                * decision.cache_invalidations)
        if self._extractor is not None:
            for admission in decision.admissions:
                if admission.completes_event:
                    self._extractor.forget_event(
                        admission.queued.event.event_id)
        self._round_features = {}
        return decision

    # ------------------------------------------------------------ internals

    def _confident(self) -> bool:
        """Trust rankings only once trained past warmup and under drift."""
        return (self._model.samples >= self.warmup
                and self._model.ewma_error <= self.error_threshold)

    def _bind_extractor(self, ctx: SchedulingContext) -> FeatureExtractor:
        """The extractor for this run's planner (rebuilt if it changed)."""
        extractor = self._extractor
        if extractor is None or extractor.provider is not ctx.planner.provider:
            extractor = FeatureExtractor(ctx.planner)
            self._extractor = extractor
        return extractor

    def __repr__(self) -> str:
        return (f"<LearnedLMTFScheduler alpha={self.alpha} "
                f"budget={self.budget} samples={self._model.samples} "
                f"ewma_error={self._model.ewma_error:.4f} "
                f"fallback={self.fallback_active}>")
