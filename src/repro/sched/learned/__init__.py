"""Learned candidate ranking for the LMTF probe loop (L-LMTF).

The package splits into the three stages of the rank-then-verify pattern:

* :mod:`~repro.sched.learned.features` — cheap, RNG-free per-candidate
  feature vectors read straight off the indexed link-state kernel.
* :mod:`~repro.sched.learned.model` — a pure-stdlib online ridge
  regressor with deterministic training and JSON save/load.
* :mod:`~repro.sched.learned.scheduler` — the L-LMTF scheduler: rank all
  sampled candidates by predicted cost, exactly probe only the top-B,
  fall back to full probing whenever confidence is low.

Registered as scheduler spec ``{"kind": "learned", ...}``; see
``docs/architecture.md`` for the pipeline description and
``repro ablation-learned`` for the budget/threshold ablation against exact
LMTF's schedule.
"""

from repro.sched.learned.features import FEATURE_NAMES, FeatureExtractor
from repro.sched.learned.model import OnlineRidge
from repro.sched.learned.scheduler import LearnedLMTFScheduler

__all__ = [
    "FEATURE_NAMES",
    "FeatureExtractor",
    "LearnedLMTFScheduler",
    "OnlineRidge",
]
