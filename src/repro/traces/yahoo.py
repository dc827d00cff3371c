"""Synthetic stand-in for the Yahoo! datacenter trace (paper ref. [11]).

Chen et al. ("A first look at inter-data center traffic characteristics via
Yahoo! datasets", INFOCOM 2011) characterize Yahoo!'s traffic as strongly
heavy-tailed: a large population of modest flows plus a small fraction of
elephants carrying most bytes. The published dataset is not redistributable,
so this generator reproduces that shape:

* **demand** — log-normal body (median ``demand_median`` Mbit/s) with a
  Pareto elephant tail mixed in with probability ``elephant_prob``; clamped
  to ``[demand_min, demand_max]`` so a single flow can never exceed a link.
* **duration** — log-normal (median ``duration_median`` s), heavy right
  tail, matching the wide duration spread the trace exhibits.
* **endpoints** — synthetic anonymized keys hashed onto the Fat-Tree's
  hosts, exactly the mechanism the paper applies to the real trace's
  anonymized IPs.

Absolute byte counts do not matter for the reproduced results (DESIGN.md §4):
the scheduling behaviour depends on the heavy tail existing, which creates
heavy update events and head-of-line blocking.
"""

from __future__ import annotations

from typing import Sequence

from repro.traces.base import TraceGenerator, clamp, lognormal, pareto


class YahooLikeTrace(TraceGenerator):
    """Heavy-tailed Yahoo!-like background traffic generator.

    Args:
        hosts: hosts of the target network.
        seed: RNG seed.
        demand_median: median flow demand in Mbit/s.
        demand_sigma: log-normal shape of the demand body.
        elephant_prob: probability a flow is drawn from the elephant tail.
        elephant_scale: Pareto scale (Mbit/s) of the elephant tail.
        elephant_alpha: Pareto shape of the elephant tail (smaller = heavier).
        demand_min / demand_max: clamp bounds in Mbit/s.
        duration_median: median flow duration in seconds.
        duration_sigma: log-normal shape of the duration distribution.
        endpoint_skew: Zipf exponent for hot-host concentration (see
            :class:`~repro.traces.base.TraceGenerator`).
    """

    name = "yahoo-like"

    def __init__(self, hosts: Sequence[str], seed: int = 0,
                 demand_median: float = 15.0, demand_sigma: float = 0.8,
                 elephant_prob: float = 0.08, elephant_scale: float = 60.0,
                 elephant_alpha: float = 1.5, demand_min: float = 1.0,
                 demand_max: float = 200.0, duration_median: float = 8.0,
                 duration_sigma: float = 1.0, endpoint_skew: float = 0.0):
        super().__init__(hosts, seed, endpoint_skew=endpoint_skew)
        if not 0.0 <= elephant_prob <= 1.0:
            raise ValueError("elephant_prob must be within [0, 1]")
        if demand_min <= 0 or demand_max < demand_min:
            raise ValueError("need 0 < demand_min <= demand_max")
        self.demand_median = demand_median
        self.demand_sigma = demand_sigma
        self.elephant_prob = elephant_prob
        self.elephant_scale = elephant_scale
        self.elephant_alpha = elephant_alpha
        self.demand_min = demand_min
        self.demand_max = demand_max
        self.duration_median = duration_median
        self.duration_sigma = duration_sigma

    def sample_demand(self) -> float:
        rng = self._rng
        if rng.random() < self.elephant_prob:
            demand = pareto(rng, self.elephant_scale, self.elephant_alpha)
        else:
            demand = lognormal(rng, self.demand_median, self.demand_sigma)
        return clamp(demand, self.demand_min, self.demand_max)

    def sample_duration(self) -> float:
        return max(0.05, lognormal(self._rng, self.duration_median,
                                   self.duration_sigma))
