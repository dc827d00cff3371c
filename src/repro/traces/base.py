"""Trace-generator interface and shared distribution helpers.

The paper's evaluation is trace-driven: background traffic comes from a
Yahoo! datacenter trace [11] and update-event flows follow the datacenter
traffic characteristics of Benson et al. [12]. Both datasets are proprietary,
so this package provides synthetic generators matching the published
*distributional shape* (heavy-tailed sizes, hashed endpoint placement) — see
DESIGN.md §4 for the substitution argument.
"""

from __future__ import annotations

import abc
import math
import random
from hashlib import sha256
from typing import Sequence

from repro.core.flow import Flow, FlowKind, next_flow_id


def lognormal(rng: random.Random, median: float, sigma: float) -> float:
    """Sample a log-normal with the given *median* (not mean) and shape."""
    return median * math.exp(sigma * rng.gauss(0.0, 1.0))


def pareto(rng: random.Random, xm: float, alpha: float) -> float:
    """Sample a Pareto with scale ``xm`` and shape ``alpha``."""
    u = rng.random()
    # Clamp to avoid division by zero on the (measure-zero) u == 0 draw.
    u = max(u, 1e-12)
    return xm / u ** (1.0 / alpha)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``."""
    return max(low, min(high, value))


def hash_endpoints(hosts: Sequence[str], src_key: str,
                   dst_key: str) -> tuple[str, str]:
    """Map two opaque endpoint keys onto distinct hosts, like the paper's
    hashing of anonymized trace IPs onto its Fat-Tree.

    The same keys always map to the same hosts; when both keys collide onto
    one host the destination is shifted to the next host.
    """
    count = len(hosts)
    if count < 2:
        raise ValueError("need at least two hosts to place a flow")
    # A key's bucket: the first 8 bytes of its SHA-256, big-endian.
    si = int.from_bytes(sha256(src_key.encode()).digest()[:8], "big") % count
    di = int.from_bytes(sha256(dst_key.encode()).digest()[:8], "big") % count
    if si == di:
        di = (di + 1) % count
    return hosts[si], hosts[di]


class TraceGenerator(abc.ABC):
    """Generates background flows over a fixed host set.

    Subclasses define the size/rate distributions; endpoint placement and
    flow-object assembly are shared.

    Args:
        hosts: hosts of the target network.
        seed: RNG seed; every generator instance owns its RNG so two
            generators with the same seed produce identical traces.
        endpoint_skew: Zipf exponent over a seed-permuted host ranking.
            ``0`` (default) picks endpoints uniformly; positive values
            concentrate traffic on a few hot hosts/racks, which both traces
            the paper builds on report (datacenter traffic is strongly
            skewed). Skewed background is what produces the congested links
            that make migration necessary at the paper's utilization levels.
    """

    name: str = "trace"

    def __init__(self, hosts: Sequence[str], seed: int = 0,
                 endpoint_skew: float = 0.0):
        if len(hosts) < 2:
            raise ValueError("a trace needs at least two hosts")
        if endpoint_skew < 0:
            raise ValueError("endpoint_skew must be >= 0")
        self._hosts = list(hosts)
        self._rng = random.Random(seed)
        self._serial = 0
        # The prefixes of the synthetic keys ``sample_endpoints`` hashes.
        self._src_prefix = f"{self.name}-src-"
        self._dst_prefix = f"{self.name}-dst-"
        self.endpoint_skew = endpoint_skew
        if endpoint_skew > 0:
            ranked = list(self._hosts)
            self._rng.shuffle(ranked)
            weights = [1.0 / (rank + 1) ** endpoint_skew
                       for rank in range(len(ranked))]
            total = sum(weights)
            self._skewed_hosts = ranked
            self._skew_weights = [w / total for w in weights]
        else:
            self._skewed_hosts = None
            self._skew_weights = None

    @property
    def hosts(self) -> list[str]:
        return list(self._hosts)

    @property
    def rng(self) -> random.Random:
        return self._rng

    # ----------------------------------------------------------- generation

    @abc.abstractmethod
    def sample_demand(self) -> float:
        """Draw a flow bandwidth demand in Mbit/s."""

    @abc.abstractmethod
    def sample_duration(self) -> float:
        """Draw a flow duration in seconds."""

    def sample_endpoints(self) -> tuple[str, str]:
        """Pick src/dst hosts — hashed synthetic keys when uniform, weighted
        Zipf draws when ``endpoint_skew`` is set."""
        self._serial += 1
        if self._skewed_hosts is not None:
            src, dst = self._rng.choices(self._skewed_hosts,
                                         weights=self._skew_weights, k=2)
            while dst == src:
                dst = self._rng.choices(self._skewed_hosts,
                                        weights=self._skew_weights, k=1)[0]
            return src, dst
        randrange = self._rng.randrange
        src_key = f"{self._src_prefix}{randrange(2 ** 32)}"
        dst_key = f"{self._dst_prefix}{randrange(2 ** 32)}"
        return hash_endpoints(self._hosts, src_key, dst_key)

    def sample_flow(self, kind: FlowKind = FlowKind.BACKGROUND,
                    permanent: bool = False) -> Flow:
        """Draw one complete flow.

        Args:
            kind: background vs update flow tagging.
            permanent: when True the flow has no duration (static background
                traffic, as in the paper's Fig. 7 experiment).
        """
        src, dst = self.sample_endpoints()
        demand = self.sample_demand()
        duration = None if permanent else self.sample_duration()
        size = demand * duration if duration is not None else 0.0
        # Positional: flow_id, src, dst, demand, size, duration, event_id.
        return Flow(next_flow_id(), src, dst, demand, size, duration, None,
                    kind)

    def flows(self, count: int, **kwargs) -> list[Flow]:
        """Draw ``count`` flows."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.sample_flow(**kwargs) for __ in range(count)]
