"""Pure-stdlib online ridge regressor for probe-cost prediction.

The learned scheduler (:mod:`repro.sched.learned.scheduler`) needs a cost
predictor that is (a) cheap enough to evaluate for every sampled candidate
— its whole point is replacing ~ms exact probes with ~µs predictions —
(b) trainable *online* from the probes the scheduler performs anyway, and
(c) bit-deterministic: the same feature/label stream must always produce
the same weights, because L-LMTF's schedule is pinned seed-deterministic
across repeat runs and worker processes.

:class:`OnlineRidge` is an SGD-trained linear model with L2 shrinkage over
*standardized* features (running per-feature mean/variance via Welford's
recurrences, which are themselves deterministic). No numpy, no RNG, no
wall clock — just float arithmetic in a fixed order. ``save``/``load``
round-trip the full state (weights, normalizer moments, error tracker)
through JSON, so a model trained on one trace can be shipped to another
run via the ``{"kind": "learned", "model_path": ...}`` scheduler spec.

Prediction-quality self-assessment is part of the model: ``ewma_error``
tracks an exponentially-weighted mean of absolute prediction error on the
(transformed) label scale, and the scheduler compares it against its
drift threshold to decide when to stop trusting rankings and fall back to
full probing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.core.ioutil import atomic_write_text

__all__ = ["OnlineRidge"]


class OnlineRidge:
    """Online linear regression with L2 regularization and standardization.

    Args:
        dim: feature-vector length (fixed for the model's lifetime).
        lr: SGD learning rate (applied to standardized features).
        l2: L2 shrinkage coefficient per update.
        ewma_beta: smoothing factor of the absolute-error EWMA
            (``error <- beta * error + (1 - beta) * |residual|``).
    """

    def __init__(self, dim: int, lr: float = 0.05, l2: float = 1e-4,
                 ewma_beta: float = 0.98):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 0.0 < lr <= 1.0:
            raise ValueError(f"lr must be in (0, 1], got {lr}")
        if l2 < 0.0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        if not 0.0 <= ewma_beta < 1.0:
            raise ValueError(f"ewma_beta must be in [0, 1), got {ewma_beta}")
        self.dim = dim
        self.lr = lr
        self.l2 = l2
        self.ewma_beta = ewma_beta
        self.weights = [0.0] * dim
        self.bias = 0.0
        self.samples = 0
        self.ewma_error = 0.0
        # Welford running moments for per-feature standardization.
        self._mean = [0.0] * dim
        self._m2 = [0.0] * dim

    # ----------------------------------------------------------- inference

    def predict(self, features: list[float]) -> float:
        """The model's estimate for ``features`` (label scale)."""
        z = self._standardize(features)
        total = self.bias
        for w, x in zip(self.weights, z):
            total += w * x
        return total

    def update(self, features: list[float], label: float) -> float:
        """One SGD step on ``(features, label)``.

        Returns the absolute prediction error *before* the step — the
        honest out-of-sample residual, which also feeds ``ewma_error``.
        The normalizer moments are advanced first so early samples do not
        divide by a zero variance.
        """
        self.samples += 1
        self._observe(features)
        z = self._standardize(features)
        predicted = self.bias + sum(w * x for w, x in zip(self.weights, z))
        residual = label - predicted
        error = abs(residual)
        self.ewma_error = (self.ewma_beta * self.ewma_error
                           + (1.0 - self.ewma_beta) * error)
        step = self.lr * residual
        shrink = 1.0 - self.lr * self.l2
        for i, x in enumerate(z):
            self.weights[i] = self.weights[i] * shrink + step * x
        self.bias += step
        return error

    # -------------------------------------------------------- normalization

    def _observe(self, features: list[float]) -> None:
        if len(features) != self.dim:
            raise ValueError(f"expected {self.dim} features, "
                             f"got {len(features)}")
        n = self.samples
        for i, x in enumerate(features):
            delta = x - self._mean[i]
            self._mean[i] += delta / n
            self._m2[i] += delta * (x - self._mean[i])

    def _standardize(self, features: list[float]) -> list[float]:
        if len(features) != self.dim:
            raise ValueError(f"expected {self.dim} features, "
                             f"got {len(features)}")
        if self.samples < 2:
            return [0.0] * self.dim
        n = self.samples
        out = []
        for i, x in enumerate(features):
            var = self._m2[i] / (n - 1)
            std = math.sqrt(var) if var > 1e-12 else 1.0
            out.append((x - self._mean[i]) / std)
        return out

    # ------------------------------------------------------------ save/load

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the full training state."""
        return {
            "dim": self.dim,
            "lr": self.lr,
            "l2": self.l2,
            "ewma_beta": self.ewma_beta,
            "weights": list(self.weights),
            "bias": self.bias,
            "samples": self.samples,
            "ewma_error": self.ewma_error,
            "mean": list(self._mean),
            "m2": list(self._m2),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OnlineRidge":
        """Rebuild a model bit-for-bit from a :meth:`to_dict` payload.

        Floats survive the JSON round-trip exactly (``json`` serializes
        via ``repr``), so a loaded model predicts — and keeps training —
        identically to the one that was saved.
        """
        model = cls(dim=int(data["dim"]), lr=data["lr"], l2=data["l2"],
                    ewma_beta=data["ewma_beta"])
        model.weights = [float(w) for w in data["weights"]]
        model.bias = float(data["bias"])
        model.samples = int(data["samples"])
        model.ewma_error = float(data["ewma_error"])
        model._mean = [float(m) for m in data["mean"]]
        model._m2 = [float(m) for m in data["m2"]]
        if len(model.weights) != model.dim or len(model._mean) != model.dim \
                or len(model._m2) != model.dim:
            raise ValueError("model payload dimensions disagree with 'dim'")
        return model

    def save(self, path: "str | Path") -> None:
        """Atomically write :meth:`to_dict` as JSON to ``path``."""
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2,
                                           sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: "str | Path") -> "OnlineRidge":
        """Read a model previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(
            encoding="utf-8")))

    def __repr__(self) -> str:
        return (f"<OnlineRidge dim={self.dim} samples={self.samples} "
                f"ewma_error={self.ewma_error:.4f}>")
