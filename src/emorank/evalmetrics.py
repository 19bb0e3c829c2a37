"""Objective evaluation: mel-cepstral distortion and rank correlation.

``scipy.fft`` and ``scipy.stats`` are imported by the functions that use
them, not here: every command imports this module through the CLI, and
the two together cost about a second and 50 MB of resident memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

MCD_SCALE = 10.0 / np.log(10.0)


@dataclass
class MetricReport:
    name: str
    value: float
    units: str
    n_items: int
    per_item: list = field(default_factory=list)  # (item_id, value) pairs

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"metric '{self.name}' is not finite: {self.value}")
        if self.n_items < 1:
            raise ValueError(f"metric '{self.name}' has n_items {self.n_items}")

    def to_json(self) -> str:
        return json.dumps({
            "metric": self.name, "value": self.value, "units": self.units,
            "n_items": self.n_items,
            "per_item": [{"id": i, "value": v} for i, v in self.per_item],
        }, indent=2, sort_keys=True)

    def format_table(self) -> str:
        lines = [f"{self.name} ({self.units}), {self.n_items} item(s)",
                 f"  overall: {self.value:.6f}"]
        for item_id, v in self.per_item:
            lines.append(f"  {item_id}: {v:.6f}")
        return "\n".join(lines)


def mel_cepstra(log_mel: np.ndarray, order: int = 13) -> np.ndarray:
    """Cepstra from log-mel frames via orthonormal DCT-II; keeps c0..c_order."""
    import scipy.fft
    log_mel = np.asarray(log_mel, dtype=np.float64)
    if log_mel.ndim != 2:
        raise ValueError(f"expected (T, n_mels), got shape {log_mel.shape}")
    if not 1 <= order < log_mel.shape[1]:
        raise ValueError(f"order must be in [1, {log_mel.shape[1] - 1}], got {order}")
    return scipy.fft.dct(log_mel, type=2, norm="ortho", axis=1)[:, : order + 1]


def mcd(seq_a: np.ndarray, seq_b: np.ndarray) -> float:
    """Mean per-frame mel-cepstral distortion in dB.

    (10/ln10) * sqrt(2 * sum_d (c_d - c'_d)^2) per frame, averaged over
    frames, with coefficient 0 (the energy term) excluded. Sequences must be
    pre-aligned: equal frame counts and dimensions are required, no warping.
    """
    a = np.asarray(seq_a, dtype=np.float64)
    b = np.asarray(seq_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[1] < 2:
        raise ValueError(f"expected (T, D>=2) cepstra, got shape {a.shape}")
    diff = a[:, 1:] - b[:, 1:]
    per_frame = MCD_SCALE * np.sqrt(2.0 * np.sum(diff * diff, axis=1))
    return float(per_frame.mean())


def mcd_report(pairs: list) -> MetricReport:
    """MCD over (item_id, seq_a, seq_b) triples; overall = mean of items."""
    per_item = [(item_id, mcd(a, b)) for item_id, a, b in pairs]
    value = float(np.mean([v for _, v in per_item]))
    return MetricReport("MCD", value, "dB", len(per_item), per_item)


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson over average-tie fractional ranks."""
    import scipy.stats
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"need equal-length 1-D inputs, got {xs.shape} vs {ys.shape}")
    if xs.size < 2:
        raise ValueError("need at least 2 observations")
    rx = scipy.stats.rankdata(xs, method="average")
    ry = scipy.stats.rankdata(ys, method="average")
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        raise ValueError("zero variance in ranks")
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))
