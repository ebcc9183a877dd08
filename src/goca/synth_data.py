"""Synthetic two-view benchmark with a view-specific failure mode each.

View A carries a clean class signal next to a dominant distractor block:
every sample gets one of several random "background" directions, chosen
independently of its class and scaled well above the class separation,
so clustering raw view A latches onto the distractor.  View B carries
the same class signal with much heavier isotropic noise, so raw view B
clusters by class but imperfectly.  Training that fuses the two views
can beat both single views, which is what the benchmark measures.

Class centroids are orthonormal (scaled by ``class_scale``), so the
number of classes may not exceed the signal dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ot_core import check_config

__all__ = ["SynthConfig", "SynthDataset", "generate"]


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int = 4
    samples_per_class: int = 200
    signal_dim: int = 6
    distractor_dim: int = 6
    num_distractor_modes: int = 16
    distractor_strength: float = 3.0
    view_a_noise: float = 0.1
    view_b_noise: float = 0.8
    class_scale: float = 1.5
    seed: int = 0

    def __post_init__(self):
        check_config(self, {
            "num_classes": 2, "samples_per_class": 1, "signal_dim": 1, "distractor_dim": 1,
            "num_distractor_modes": 1, "distractor_strength": 0, "view_a_noise": 0,
            "view_b_noise": 0, "class_scale": "positive", "seed": 0,
        })
        if self.num_classes > self.signal_dim:
            raise ValueError(
                f"num_classes must be at most signal_dim = {self.signal_dim}, got {self.num_classes}"
            )


@dataclass
class SynthDataset:
    """Row-aligned paired views; labels and distractor modes are held out
    of training and used only by evaluation and diagnostics."""

    view_a: np.ndarray
    view_b: np.ndarray
    labels: np.ndarray
    distractor_modes: np.ndarray

    def __len__(self) -> int:
        return self.labels.shape[0]


def generate(cfg: SynthConfig) -> SynthDataset:
    """Deterministic under the config seed; exactly samples_per_class per class."""
    rng = np.random.default_rng(cfg.seed)
    total = cfg.num_classes * cfg.samples_per_class

    basis, _ = np.linalg.qr(rng.standard_normal((cfg.signal_dim, cfg.num_classes)))
    centroids = cfg.class_scale * basis.T

    modes = rng.standard_normal((cfg.num_distractor_modes, cfg.distractor_dim))
    modes /= np.linalg.norm(modes, axis=1, keepdims=True)

    labels = np.repeat(np.arange(cfg.num_classes), cfg.samples_per_class)
    mode_idx = rng.integers(0, cfg.num_distractor_modes, size=total)

    signal_a = centroids[labels] + cfg.view_a_noise * rng.standard_normal((total, cfg.signal_dim))
    view_a = np.concatenate([signal_a, cfg.distractor_strength * modes[mode_idx]], axis=1)
    view_b = centroids[labels] + cfg.view_b_noise * rng.standard_normal((total, cfg.signal_dim))
    return SynthDataset(view_a, view_b, labels, mode_idx)
