"""Synthetic benchmark generator: determinism, balance, calibration bands."""

import numpy as np
import pytest

from goca.eval import kmeans, majority_vote_metrics
from goca.synth_data import SynthConfig, generate


def _mean_accuracy(view, labels, repeats, restarts):
    """Mean majority-vote accuracy of 4-means with the best of ``restarts``
    runs, repeat i seeded (0, i)."""
    return sum(
        majority_vote_metrics(kmeans(view, 4, seed=(0, i), restarts=restarts), labels).accuracy
        for i in range(repeats)
    ) / repeats


class TestGenerate:
    def test_deterministic_under_seed(self):
        a = generate(SynthConfig(seed=42))
        b = generate(SynthConfig(seed=42))
        assert np.array_equal(a.view_a, b.view_a)
        assert np.array_equal(a.view_b, b.view_b)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(seed=0))
        b = generate(SynthConfig(seed=1))
        assert not np.array_equal(a.view_a, b.view_a)

    def test_label_balance(self):
        data = generate(SynthConfig(num_classes=5, samples_per_class=17, signal_dim=6))
        values, counts = np.unique(data.labels, return_counts=True)
        assert np.array_equal(values, np.arange(5))
        assert np.all(counts == 17)

    def test_shapes(self):
        cfg = SynthConfig(num_classes=3, samples_per_class=10, signal_dim=5, distractor_dim=4)
        data = generate(cfg)
        assert data.view_a.shape == (30, 9)
        assert data.view_b.shape == (30, 5)
        assert len(data) == 30

    def test_noiseless_config_is_exactly_clusterable(self):
        cfg = SynthConfig(distractor_strength=0.0, view_a_noise=0.0, view_b_noise=0.0)
        data = generate(cfg)
        for view in (data.view_a, data.view_b):
            assert _mean_accuracy(view, data.labels, 3, 5) == pytest.approx(1.0)

    def test_rejects_more_classes_than_signal_dims(self):
        with pytest.raises(ValueError, match="signal_dim"):
            SynthConfig(num_classes=8, signal_dim=6)


class TestCalibrationBands:
    """Raw-view clustering quality of the locked default configuration."""

    def test_view_a_clusters_by_distractor(self):
        data = generate(SynthConfig())
        assert _mean_accuracy(data.view_a, data.labels, 10, 3) <= 0.45

    def test_view_b_is_class_faithful_but_noisy(self):
        data = generate(SynthConfig())
        assert 0.5 <= _mean_accuracy(data.view_b, data.labels, 10, 3) <= 0.9

    def test_distractor_mode_independent_of_class(self):
        data = generate(SynthConfig())
        corr = np.corrcoef(data.distractor_modes, data.labels)[0, 1]
        assert abs(corr) <= 0.1
