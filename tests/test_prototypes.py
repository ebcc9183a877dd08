"""Hyperspherical prototype placement: loss, subgradient, optimizer."""

import math

import numpy as np
import pytest

from goca.oracle import finite_diff_grad
from goca.ot_core import unit_rows
from goca.prototypes import (
    ProtoOptConfig,
    _StackIndex,
    _descend,
    _loss_and_nearest,
    _subgradient,
    max_pairwise_cosine,
    optimize_prototypes,
    project_to_sphere,
    prototype_loss,
    prototype_loss_grad,
)

from _util import (
    _reference_grad,
    _reference_loss,
    _reference_unit_rows,
    random_unit_rows,
    sequential_prototypes_reference,
)


def _non_degenerate_unit_rows(rng, rows, dim, gap=1e-3):
    """Random unit rows whose per-row argmax cosine is unique by `gap`."""
    while True:
        w = random_unit_rows(rng, rows, dim)
        sims = w @ w.T
        np.fill_diagonal(sims, -np.inf)
        top2 = np.sort(sims, axis=1)[:, -2:]
        if np.min(top2[:, 1] - top2[:, 0]) > gap:
            return w


class TestPrototypeLoss:
    def test_orthogonal_pair(self):
        assert prototype_loss(np.eye(2)) == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_pair(self):
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert prototype_loss(w) == pytest.approx(-1.0, abs=1e-15)

    def test_regular_tetrahedron(self):
        w = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        ) / math.sqrt(3.0)
        assert prototype_loss(w) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        w = random_unit_rows(rng, 6, 4)
        perm = rng.permutation(6)
        assert prototype_loss(w[perm]) == pytest.approx(prototype_loss(w), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        w = random_unit_rows(rng, 5, 4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert prototype_loss(w @ q) == pytest.approx(prototype_loss(w), abs=1e-12)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            prototype_loss(np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("check", [prototype_loss, prototype_loss_grad, max_pairwise_cosine])
    def test_rejects_non_finite_rows(self, check):
        with pytest.raises(ValueError, match="must be unit-norm; row 0"):
            check(np.full((3, 2), np.nan))
        w = random_unit_rows(np.random.default_rng(6), 4, 3)
        w[3, 0] = np.nan
        with pytest.raises(ValueError, match="must be unit-norm; row 3"):
            check(w)


class TestPrototypeGrad:
    def test_matches_finite_differences_near_antipodal(self):
        rng = np.random.default_rng(2)
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w = project_to_sphere(w + 1e-3 * rng.standard_normal(w.shape))
        analytic = prototype_loss_grad(w)
        fd = finite_diff_grad(lambda v: prototype_loss(v.reshape(2, 2)), w.ravel(), step=1e-6)
        assert np.max(np.abs(analytic.ravel() - fd)) <= 1e-5

    def test_matches_finite_differences_near_orthogonal(self):
        rng = np.random.default_rng(3)
        theta = 1e-3
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        w = np.eye(2) @ rot
        analytic = prototype_loss_grad(w)
        fd = finite_diff_grad(lambda v: prototype_loss(v.reshape(2, 2)), w.ravel(), step=1e-6)
        assert np.max(np.abs(analytic.ravel() - fd)) <= 1e-5

    def test_directional_derivative(self):
        rng = np.random.default_rng(4)
        w = _non_degenerate_unit_rows(rng, 5, 3)
        direction = rng.standard_normal(w.shape)
        eps = 1e-6
        measured = (
            prototype_loss(w + eps * direction) - prototype_loss(w - eps * direction)
        ) / (2 * eps)
        predicted = float(np.sum(prototype_loss_grad(w) * direction))
        assert measured == pytest.approx(predicted, abs=1e-5)


class TestProjectToSphere:
    def test_three_four_five(self):
        out = project_to_sphere(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        w = random_unit_rows(rng, 5, 4)
        assert np.max(np.abs(project_to_sphere(w) - w)) <= 1e-15

    def test_all_rows_unit(self):
        rng = np.random.default_rng(9)
        out = project_to_sphere(rng.standard_normal((20, 6)))
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-12

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            project_to_sphere(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_overflowing_row_rejected(self):
        # finite entries whose squared sum overflows leave no unit direction
        with pytest.raises(FloatingPointError, match="^cannot scale input row 0 .* is inf$"):
            project_to_sphere(np.array([[1e200, 1e200], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_by_index(self, bad):
        with pytest.raises(ValueError, match="non-finite row onto the sphere; row 0 is"):
            project_to_sphere(np.array([[bad, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="non-finite row onto the sphere; row 2 is"):
            project_to_sphere(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, bad]]))


class TestOptimizePrototypes:
    def test_antipodal_pair_found(self):
        cfg = ProtoOptConfig(steps=2000, restarts=1)
        w = optimize_prototypes(2, 3, cfg)
        assert prototype_loss(w) <= -1.0 + 1e-3

    def test_three_points_on_circle(self):
        cfg = ProtoOptConfig(steps=5000, restarts=5)
        w = optimize_prototypes(3, 2, cfg)
        sims = w @ w.T
        off_diag = sims[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off_diag - (-0.5))) <= 1e-2

    def test_simplex_bound_tetrahedron(self):
        w = optimize_prototypes(4, 3)
        assert abs(max_pairwise_cosine(w) - (-1.0 / 3.0)) <= 1e-2

    def test_rows_unit_norm(self):
        w = optimize_prototypes(6, 4, ProtoOptConfig(steps=500, restarts=1))
        assert np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0)) <= 1e-9

    def test_never_worse_than_initialization(self):
        cfg = ProtoOptConfig(steps=50, restarts=1, seed=11)
        rng = np.random.default_rng((cfg.seed, 0))
        _, (best_loss,), (trace,) = _descend([rng], 8, 4, cfg)
        assert best_loss <= trace[0]

    def test_descent_trace_roughly_monotone(self):
        cfg = ProtoOptConfig(steps=2000, restarts=1, seed=12)
        rng = np.random.default_rng((cfg.seed, 0))
        _, _, (trace,) = _descend([rng], 5, 3, cfg)
        # single subgradient steps may wiggle by at most one step's magnitude
        increments = np.diff(trace)
        assert np.max(increments) <= 2.0 * cfg.learning_rate

    def test_deterministic(self):
        cfg = ProtoOptConfig(steps=300, restarts=2, seed=13)
        a = optimize_prototypes(5, 3, cfg)
        b = optimize_prototypes(5, 3, cfg)
        assert np.array_equal(a, b)

    def test_rejects_tiny_problems(self):
        with pytest.raises(ValueError, match=r"at least 2 dimensions, got 1 in 4$"):
            optimize_prototypes(1, 4)
        with pytest.raises(ValueError, match=r"at least 2 dimensions, got 4 in 1$"):
            optimize_prototypes(4, 1)


class TestBatchedDescent:
    """The batched restarts return exactly what one restart at a time returns."""

    @pytest.mark.parametrize(
        "count, dim, steps",
        [
            (2, 2, 300), (2, 3, 300), (2, 4, 50),  # antipodal pairs
            (3, 2, 400), (4, 3, 400), (5, 4, 300), (3, 3, 200),  # simplex, N <= D + 1
            (6, 4, 200), (5, 3, 200), (8, 4, 150), (4, 16, 150),
            (64, 16, 60),
        ],
    )
    @pytest.mark.parametrize("restarts", [1, 2, 3, 4, 5])
    def test_matches_sequential_restarts_bitwise(self, count, dim, steps, restarts):
        for seed in (0, 7):
            cfg = ProtoOptConfig(steps=steps, restarts=restarts, seed=seed)
            batched = optimize_prototypes(count, dim, cfg)
            assert np.array_equal(batched, sequential_prototypes_reference(count, dim, cfg))

    def test_tied_restarts_go_to_the_first(self):
        cfg = ProtoOptConfig(steps=300, restarts=5, seed=0)
        rngs = [np.random.default_rng((cfg.seed, r)) for r in range(cfg.restarts)]
        best_w, best_loss, _ = _descend(rngs, 2, 3, cfg)
        # every restart reaches the antipodal optimum, so the loss ties exactly
        assert np.all(best_loss == best_loss[0])
        assert np.array_equal(optimize_prototypes(2, 3, cfg), best_w[0])

    def test_trace_starts_at_the_initial_loss(self):
        cfg = ProtoOptConfig(steps=20, restarts=3, seed=4)
        rngs = [np.random.default_rng((cfg.seed, r)) for r in range(cfg.restarts)]
        starts = [project_to_sphere(np.random.default_rng((cfg.seed, r)).standard_normal((6, 4)))
                  for r in range(cfg.restarts)]
        _, best_loss, trace = _descend(rngs, 6, 4, cfg)
        assert trace.shape == (3, 21)
        assert list(trace[:, 0]) == [prototype_loss(w) for w in starts]
        assert np.array_equal(best_loss, trace.min(axis=1))


def _kernel_stacks(sets):
    """(sets, N, D) stacks of unit rows for the kernel tests, by case name.

    ``ties`` repeats row 1 of every set at rows 3 and 5, so those rows
    tie exactly for each other's nearest row.  ``antipodal`` holds N = 2
    pairs (a, -a) with a.a > 1 in floating point, where the shifted
    diagonal G_ii - 2 is the row max.
    """
    rng = np.random.default_rng(sets)
    ties = np.stack([random_unit_rows(rng, 8, 4) for _ in range(sets)])
    ties[:, [3, 5]] = ties[:, [1, 1]]
    pairs = []
    while len(pairs) < sets:
        a = random_unit_rows(rng, 1, 3)[0]
        if a @ a > 1.0:
            pairs.append(np.stack([a, -a]))
    return {
        "random": np.stack([random_unit_rows(rng, 64, 16) for _ in range(sets)]),
        "small": np.stack([random_unit_rows(rng, 5, 3) for _ in range(sets)]),
        "ties": ties,
        "antipodal": np.stack(pairs),
    }


class TestStepKernelsBitwise:
    """Each stacked step kernel equals its one-set reference in every bit."""

    @pytest.mark.parametrize("sets", [1, 3, 10])
    def test_unit_rows(self, sets):
        rng = np.random.default_rng(sets)
        for count, dim in ((2, 2), (5, 3), (64, 16)):
            raw = rng.standard_normal((sets, count, dim))
            expected = np.stack([_reference_unit_rows(m) for m in raw])
            assert np.array_equal(unit_rows(raw, "prototype")[0], expected)

    @pytest.mark.parametrize("sets", [1, 3, 10])
    def test_loss_and_nearest(self, sets):
        for stack in _kernel_stacks(sets).values():
            loss, nearest = _loss_and_nearest(stack, _StackIndex(stack.shape))
            for w, set_loss, set_nearest in zip(stack, loss, nearest):
                sims = w @ w.T
                np.fill_diagonal(sims, -np.inf)
                assert set_loss == _reference_loss(w)
                assert np.array_equal(set_nearest, np.argmax(sims, axis=1))

    @pytest.mark.parametrize("sets", [1, 3, 10])
    def test_subgradient(self, sets):
        for stack in _kernel_stacks(sets).values():
            index = _StackIndex(stack.shape)
            _, nearest = _loss_and_nearest(stack, index)
            expected = np.stack([_reference_grad(w) for w in stack])
            assert np.array_equal(_subgradient(stack, nearest, index), expected)

    def test_duplicated_rows_go_to_the_lowest_index(self):
        stack = _kernel_stacks(3)["ties"]
        _, nearest = _loss_and_nearest(stack, _StackIndex(stack.shape))
        assert np.all(nearest[:, [1, 3, 5]] == [3, 1, 1])

    def test_antipodal_loss_is_the_shifted_diagonal(self):
        stack = _kernel_stacks(3)["antipodal"]
        loss, nearest = _loss_and_nearest(stack, _StackIndex(stack.shape))
        assert np.all(nearest == [1, 0])
        for w, set_loss in zip(stack, loss):
            gram = w @ w.T
            assert set_loss == gram[0, 0] - 2.0
            # the pair's off-diagonal cosine -a.a lies strictly below it
            assert gram[0, 1] < set_loss
