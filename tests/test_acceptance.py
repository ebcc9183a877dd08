"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria cover oracle
equivalence of the plain and guided solvers, the guided kernel reduction,
marginal feasibility, limit behaviors, prototype separation, loss/gradient
correctness, bitwise mode collapse, the qualitative two-view benchmark
ordering, metric correctness, and the lambda-grid smoke run.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from goca.cli import ablation_medians, run_ablation, run_lambda_grid
from goca.eval import kmeans, majority_vote_metrics, recall_at_k, within_cluster_ss
from goca.oracle import finite_diff_grad
from goca.ot_core import SolverConfig, marginal_residual
from goca.prototypes import ProtoOptConfig, max_pairwise_cosine, optimize_prototypes, prototype_loss
from goca.runconfig import RunConfig
from goca.ssl_engine import (
    MODES,
    TrainConfig,
    step,
    swapped_loss,
    train,
)
from goca.verify import (
    guided_vs_oracles,
    kernel_reduction,
    kl_to_prior_falls,
    plain_vs_oracles,
    prior_dominance,
    prior_scale_invariance,
    prototype_subgradient,
    zero_lambda2,
)

from _util import flatten, random_unit_rows, tiny_instance, tiny_views, unflatten


def _report(name: str, elapsed: float, detail: str = ""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nPASS {name} ({elapsed:.1f}s){suffix}")


@functools.cache
def _plain_draws():
    """c01's draws and the seconds they took, drawn once a session: c04 reads them too."""
    start = time.perf_counter()
    return plain_vs_oracles(np.random.default_rng(101), 200, 25), time.perf_counter() - start


@functools.cache
def _guided_draws():
    """c02's draws and the seconds they took, drawn once a session: c04 reads them too."""
    start = time.perf_counter()
    return guided_vs_oracles(np.random.default_rng(102), 200, 25), time.perf_counter() - start


def _feasibility(solves) -> list[float]:
    """Every solve must converge; criterion 4 checks their residuals."""
    residuals = []
    for res in solves:
        assert res.converged
        residuals.append(max(marginal_residual(res.plan)))
    return residuals


def test_c01_oracle_equivalence_plain():
    (worst_2x2, worst_nxn, solves), elapsed = _plain_draws()
    _feasibility(solves)
    assert worst_2x2 <= 1e-6
    assert worst_nxn <= 1e-5

    assert elapsed < 30.0
    _report("criterion-01 plain oracle equivalence", elapsed,
            f"2x2 worst {worst_2x2:.1e}, nxn worst {worst_nxn:.1e}")


def test_c02_oracle_equivalence_guided():
    (worst_2x2, worst_cross, worst_nxn, solves), elapsed = _guided_draws()
    _feasibility(solves)
    assert worst_2x2 <= 1e-6
    assert worst_cross <= 1e-5  # mirror descent carries the n x n tolerance
    assert worst_nxn <= 1e-5

    assert elapsed < 30.0
    _report("criterion-02 guided oracle equivalence", elapsed,
            f"2x2 worst {worst_2x2:.1e}, nxn worst {worst_nxn:.1e}")


def test_c03_kernel_reduction():
    start = time.perf_counter()
    worst = kernel_reduction(np.random.default_rng(103), 100)
    assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    _report("criterion-03 guided kernel reduction", elapsed, f"worst {worst:.1e}")


def test_c04_marginal_feasibility():
    start = time.perf_counter()
    residuals = _feasibility(_plain_draws()[0][-1] + _guided_draws()[0][-1])
    assert residuals
    worst = max(residuals)
    assert worst <= 1e-8
    _report("criterion-04 marginal feasibility", time.perf_counter() - start,
            f"{len(residuals)} converged plans, worst residual {worst:.1e}")


def test_c05_limit_behaviors():
    start = time.perf_counter()
    rng = np.random.default_rng(105)

    worst_zero = zero_lambda2(rng, 20)
    assert worst_zero <= 1e-9

    worst_dom = prior_dominance(rng, 10)
    assert worst_dom <= 1e-3

    worst_scale = prior_scale_invariance(rng, 10)
    assert worst_scale <= 1e-9

    worst_violation, solves = kl_to_prior_falls(rng, 20)
    for res in solves:
        assert res.converged
    assert worst_violation <= 1e-9

    elapsed = time.perf_counter() - start
    _report("criterion-05 limit behaviors", elapsed,
            f"zero {worst_zero:.0e}, dominance {worst_dom:.0e}, "
            f"scale {worst_scale:.0e}, KL slack {worst_violation:.0e}")


def test_c06_prototype_regularizer():
    start = time.perf_counter()
    pair = optimize_prototypes(2, 4, ProtoOptConfig(steps=2000, restarts=2))
    assert prototype_loss(pair) <= -1.0 + 1e-3

    for n, dim in ((2, 2), (3, 2), (4, 3), (5, 4)):
        w = optimize_prototypes(n, dim, ProtoOptConfig(restarts=5))
        assert np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0)) <= 1e-9
        assert abs(max_pairwise_cosine(w) - (-1.0 / (n - 1))) <= 1e-2

    worst_rel = prototype_subgradient(np.random.default_rng(106), 20)
    assert worst_rel <= 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion-06 prototype regularizer", elapsed,
            f"simplex bounds hit, grad rel err {worst_rel:.1e}")


def test_c07_loss_and_gradient_checks():
    start = time.perf_counter()

    rng = np.random.default_rng(107)
    targets = rng.dirichlet(np.ones(4), size=6)
    floor = -2.0 * float(np.mean(np.sum(targets * np.log(targets), axis=1)))
    assert abs(swapped_loss(targets, targets, targets, targets) - floor) <= 1e-12

    worst_rel = 0.0
    for mode in ("sview", "avg", "sep", "goca"):
        params, protos, batch = tiny_instance(mode, seed=1070)
        cfg = TrainConfig(
            mode=mode,
            temperature=0.5,
            solver=SolverConfig(lambda1=0.5, lambda2=0.1, tolerance=1e-10, max_iters=20_000),
        )
        base = step(batch, params, protos, cfg)

        def loss_at(theta, batch=batch, protos=protos, cfg=cfg, params=params, base=base):
            return step(batch, unflatten(theta, params), protos, cfg, targets=base.targets).loss

        fd = finite_diff_grad(loss_at, flatten(params), step=1e-5)
        rel = float(np.max(np.abs(flatten(base.grads) - fd))) / max(float(np.max(np.abs(fd))), 1e-12)
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-4

    params, protos, batch = tiny_instance("goca", seed=1071)
    results = []
    for tolerance in (1e-11, 1e-13):
        cfg = TrainConfig(
            mode="goca",
            temperature=0.5,
            solver=SolverConfig(lambda1=0.5, lambda2=0.1, tolerance=tolerance, max_iters=200_000),
        )
        results.append(step(batch, params, protos, cfg))
    loss_drift = abs(results[0].loss - results[1].loss)
    grad_drift = float(np.max(np.abs(flatten(results[0].grads) - flatten(results[1].grads))))
    assert loss_drift < 1e-8
    assert grad_drift < 1e-7

    elapsed = time.perf_counter() - start
    _report("criterion-07 loss and gradient checks", elapsed,
            f"grad rel err {worst_rel:.1e}, stop-grad drift {grad_drift:.1e}")


def test_c08_mode_collapse_equivalence():
    start = time.perf_counter()
    data = tiny_views(108, samples_per_class=40)
    solver = SolverConfig(lambda1=0.1, lambda2=0.0, tolerance=1e-6, max_iters=500)
    common = dict(
        epochs=25, batch_size=20, hidden_dim=6, feature_dim=8, num_prototypes=4,
        solver=solver, proto=ProtoOptConfig(steps=200, restarts=1), seed=1080,
    )
    res_goca = train(data, TrainConfig(mode="goca", **common))
    res_sep = train(data, TrainConfig(mode="sep", **common))
    assert len(res_goca.trace) == 100
    assert res_goca.trace == res_sep.trace
    for key in res_goca.params:
        assert np.array_equal(res_goca.params[key], res_sep.params[key])
    _report("criterion-08 mode-collapse equivalence", time.perf_counter() - start,
            "100 steps bitwise identical")


def test_c09_qualitative_benchmark_ordering():
    start = time.perf_counter()
    # the 20 cells are independent; the pool runs them on every CPU this
    # process may use (test_parallel_jobs_match_serial pins parallel = serial)
    seeds = 5
    rows = run_ablation(RunConfig(), seeds=seeds, jobs=seeds * len(MODES))
    medians = ablation_medians(rows)

    goca_fused = medians[("goca", "fused")]
    sview_a = medians[("sview", "a")]
    sview_b = medians[("sview", "b")]
    avg_fused = medians[("avg", "fused")]
    sep_fused = medians[("sep", "fused")]
    best_single = max(sview_a, sview_b)

    assert goca_fused > sview_a
    assert goca_fused > sview_b
    assert goca_fused > avg_fused
    assert goca_fused > sep_fused
    assert goca_fused >= best_single + 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(
        "criterion-09 qualitative benchmark ordering",
        elapsed,
        f"goca {goca_fused:.3f} vs sview-a {sview_a:.3f}, sview-b {sview_b:.3f}, "
        f"avg {avg_fused:.3f}, sep {sep_fused:.3f}",
    )


def test_c10_metric_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(110)

    points = rng.standard_normal((8, 2))
    labels = kmeans(points, 2, seed=0, restarts=30)
    best = np.inf
    for assignment in itertools.product(range(2), repeat=8):
        arr = np.asarray(assignment)
        total = 0.0
        for j in range(2):
            members = points[arr == j]
            if len(members):
                total += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    assert within_cluster_ss(points, labels) == pytest.approx(best, rel=1e-12)

    truth = np.array([0, 0, 1, 1, 2, 2])
    relabeled = np.array([2, 2, 0, 0, 1, 1])
    assert majority_vote_metrics(relabeled, truth) == (1.0, 1.0, 1.0)

    clusters = np.array([0, 0, 1, 1])
    labels4 = np.array([0, 1, 0, 1])
    metrics = majority_vote_metrics(clusters, labels4)
    assert metrics.nmi == pytest.approx(0.0, abs=1e-12)
    assert metrics.accuracy == pytest.approx(0.5)

    queries = random_unit_rows(rng, 10, 4)
    database = random_unit_rows(rng, 10, 4)
    q_labels = rng.integers(0, 3, size=10)
    d_labels = rng.integers(0, 3, size=10)
    hits = 0
    for i in range(10):
        order = sorted(range(10), key=lambda j: (-(queries[i] @ database[j]), j))
        hits += q_labels[i] in {d_labels[j] for j in order[:3]}
    assert recall_at_k(queries, database, q_labels, d_labels, 3) == pytest.approx(hits / 10)

    _report("criterion-10 metric correctness", time.perf_counter() - start)


def test_c11_lambda_grid_smoke():
    start = time.perf_counter()

    assert SolverConfig().lambda1 == 0.02
    assert SolverConfig().lambda2 == 0.03
    assert RunConfig().solver.lambda1 == 0.02
    assert RunConfig().solver.lambda2 == 0.03

    # reduced-scale config keeps the 16-cell sweep quick
    from goca.runconfig import parse_config

    cfg = parse_config(
        "data.samples_per_class = 50\n"
        "train.epochs = 4\n"
        "train.batch_size = 50\n"
        "proto.steps = 1000\n"
        "proto.restarts = 2\n"
        "eval.repeats = 10\n"
    )
    values = [0.01, 0.02, 0.03, 0.04]
    rows = run_lambda_grid(cfg, values, values, seeds=1)
    assert len(rows) == 16
    for row in rows:
        assert 0.0 <= row["accuracy"] <= 1.0
        assert row["lambda1"] in values and row["lambda2"] in values

    grid_cell = run_lambda_grid(cfg, [cfg.solver.lambda1], [0.0], seeds=1)[0]
    ablation_rows = run_ablation(cfg, seeds=1)
    sep_fused = next(
        r["accuracy"] for r in ablation_rows
        if r["mode"] == "sep" and r["condition"] == "fused"
    )
    assert grid_cell["accuracy"] == sep_fused

    best = max(rows, key=lambda r: r["accuracy"])
    elapsed = time.perf_counter() - start
    _report("criterion-11 lambda-grid smoke", elapsed,
            f"argmax cell ({best['lambda1']}, {best['lambda2']}) = {best['accuracy']:.3f}")
