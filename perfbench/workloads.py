"""The two benchmark workloads: set-up, timed work and output checks.

Both are closed-loop batch jobs run from one process: the benchmark
issues one operation, waits for it, then issues the next.  Each
workload has three parts.  ``setup`` builds the inputs from the seed
and is timed as ``setup_s``; ``run`` does the work and returns it with
the seconds it timed; ``check`` turns the result into the operation
counts.  Outputs are checked outside the timed spans (each solve's plan
as soon as its timer stops, the ablation CSV after the run), and a wrong
output raises ``CheckError``, so a wrong run never reports numbers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import os
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from goca import cli, guided_ot, oracle, ot_core, prototypes, ssl_engine, synth_data
from goca.runconfig import RunConfig, parse_config

# ``goca ablate`` at the locked RunConfig() defaults except the epoch
# count: 15 epochs take about 70 s per run on a 2-core box, too long for
# the benchmark's time budget; 8 epochs keep every mode, every prototype
# and k-means call and the lead of the goca mode, in about 45 s.
ABLATE_EPOCHS = 8
ABLATE_ROWS = (
    ("sview", "a"), ("sview", "b"), ("sview", "fused"), ("avg", "fused"),
    ("sep", "a"), ("sep", "b"), ("sep", "fused"),
    ("goca", "a"), ("goca", "b"), ("goca", "fused"),
)
# the rows criterion c09 requires goca fused to beat
MARGIN_ROWS = (("sview", "a"), ("sview", "b"), ("avg", "fused"), ("sep", "fused"))

# solve-defaults mix.  The tiny guided set is criterion c03's own draw
# (seed 103, sizes 2-5, lambda1 0.02, lambda2 0.03) and does not change
# with the workload seed: about 30 of its 100 solves stop at the
# iteration cap and take most of the wall time, so a seeded draw of the
# same size moves wall_s by about 30 % from seed to seed.  The tiny set
# runs first; the workload seed draws the training-shape instances and
# their order.
TINY_SEED = 103
TINY_COUNT = 100
TRAIN_SHAPE_COUNT = 100  # instances of each of plain and guided
LOCKED = RunConfig()  # data set, network and prototype shapes of training
ORACLE_ATOL = 1e-6


class CheckError(RuntimeError):
    """An output of the program is wrong; the run reports no numbers."""


@dataclass
class Outcome:
    """Operations attempted and not converged, plus figures printed for reference.

    A non-converged operation still returned a valid result; an invalid
    one raises ``CheckError`` instead, so no outcome holds one.
    """

    attempted: int
    nonconverged: int
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, workdir) -> job
    run: Callable  # job -> (raw result, seconds of timed work)
    check: Callable  # (job, raw) -> Outcome, raises CheckError
    setup_repeats: int  # set-ups per run; setup_s is their median
    op_layers: tuple[str, ...]  # traced layers whose calls in the run sum to `attempted`


# ---------------------------------------------------------------------------
# ablate


def ablate_config_text(seed: int) -> str:
    """Run config of one ablate run; the seed reaches data, train and prototypes."""
    return (
        f"data.seed = {seed}\n"
        f"proto.seed = {seed}\n"
        f"train.seed = {seed}\n"
        f"train.epochs = {ABLATE_EPOCHS}\n"
    )


@dataclass
class AblateJob:
    config_path: str
    csv_path: str
    steps: int


class _WarningCounter(logging.Handler):
    """Counts the trainer's per-step non-convergence warnings."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "did not converge" in record.getMessage():
            self.count += 1


def setup_ablate(seed: int, workdir: str) -> AblateJob:
    text = ablate_config_text(seed)
    cfg = parse_config(text)
    config_path = os.path.join(workdir, "ablate.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    batches = cfg.data.num_classes * cfg.data.samples_per_class // cfg.train.batch_size
    steps = len(ssl_engine.MODES) * cfg.train.epochs * batches
    return AblateJob(config_path, os.path.join(workdir, "ablation.csv"), steps)


def run_ablate(job: AblateJob) -> tuple[tuple[int, int], float]:
    """One ``goca ablate --seeds 1`` through the CLI entry point."""
    counter = _WarningCounter()
    goca_logger = logging.getLogger("goca")
    goca_logger.addHandler(counter)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(
                ["ablate", "--config", job.config_path, "--seeds", "1", "--out", job.csv_path]
            )
            seconds = time.perf_counter() - start
    finally:
        goca_logger.removeHandler(counter)
    return (code, counter.count), seconds


def check_ablate(job: AblateJob, raw: tuple[int, int]) -> Outcome:
    code, warned_steps = raw
    if code != 0:
        # a raising cell fails all of its steps; the run reports no numbers
        raise CheckError(f"goca ablate exited with {code}; {job.steps} of {job.steps} steps failed")
    with open(job.csv_path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    accuracy = {}
    for row in rows:
        key = (row["mode"], row["condition"])
        if key in accuracy:
            raise CheckError(f"duplicate ablation row {key}")
        value = float(row["accuracy"])
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise CheckError(f"accuracy {value} of {key} is not a finite value in [0, 1]")
        accuracy[key] = value
    if set(accuracy) != set(ABLATE_ROWS):
        raise CheckError(f"ablation rows {sorted(accuracy)} differ from {sorted(ABLATE_ROWS)}")
    goca_fused = accuracy[("goca", "fused")]
    return Outcome(
        attempted=job.steps,
        nonconverged=warned_steps,
        info={
            "goca_fused_acc": goca_fused,
            "goca_margin": goca_fused - max(accuracy[key] for key in MARGIN_ROWS),
            "failed_frac": warned_steps / job.steps,
        },
    )


# ---------------------------------------------------------------------------
# solve-defaults


@dataclass
class Instance:
    kind: str  # "tiny-guided", "plain" or "guided"
    cost: np.ndarray
    prior: np.ndarray | None


def tiny_instances() -> list[Instance]:
    """Criterion c03's draw: random 2-5-sized guided instances."""
    rng = np.random.default_rng(TINY_SEED)
    out = []
    for _ in range(TINY_COUNT):
        size = int(rng.integers(2, 6))
        cost = rng.uniform(-1.0, 1.0, size=(size, size))
        prior = guided_ot.clamp_prior(rng.uniform(0.0, 1.0, size=(size, size)))
        out.append(Instance("tiny-guided", cost, prior))
    return out


def augment_keeping_rows(inputs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Training's augmentation, drawn again while it drops a whole row.

    The augmentation drops each input with probability 0.1, and view b
    has 6 inputs, so about one row in a million loses all of them.  A
    freshly initialised encoder (zero biases) maps such a row to a zero
    feature, which ``ot_core.cost_from_features`` rejects as not
    unit-norm; training meets that only in its first step, before its
    biases move, but the 20 000 rows drawn here meet it for about one
    seed in a hundred.
    """
    while True:
        out = ssl_engine._augment(inputs, rng, LOCKED.train)
        if np.all(np.any(out != 0.0, axis=1)):
            return out


def draw_instances(seed: int, protos: np.ndarray, count: int = TRAIN_SHAPE_COUNT) -> list[Instance]:
    """The whole solve mix: the tiny set, then ``count`` seeded training-shape pairs.

    A pair is the assignment problem of one goca training step, made the
    way training makes it: a batch of the seeded synthetic data set, each
    view passed through training's augmentation (see
    ``augment_keeping_rows``) and a freshly initialised encoder.  The plain instance costs view a's features against the
    prototypes; its guided twin takes as prior the plain library-default
    plan of view b, as ``guided_ot.cross_guided_assign`` does.
    """
    rng = np.random.default_rng(seed)
    train_cfg = LOCKED.train
    data = synth_data.generate(replace(LOCKED.data, seed=seed))
    params = ssl_engine.init_params(
        "goca", data.view_a.shape[1], data.view_b.shape[1],
        train_cfg.hidden_dim, train_cfg.feature_dim, rng,
    )
    out = []
    for _ in range(count):
        idx = rng.choice(len(data), train_cfg.batch_size, replace=False)
        costs = []
        for view, inputs in (("a", data.view_a[idx]), ("b", data.view_b[idx])):
            feats, _ = ssl_engine.encode(params, view, augment_keeping_rows(inputs, rng))
            costs.append(ot_core.cost_from_features(feats, protos))
        out.append(Instance("plain", costs[0], None))
        out.append(Instance("guided", costs[0], ot_core.sinkhorn(costs[1]).plan))
    return tiny_instances() + [out[i] for i in rng.permutation(len(out))]


def setup_solve(seed: int, workdir: str) -> list[Instance]:
    # the locked prototype set that training at RunConfig() defaults uses
    train_cfg = LOCKED.train
    protos = prototypes.optimize_prototypes(
        train_cfg.num_prototypes, train_cfg.feature_dim, train_cfg.proto
    )
    return draw_instances(seed, protos)


@dataclass
class Solve:
    """What the run keeps of one solve; its plan is checked and dropped."""

    kind: str
    seconds: float
    converged: bool
    iterations: int


def check_plan(index: int, inst: Instance, result) -> None:
    """Raise CheckError unless ``result`` is a valid plan for ``inst``."""
    cfg = ot_core.SolverConfig()
    plan = result.plan
    where = f"solve {index} ({inst.kind}, {inst.cost.shape[0]}x{inst.cost.shape[1]})"
    if plan.shape != inst.cost.shape or not np.all(np.isfinite(plan)) or np.any(plan < 0.0):
        raise CheckError(f"{where}: plan is not a finite nonnegative matrix of the cost's shape")
    m, n = plan.shape
    if result.converged:
        row_res = float(np.max(np.abs(plan.sum(axis=1) - 1.0 / m)))
        col_res = float(np.max(np.abs(plan.sum(axis=0) - 1.0 / n)))
        if max(row_res, col_res) > cfg.tolerance:
            raise CheckError(f"{where}: converged plan misses the marginals by {max(row_res, col_res):.3e}")
    if (m, n) == (2, 2):
        prior = None if inst.prior is None else guided_ot.clamp_prior(inst.prior, cfg.prior_floor)
        ref = oracle.golden_section_2x2(
            inst.cost, prior, np.full(2, 0.5), np.full(2, 0.5),
            cfg.lambda1, cfg.lambda2 if prior is not None else 0.0,
        )
        worst = float(np.max(np.abs(plan - ref)))
        if worst > ORACLE_ATOL:
            raise CheckError(f"{where}: plan differs from the golden-section oracle by {worst:.3e}")


def run_solve(instances: list[Instance]) -> tuple[list[Solve], float]:
    """Every solve at library defaults, timed on its own and checked after its timer stops."""
    solves = []
    for index, inst in enumerate(instances):
        start = time.perf_counter()
        if inst.prior is None:
            result = ot_core.sinkhorn(inst.cost)
        else:
            result = guided_ot.guided_sinkhorn(inst.cost, inst.prior)
        seconds = time.perf_counter() - start
        check_plan(index, inst, result)
        solves.append(Solve(inst.kind, seconds, bool(result.converged), int(result.iterations)))
    return solves, sum(solve.seconds for solve in solves)


def solve_outcome(instances: list[Instance], solves: list[Solve]) -> Outcome:
    nonconverged = {"tiny-guided": 0, "plain": 0, "guided": 0}
    for solve in solves:
        nonconverged[solve.kind] += not solve.converged
    latencies = [solve.seconds for solve in solves]
    total = sum(nonconverged.values())
    return Outcome(
        attempted=len(solves),
        nonconverged=total,
        info={
            "solve_p50_ms": 1e3 * statistics.median(latencies),
            "solve_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
            "solve_samples": len(latencies),
            "failed_frac": total / len(solves),
            "nonconverged_by_kind": nonconverged,
            "iterations_reported": sum(solve.iterations for solve in solves),
        },
    )


# ablate's set-up is a fraction of a second, mostly process start and
# imports, so it takes more repeats than the prototype-bound solve set-up
WORKLOADS = {
    "ablate": Workload(
        "ablate", setup_ablate, run_ablate, check_ablate,
        setup_repeats=9, op_layers=("ssl_engine.step",),
    ),
    "solve-defaults": Workload(
        "solve-defaults", setup_solve, run_solve, solve_outcome,
        setup_repeats=3, op_layers=("ot_core.sinkhorn", "guided_ot.guided_sinkhorn"),
    ),
}
