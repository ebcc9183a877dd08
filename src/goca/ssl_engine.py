"""Two-view swapped-prediction training against frozen prototypes.

Each view has its own backbone (linear, tanh); a linear projection head
with final L2 normalization turns backbone activations into features.
A step encodes two augmentations (slots t and s) of every branch,
solves transport-plan targets by the mode's target rule, and minimizes
the swapped cross-entropy between one augmentation's targets and the
other augmentation's softmax prototype scores, summed over branches.
Targets are treated as constants: no gradient flows through the
assignment solver.

One step function, ``step``, serves all four modes, and every branch
of every mode scores against the run's one frozen prototype set.  The
mode fixes only which backbones feed each branch (their hidden
activations are averaged), which head projects them, and the target
rule:

    sview  branches a and b, each with its own backbone and head: two
           independent models; a plain plan per branch
    avg    one branch fed by both backbones, shared head; a plain plan
    sep    branches a and b, shared head; a plain plan per branch
    goca   as sep, but each view's plan is guided by the other view's
           plain plan on the same batch (``cross_guided_assign``)

``train`` calls ``step`` once per batch.  Solver plans have rows
summing to 1/M; they are multiplied by M before entering the
cross-entropy so each target row is a probability row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .guided_ot import cross_guided_assign
from .ot_core import SolverConfig, check_config, cost_from_features, sinkhorn, unit_rows
from .prototypes import ProtoOptConfig, optimize_prototypes

__all__ = [
    "MODES",
    "TrainConfig",
    "AugmentedBatch",
    "StepResult",
    "TrainResult",
    "init_params",
    "encode",
    "prototype_scores",
    "swapped_loss",
    "step",
    "train",
    "extract_features",
]

logger = logging.getLogger(__name__)

MODES = ("sview", "avg", "sep", "goca")

ParamDict = dict[str, np.ndarray]


def _training_solver() -> SolverConfig:
    # training tolerates capped, loosely converged assignment solves; the
    # strict library defaults are for standalone solving
    return SolverConfig(tolerance=1e-6, max_iters=2000)


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "goca"
    epochs: int = 15
    batch_size: int = 100
    temperature: float = 0.1
    learning_rate: float = 0.1
    hidden_dim: int = 32
    feature_dim: int = 16
    num_prototypes: int = 64
    aug_noise: float = 0.2
    aug_dropout: float = 0.1
    seed: int = 0
    solver: SolverConfig = field(default_factory=_training_solver)
    proto: ProtoOptConfig = field(default_factory=ProtoOptConfig)

    def __post_init__(self):
        check_config(self, {
            "epochs": 0, "batch_size": 2, "temperature": "positive", "learning_rate": "positive",
            "hidden_dim": 1, "feature_dim": 2, "num_prototypes": 2, "aug_noise": 0, "seed": 0,
        })
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.aug_dropout < 1.0:
            raise ValueError(f"aug_dropout must lie in [0, 1), got {self.aug_dropout}")


@dataclass
class AugmentedBatch:
    """Two augmentations (slots t and s) of each view's raw inputs."""

    a_t: np.ndarray
    a_s: np.ndarray
    b_t: np.ndarray
    b_s: np.ndarray


@dataclass
class StepResult:
    loss: float
    grads: ParamDict
    targets: dict[str, np.ndarray]
    solver_converged: bool | None


@dataclass
class TrainResult:
    mode: str
    params: ParamDict
    prototypes: np.ndarray
    trace: list[float]


def _linear_init(rng: np.random.Generator, out_dim: int, in_dim: int):
    weight = rng.standard_normal((out_dim, in_dim)) / np.sqrt(in_dim)
    return weight, np.zeros(out_dim)


def init_params(
    mode: str,
    in_dim_a: int,
    in_dim_b: int,
    hidden_dim: int,
    feature_dim: int,
    rng: np.random.Generator,
) -> ParamDict:
    """Seeded encoder parameters; shared-head modes share one projection."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    params: ParamDict = {}
    params["a.w1"], params["a.b1"] = _linear_init(rng, hidden_dim, in_dim_a)
    params["b.w1"], params["b.b1"] = _linear_init(rng, hidden_dim, in_dim_b)
    for head in ("a", "b") if mode == "sview" else ("shared",):
        params[f"{head}.w2"], params[f"{head}.b2"] = _linear_init(rng, feature_dim, hidden_dim)
    return params


def _head_key(params: ParamDict, view: str) -> str:
    return view if f"{view}.w2" in params else "shared"


def _unit_features(z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the projection output scaled to unit norm, and the norms used."""
    try:
        return unit_rows(z2, "encoder output")
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc}: the parameters diverged") from exc


def encode(params: ParamDict, views, inputs):
    """Forward one branch: linear and tanh per backbone, projection, row
    L2 normalization.

    ``views`` is one backbone (``"a"``) with one input array, or a tuple
    of backbones (``("a", "b")``) with one row-aligned input array each;
    their hidden activations are averaged before the shared projection.
    """
    if isinstance(views, str):
        views, inputs = (views,), (inputs,)
    xs = tuple(np.asarray(x, dtype=float) for x in inputs)
    if len(xs) != len(views):
        raise ValueError("encode needs one input array per backbone")
    hiddens = tuple(np.tanh(x @ params[f"{v}.w1"].T + params[f"{v}.b1"]) for v, x in zip(views, xs))
    # the sum is a new array only for two backbones, and scaling in place
    # by weight 1.0 leaves a single backbone's activations bit for bit
    weight = 1.0 / len(views)
    hidden = sum(hiddens[1:], hiddens[0])
    hidden *= weight
    head = _head_key(params, views[0])
    features, norms = _unit_features(hidden @ params[f"{head}.w2"].T + params[f"{head}.b2"])
    cache = {"views": views, "x": xs, "hiddens": hiddens, "weight": weight, "hidden": hidden,
             "features": features, "norms": norms, "head": head}
    return features, cache


def _backprop(cache: dict, d_features: np.ndarray, params: ParamDict, grads: ParamDict) -> None:
    features = cache["features"]
    inner = np.sum(d_features * features, axis=1, keepdims=True)
    dz2 = (d_features - features * inner) / cache["norms"]
    head = cache["head"]
    grads[f"{head}.w2"] += dz2.T @ cache["hidden"]
    grads[f"{head}.b2"] += dz2.sum(axis=0)
    d_hidden = cache["weight"] * (dz2 @ params[f"{head}.w2"])
    for view, x, hidden in zip(cache["views"], cache["x"], cache["hiddens"]):
        dz1 = (1.0 - hidden * hidden) * d_hidden
        grads[f"{view}.w1"] += dz1.T @ x
        grads[f"{view}.b1"] += dz1.sum(axis=0)


def prototype_scores(features: np.ndarray, prototypes: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row softmax of feature-prototype similarities; rows sum to 1."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    feats = np.asarray(features, dtype=float)
    protos = np.asarray(prototypes, dtype=float)
    if feats.shape[1] != protos.shape[1]:
        raise ValueError("feature and prototype dimensions differ")
    scores = (feats @ protos.T) / temperature
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def swapped_loss(
    targets_t: np.ndarray,
    scores_s: np.ndarray,
    targets_s: np.ndarray,
    scores_t: np.ndarray,
) -> float:
    """Per-sample mean of the two swapped cross-entropies.

    Target rows must be probability rows (plans rescaled by M); in
    return the loss is bounded below by twice the mean target-row
    entropy, attained when scores equal targets.
    """
    t_t = np.asarray(targets_t, dtype=float)
    t_s = np.asarray(targets_s, dtype=float)
    g_s = np.asarray(scores_s, dtype=float)
    g_t = np.asarray(scores_t, dtype=float)
    if not (t_t.shape == g_s.shape == t_s.shape == g_t.shape):
        raise ValueError("all four matrices must have the same shape")
    # loose bound: catches unscaled plans (rows summing to 1/M) while
    # tolerating solver residuals scaled up by M
    for name, t in (("targets_t", t_t), ("targets_s", t_s)):
        if np.max(np.abs(t.sum(axis=1) - 1.0)) > 0.1:
            raise ValueError(f"{name} rows must sum to 1 (rescale plans by M)")
    m = t_t.shape[0]
    total = -np.sum(t_t * np.log(np.maximum(g_s, 1e-300)))
    total -= np.sum(t_s * np.log(np.maximum(g_t, 1e-300)))
    return float(total / m)


def step(
    batch: AugmentedBatch,
    params: ParamDict,
    prototypes: np.ndarray,
    cfg: TrainConfig,
    targets: dict[str, np.ndarray] | None = None,
) -> StepResult:
    """One step of any mode: encode every branch, solve its targets by the
    mode's rule, and backpropagate the swapped loss; targets are keyed
    ``<branch>.<slot>``.

    Pass precomputed ``targets`` to hold the assignments fixed, e.g. for
    finite-difference gradient checks.
    """
    if cfg.mode == "avg":
        branches = {"avg": ("a", "b")}
    else:
        branches = {"a": ("a",), "b": ("b",)}
    protos = np.asarray(prototypes)

    features, caches = {}, {}
    for branch, views in branches.items():
        for slot in ("t", "s"):
            inputs = tuple(getattr(batch, f"{view}_{slot}") for view in views)
            key = f"{branch}.{slot}"
            features[key], caches[key] = encode(params, views, inputs)

    converged: bool | None = None
    if targets is None:
        results = {}
        if cfg.mode == "goca":
            for slot in ("t", "s"):
                results[f"a.{slot}"], results[f"b.{slot}"] = cross_guided_assign(
                    features[f"a.{slot}"], features[f"b.{slot}"], protos, cfg=cfg.solver
                )
        else:
            for key, feats in features.items():
                cost = cost_from_features(feats, protos)
                results[key] = sinkhorn(cost, cfg=cfg.solver)
        # plans have rows summing to 1/M; targets are probability rows
        targets = {key: features[key].shape[0] * res.plan for key, res in results.items()}
        converged = all(res.converged for res in results.values())

    grads = {key: np.zeros_like(value) for key, value in params.items()}
    loss = 0.0
    for branch in branches:
        key_t, key_s = f"{branch}.t", f"{branch}.s"
        f_t, f_s = features[key_t], features[key_s]
        g_t = prototype_scores(f_t, protos, cfg.temperature)
        g_s = prototype_scores(f_s, protos, cfg.temperature)
        try:
            loss += swapped_loss(targets[key_t], g_s, targets[key_s], g_t)
        except ValueError as exc:
            if converged is not False:
                raise
            # the targets are plans the solver left off the marginals at its cap
            raise FloatingPointError(
                f"{exc}; the assignment did not converge within "
                f"solver.max_iters = {cfg.solver.max_iters}"
            ) from exc
        scale = 1.0 / (f_t.shape[0] * cfg.temperature)
        _backprop(caches[key_s], scale * (g_s - targets[key_t]) @ protos, params, grads)
        _backprop(caches[key_t], scale * (g_t - targets[key_s]) @ protos, params, grads)
    return StepResult(loss, grads, targets, converged)


# perfbench/tracer.py wraps these two names; train calls through them
goca_step = baseline_step = step


def _augment(x: np.ndarray, rng: np.random.Generator, cfg: TrainConfig) -> np.ndarray:
    out = x + cfg.aug_noise * rng.standard_normal(x.shape)
    mask = rng.random(x.shape) >= cfg.aug_dropout
    # A row with every input dropped encodes to a zero feature while the
    # encoder biases are zero (as initialised), and a zero feature has no
    # direction to assign; redraw the mask of such rows only.
    dropped = ~mask.any(axis=1)
    while dropped.any():
        mask[dropped] = rng.random((int(dropped.sum()), x.shape[1])) >= cfg.aug_dropout
        dropped = ~mask.any(axis=1)
    return out * mask


def train(dataset, cfg: TrainConfig, prototypes=None) -> TrainResult:
    """Place the prototype set unless ``prototypes`` gives it, then run
    shuffled minibatch SGD against it.

    ``dataset`` must expose ``view_a`` and ``view_b`` row-aligned
    arrays.  Only full batches are used.  Deterministic given the seed.
    """
    view_a = np.asarray(dataset.view_a, dtype=float)
    view_b = np.asarray(dataset.view_b, dtype=float)
    if view_a.shape[0] != view_b.shape[0]:
        raise ValueError("views must be row-aligned")
    num_samples = view_a.shape[0]
    if num_samples < cfg.batch_size:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds the dataset size {num_samples}")

    if prototypes is None:
        prototypes = optimize_prototypes(cfg.num_prototypes, cfg.feature_dim, cfg.proto)
    expected = (
        f"{cfg.mode} mode trains against one prototype array of shape "
        f"(n, feature_dim) = (n, {cfg.feature_dim})"
    )
    if isinstance(prototypes, (tuple, list)):
        raise ValueError(f"{expected}, got a {type(prototypes).__name__} of {len(prototypes)}")
    prototypes = np.asarray(prototypes)
    if prototypes.ndim != 2 or prototypes.shape[1] != cfg.feature_dim:
        raise ValueError(f"{expected}, got shape {prototypes.shape}")

    rng = np.random.default_rng(cfg.seed)
    params = init_params(
        cfg.mode, view_a.shape[1], view_b.shape[1], cfg.hidden_dim, cfg.feature_dim, rng
    )
    trace: list[float] = []
    num_batches = num_samples // cfg.batch_size
    for _ in range(cfg.epochs):
        order = rng.permutation(num_samples)
        for b in range(num_batches):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            batch = AugmentedBatch(
                a_t=_augment(view_a[idx], rng, cfg),
                a_s=_augment(view_a[idx], rng, cfg),
                b_t=_augment(view_b[idx], rng, cfg),
                b_s=_augment(view_b[idx], rng, cfg),
            )
            index = len(trace)
            try:
                result = (goca_step if cfg.mode == "goca" else baseline_step)(batch, params, prototypes, cfg)
            except FloatingPointError as exc:
                message = f"{cfg.mode} training stopped at step {index}: {exc}"
                raise FloatingPointError(message) from exc
            if result.solver_converged is False:
                logger.warning(
                    "%s training step %d: assignment did not converge; using last iterate",
                    cfg.mode, index,
                )
            if not np.isfinite(result.loss):
                raise FloatingPointError(
                    f"{cfg.mode} training stopped at step {index}: loss is {result.loss}"
                )
            for key in params:
                params[key] -= cfg.learning_rate * result.grads[key]
            trace.append(result.loss)
    return TrainResult(cfg.mode, params, prototypes, trace)


def extract_features(params: ParamDict, mode: str, dataset) -> dict[str, np.ndarray]:
    """Unaugmented test features per condition: per view plus fused average.

    The fused features are the L2-renormalized mean of the two views'
    unit features; avg mode has the single fused branch only.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    view_a = np.asarray(dataset.view_a, dtype=float)
    view_b = np.asarray(dataset.view_b, dtype=float)
    if mode == "avg":
        fused, _ = encode(params, ("a", "b"), (view_a, view_b))
        return {"fused": fused}
    feats_a, _ = encode(params, "a", view_a)
    feats_b, _ = encode(params, "b", view_b)
    fused, _ = unit_rows(0.5 * (feats_a + feats_b), "fused feature")
    return {"a": feats_a, "b": feats_b, "fused": fused}
