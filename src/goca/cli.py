"""Command-line entry point.

Subcommands: gen-data, optimize-prototypes, solve, train, eval,
lambda-grid, ablate, verify.  Exit codes: 0 success, 1 usage/config
error or an allocation that fails, 2 numeric failure (non-convergence
with --strict, or a floating-point failure such as a non-finite plan),
3 verification failure.  All tabular output is CSV with a header row and
matrices use the plain-text matrix format.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import statistics
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from . import eval as evalmod
from . import matrixio, ssl_engine
from .ot_core import SolverConfig, guided_sinkhorn, sinkhorn
from .prototypes import ProtoOptConfig, max_pairwise_cosine, optimize_prototypes, prototype_loss
from .runconfig import ConfigError, RunConfig, dump_config, load_config
from .ssl_engine import MODES, TrainConfig, TrainResult, extract_features, train
from .synth_data import SynthConfig, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the tools reserve 2
    # for numeric failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# command -> (config class, {flag: field}) of the flags that mirror a config field; an unset
# flag keeps the base config's value (the class default, or the loaded data config for gen-data)
_MIRRORED = {
    "gen-data": (SynthConfig, {"--seed": "seed"}),
    "optimize-prototypes": (ProtoOptConfig, {"--steps": "steps", "--lr": "learning_rate",
                                             "--restarts": "restarts", "--seed": "seed"}),
    "solve": (SolverConfig, {"--lambda1": "lambda1", "--lambda2": "lambda2",
                             "--tolerance": "tolerance", "--max-iters": "max_iters"}),
    "eval": (evalmod.EvalConfig, {"--repeats": "repeats", "--seed": "seed"}),
}


def _flag_config(args, base=None):
    """``base`` (by default the command's config class) with each mirrored flag that is set."""
    cls, flags = _MIRRORED[args.command]
    named = {name: flag for flag, name in flags.items() if getattr(args, name) is not None}
    try:
        return replace(base or cls(), **{name: getattr(args, name) for name in named})
    except ValueError as exc:
        # only a set flag can fail check_config, whose message starts with the field
        name, _, rule = str(exc).partition(" ")
        raise ValueError(f"{named[name]} {rule}") from None


def _load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return load_config(path)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# gen-data


def _cmd_gen_data(args) -> int:
    data_cfg = _flag_config(args, _load_run_config(args.config).data)
    dataset = generate(data_cfg)
    os.makedirs(args.out, exist_ok=True)
    matrixio.write_matrix(os.path.join(args.out, "view_a.mat"), dataset.view_a)
    matrixio.write_matrix(os.path.join(args.out, "view_b.mat"), dataset.view_b)
    matrixio.write_labels(os.path.join(args.out, "labels.txt"), dataset.labels)
    print(
        f"wrote {len(dataset)} paired samples "
        f"({data_cfg.num_classes} classes) to {args.out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize-prototypes


def _cmd_optimize_prototypes(args) -> int:
    prototypes = optimize_prototypes(args.n, args.dim, _flag_config(args))
    matrixio.write_matrix(args.out, prototypes)
    if args.report:
        print(f"loss = {prototype_loss(prototypes):.6f}")
        print(f"max_pairwise_cosine = {max_pairwise_cosine(prototypes):.6f}")
    print(f"wrote {args.n} x {args.dim} prototypes to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    cost = matrixio.read_matrix(args.cost)
    cfg = _flag_config(args)
    # checked after the config, so that a non-finite value is named as such
    if args.lambda2 is not None and args.prior is None:
        raise ValueError("--lambda2 requires --prior; a plain solve has no KL term")
    if args.prior is None:
        result = sinkhorn(cost, cfg=cfg)
    else:
        result = guided_sinkhorn(cost, matrixio.read_matrix(args.prior), cfg=cfg)
    matrixio.write_matrix(args.out, result.plan)
    print(
        f"converged={result.converged} iterations={result.iterations} sweeps={result.sweeps} "
        f"newton_steps={result.newton_steps} "
        f"row_residual={result.row_residual:.3e} col_residual={result.col_residual:.3e}"
    )
    if args.strict and not result.converged:
        raise ArithmeticError("solver did not converge")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / eval


def _cell_config(cfg: RunConfig, mode: str, seed_offset: int) -> TrainConfig:
    if seed_offset < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed_offset}")
    proto = replace(cfg.proto, seed=cfg.proto.seed + seed_offset)
    return replace(cfg.train, mode=mode, seed=cfg.train.seed + seed_offset, proto=proto)


def _run_cell(cfg: RunConfig, train_cfg: TrainConfig, prototypes):
    """``train`` under ``train_cfg``, the cell's ``_cell_config``, on
    ``generate(cfg.data)`` against ``prototypes``, then repeated-k-means
    scores under ``cfg.eval`` per test condition in extraction order;
    returns ``(TrainResult, scores)``."""
    dataset = generate(cfg.data)
    result = train(dataset, train_cfg, prototypes)
    features = extract_features(result.params, result.mode, dataset)
    scores = {
        condition: evalmod.repeated_cluster_metrics(
            feats, dataset.labels, cfg.data.num_classes, cfg.eval
        )
        for condition, feats in features.items()
    }
    return result, scores


_METRIC_HEADER = ["condition", "acc_mean", "acc_se", "nmi_mean", "nmi_se", "f1_mean", "f1_se"]


def _mean_and_se(rep: evalmod.RepeatedMetrics) -> list[tuple[str, str]]:
    """``(mean, stderr)`` of accuracy, NMI and F1, in that order, to six decimals."""
    return [(f"{mean:.6f}", f"{se:.6f}") for mean, se in zip(rep.mean, rep.stderr)]


def _cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    [(result, scores)] = _run_cells([(cfg, args.mode or cfg.train.mode, args.seed or 0)], 1)

    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "loss_trace.csv"),
        ["step", "loss"],
        [[i, format(loss, ".17g")] for i, loss in enumerate(result.trace)],
    )
    for key, value in result.params.items():
        name = key.replace(".", "_")
        mat = value if value.ndim == 2 else value[None, :]
        matrixio.write_matrix(os.path.join(args.out, f"enc_{name}.mat"), mat)
    matrixio.write_matrix(os.path.join(args.out, "prototypes.mat"), result.prototypes)

    rows = [[cond, *chain.from_iterable(_mean_and_se(rep))] for cond, rep in scores.items()]
    _write_csv(os.path.join(args.out, "metrics.csv"), _METRIC_HEADER, rows)
    print(f"trained mode={result.mode} for {len(result.trace)} steps; wrote {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    features = matrixio.read_matrix(args.features)
    labels = matrixio.read_labels(args.labels)
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on sample count")
    if args.queries is None:
        for flag, value in (("--query-labels", args.query_labels), ("--recall-k", args.recall_k)):
            if value is not None:
                raise ValueError(f"{flag} requires --queries")
    else:
        if args.query_labels is None:
            raise ValueError("--queries requires --query-labels")
        queries = matrixio.read_matrix(args.queries)
        q_labels = matrixio.read_labels(args.query_labels)
        if queries.shape[1] != features.shape[1]:
            raise ValueError(
                f"--queries has {queries.shape[1]} columns but --features has "
                f"{features.shape[1]}; retrieval compares rows of one width"
            )
        # checked before any k-means run; recall_at_k ranks the raw rows by cosine
        recall_k = 1 if args.recall_k is None else args.recall_k
        recall = evalmod.recall_at_k(queries, features, q_labels, labels, recall_k)
    k = args.k if args.k is not None else int(np.unique(labels).size)
    rep = evalmod.repeated_cluster_metrics(features, labels, k, _flag_config(args))
    rows = [[name, *pair] for name, pair in zip(rep.mean._fields, _mean_and_se(rep))]
    if args.queries is not None:
        rows.append([f"recall@{recall_k}", f"{recall:.6f}", "0.000000"])
    _write_csv(args.metrics, ["metric", "mean", "stderr"], rows)
    for row in rows:
        print(f"{row[0]} = {row[1]} (se {row[2]})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate / lambda-grid


def _pool_size(jobs: int, cells: int) -> int:
    """Worker processes for ``cells`` independent cells: ``jobs`` clamped
    to the cell count and the processor count (below 2, run serially)."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, cells, os.cpu_count() or 1)


def _check_seeds(seeds: int) -> None:
    if seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {seeds}")


def _place_prototypes(count: int, dim: int, cfg: ProtoOptConfig):
    # looks the binding up at call time: a pool pickles functions by name,
    # which fails for a wrapper installed on ``ssl_engine.optimize_prototypes``
    return ssl_engine.optimize_prototypes(count, dim, cfg)


def _run_cells(cells: list[tuple[RunConfig, str, int]], jobs: int) -> list[tuple[TrainResult, dict]]:
    """``_run_cell`` of every ``(cfg, mode, seed_offset)`` cell, in order,
    under the cell's ``_cell_config``, derived here once per cell.

    Each distinct prototype set the cells train against (one per seed
    offset) is placed once, by ``ssl_engine.optimize_prototypes``, and
    handed to every cell that trains against it; with several workers the
    placements run in the pool too.
    """
    configs = [_cell_config(*cell) for cell in cells]
    keys = [(c.num_prototypes, c.feature_dim, c.proto) for c in configs]
    distinct = list(dict.fromkeys(keys))
    workers = _pool_size(jobs, len(cells))
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1:
            # imported here: the multiprocessing stack costs every other run start-up time
            from concurrent.futures import ProcessPoolExecutor

            run = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        placed = dict(zip(distinct, run(_place_prototypes, *zip(*distinct))))
        return list(run(_run_cell, [cfg for cfg, _, _ in cells], configs, [placed[key] for key in keys]))


def run_ablation(cfg: RunConfig, seeds: int = 5, jobs: int = 1) -> list[dict]:
    """Train every mode on identical data/seeds and score all test conditions."""
    _check_seeds(seeds)
    cells = [(cfg, mode, s) for s in range(seeds) for mode in MODES]
    return [
        {"seed": s, "mode": mode, "condition": condition, "accuracy": rep.mean.accuracy,
         "accuracy_se": rep.stderr.accuracy, "nmi": rep.mean.nmi, "f1": rep.mean.f1}
        for (_, mode, s), (_, scores) in zip(cells, _run_cells(cells, jobs))
        for condition, rep in scores.items()
    ]


def ablation_medians(rows: list[dict]) -> dict[tuple[str, str], float]:
    """Median accuracy per (mode, condition) across seeds."""
    grouped: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        grouped.setdefault((row["mode"], row["condition"]), []).append(row["accuracy"])
    return {key: statistics.median(values) for key, values in grouped.items()}


def _cmd_ablate(args) -> int:
    cfg = _load_run_config(args.config)
    rows = run_ablation(cfg, seeds=args.seeds, jobs=args.jobs)
    _write_csv(args.out, list(rows[0]),
               [[f"{v:.6f}" if isinstance(v, float) else v for v in r.values()] for r in rows])
    for (mode, condition), acc in sorted(ablation_medians(rows).items()):
        print(f"{mode:>6} {condition:>6} median accuracy {acc:.4f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def run_lambda_grid(
    cfg: RunConfig,
    lambda1_values: list[float],
    lambda2_values: list[float],
    seeds: int = 1,
    jobs: int = 1,
) -> list[dict]:
    """Median fused-feature accuracy over ``seeds`` guided training runs
    per (lambda1, lambda2) cell.

    The prototypes depend on the seed only, so every cell shares them.
    """
    _check_seeds(seeds)
    pairs = [(l1, l2) for l1 in lambda1_values for l2 in lambda2_values]
    cells = []
    for l1, l2 in pairs:
        solver = replace(cfg.solver, lambda1=l1, lambda2=l2)
        cell_cfg = replace(cfg, train=replace(cfg.train, solver=solver))
        cells += [(cell_cfg, "goca", s) for s in range(seeds)]
    fused = [scores["fused"].mean.accuracy for _, scores in _run_cells(cells, jobs)]
    return [
        {"lambda1": l1, "lambda2": l2, "accuracy": statistics.median(fused[i * seeds : (i + 1) * seeds])}
        for i, (l1, l2) in enumerate(pairs)
    ]


def _parse_float_list(raw: str, flag: str, name: str) -> list[float]:
    values = []
    for part in filter(str.strip, raw.split(",")):
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"{flag} entry {part.strip()!r} is not a number") from None
        try:
            SolverConfig(**{name: values[-1]})
        except ValueError as exc:
            # each entry is a SolverConfig field; report it by the flag
            raise ValueError(f"{flag} {str(exc).partition(' ')[2]}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _cmd_lambda_grid(args) -> int:
    l1s = _parse_float_list(args.lambda1_list, "--lambda1-list", "lambda1")
    l2s = _parse_float_list(args.lambda2_list, "--lambda2-list", "lambda2")
    cfg = _load_run_config(args.config)
    rows = run_lambda_grid(cfg, l1s, l2s, seeds=args.seeds, jobs=args.jobs)
    _write_csv(
        args.out,
        ["lambda1", "lambda2", "accuracy"],
        [[r["lambda1"], r["lambda2"], f"{r['accuracy']:.6f}"] for r in rows],
    )
    best = max(rows, key=lambda r: r["accuracy"])
    print(
        f"best cell lambda1={best['lambda1']} lambda2={best['lambda2']} "
        f"accuracy={best['accuracy']:.4f}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    # imported here: the oracle battery costs every other command start-up time
    from .verify import oracle_battery

    checks = oracle_battery(args.seed)
    failures = 0
    for name, passed, detail in checks:
        state = "PASS" if passed else "FAIL"
        print(f"{state}  {name}  ({detail})")
        if not passed:
            failures += 1
    if failures:
        print(f"{failures} verification check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    print("all verification checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="goca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic two-view benchmark")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("optimize-prototypes", help="place maximally separated unit prototypes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=_cmd_optimize_prototypes)

    p = sub.add_parser("solve", help="solve one assignment instance from matrix files")
    p.add_argument("--cost", required=True)
    p.add_argument("--prior", help="guide the solve by this prior plan")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("train", help="train one mode on the synthetic benchmark")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score stored features against labels")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--queries")
    p.add_argument("--query-labels")
    p.add_argument("--recall-k", type=int, help="neighbors retrieved per query (default 1)")
    p.add_argument("--k", type=int, help="number of clusters (default: number of label values)")
    p.add_argument("--metrics", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("lambda-grid", help="sweep (lambda1, lambda2) cells of guided training")
    p.add_argument("--config")
    p.add_argument("--lambda1-list", default="0.01,0.02,0.03,0.04")
    p.add_argument("--lambda2-list", default="0.01,0.02,0.03,0.04")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lambda_grid)

    p = sub.add_parser("ablate", help="train and score every mode on identical seeds/data")
    p.add_argument("--config")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("verify", help="run criteria c01-c06's oracle checks at reduced draws")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dump-config", help="print the canonical config with defaults")
    p.add_argument("--config")
    p.set_defaults(func=lambda args: (print(dump_config(_load_run_config(args.config)), end=""), EXIT_OK)[1])

    for command, (cls, flags) in _MIRRORED.items():
        for flag, name in flags.items():
            sub.choices[command].add_argument(flag, dest=name, type=type(getattr(cls, name)))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an allocation numpy refuses, such as a huge --steps
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
