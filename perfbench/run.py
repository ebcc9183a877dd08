"""Benchmark of the goca reproduction, driven from outside through its public API.

    python3 perfbench/run.py --workload ablate --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs the workload once, traced,
and reports the per-layer metrics, writing the spans to
``.perfbench-traces/``.  The last line of standard output is one JSON
object; a failed output check exits non-zero without it.

The work per workload is fixed, so every count repeats for a given
seed; ``--seconds`` is the time it is sized for and is recorded, not
enforced.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP pools must be pinned before numpy is first imported.
THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXIT_FAILED = 1
# numpy's generators take only nonnegative seeds, so --seed is taken
# modulo this
SEED_RANGE = 2**64


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import goca from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import goca

    if SRC not in Path(goca.__file__).resolve().parents:
        raise ImportError(f"goca was imported from {goca.__file__}, not from {SRC}")
    return goca


def _git_sha() -> str:
    # the ceiling keeps git from reporting an enclosing repository's HEAD
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _program_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "goca" or name.startswith("goca.")}


def _import_afresh() -> None:
    """Import the program again in this process, as every user run imports it.

    Its modules are put back afterwards, so the benchmark keeps calling the
    functions it (and the tracer) resolved.  numpy stays loaded, so this
    times the program's own import.
    """
    loaded = _program_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        importlib.import_module("goca.cli")
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


def _declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def _result(outcome, values: dict, kind: str) -> dict:
    units = _declared_metrics(kind)
    if set(values) != set(units):
        raise RuntimeError(
            f"computed metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    return {
        "correct": True,
        "attempted": outcome.attempted,
        # an operation without a valid result fails its check, and the run
        # then stops before this point; non-converged operations returned
        # valid results and are counted in the info line
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _end_to_end(workload, seed, workdir):
    setup_times = []
    for _ in range(workload.setup_repeats):
        job = None  # free the previous set-up's inputs before the next
        start = time.perf_counter()
        _import_afresh()
        job = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - start)
    raw, wall = workload.run(job)
    outcome = workload.check(job, raw)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return outcome, values, None


def _traced(workload, seed, workdir):
    from tracer import Tracer, TracerError, layer_metrics, wrapper_cost_s

    tracer = Tracer(run_id=f"{workload.name}-seed{seed}-traced")
    with tracer.installed():
        job = workload.setup(seed, workdir)
        first_run_span = len(tracer.spans)
        raw, traced_wall = workload.run(job)
    outcome = workload.check(job, raw)
    run_spans = tracer.spans[first_run_span:]
    seen = sum(span.name in workload.op_layers for span in run_spans)
    if seen != outcome.attempted:
        raise TracerError(
            f"the trace saw {seen} of {outcome.attempted} operations; "
            "a wrapped binding is no longer the one its callers use"
        )
    values = layer_metrics(tracer.spans)
    # the untraced time is estimated as the traced time less the measured
    # cost of every wrapper call inside the timed work
    added = len(run_spans) * wrapper_cost_s()
    values["trace.overhead_frac"] = added / (traced_wall - added)
    return outcome, values, tracer


def _write_trace(tracer, provenance, outcome, values) -> Path:
    out_dir = ROOT / ".perfbench-traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{provenance['workload']}-seed{provenance['seed']}.json"
    spans = [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "run_id": s.run_id, "attrs": s.attrs}
        for s in tracer.spans
    ]
    path.write_text(json.dumps(
        {"provenance": provenance, "info": outcome.info, "per_layer": values, "spans": spans}
    ))
    return path


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return EXIT_FAILED
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, CheckError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return EXIT_FAILED
    workload = WORKLOADS[args.workload]
    seed = args.seed % SEED_RANGE
    provenance = _provenance(args)
    print("provenance " + json.dumps(provenance))

    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        measure = _traced if args.trace else _end_to_end
        outcome, values, tracer = measure(workload, seed, workdir)
    except CheckError as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("info " + json.dumps(dict(outcome.info, attempted=outcome.attempted,
                                    nonconverged=outcome.nonconverged)))
    if tracer is not None:
        print(f"spans written to {_write_trace(tracer, provenance, outcome, values)}")
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(_result(outcome, values, kind)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
