"""Tests of the benchmark itself: tracer arithmetic and safety, seeds, checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import importlib  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from goca import ot_core  # noqa: E402
from goca.runconfig import parse_config  # noqa: E402
from tracer import (  # noqa: E402
    TARGETS,
    Span,
    Tracer,
    TracerError,
    layer_metrics,
    self_times,
    wrapper_cost_s,
)
from workloads import (  # noqa: E402
    AblateJob,
    CheckError,
    Instance,
    ablate_config_text,
    augment_keeping_rows,
    check_ablate,
    check_plan,
    draw_instances,
)


def _span(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent, "test", attrs)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: together they cover [1, 6]
        _span("a.child", 2.0, 3.0, parent=1),
        _span("c", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_on_a_hand_built_tree():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("cli.run_ablation", 1.0, 9.0, parent=0),
        _span("ssl_engine.step", 2.0, 4.0, parent=1, converged=False),
        _span("guided_ot.cross_guided_assign", 2.5, 3.5, parent=2),
        _span("ot_core.sinkhorn", 2.5, 3.0, parent=3, iterations=7, converged=True),
        _span("guided_ot.guided_sinkhorn", 3.0, 3.5, parent=3, iterations=9, converged=False),
        _span("ssl_engine.step", 5.0, 6.0, parent=1, converged=True),
        _span("prototypes.optimize_prototypes", 6.0, 7.0, parent=1, input="x"),
        _span("prototypes.optimize_prototypes", 7.0, 8.0, parent=1, input="x"),
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["ssl_engine.step.calls"] == 2
    assert m["ssl_engine.step.self_s"] == pytest.approx(1.0 + 1.0)
    assert m["ssl_engine.nonconverged_steps"] == 1
    assert m["guided_ot.cross_guided_assign.self_s"] == pytest.approx(0.0)
    assert m["ot_core.sinkhorn.iterations_reported"] == 7
    assert m["guided_ot.guided_sinkhorn.nonconverged"] == 1
    assert m["prototypes.optimize_prototypes.distinct_inputs"] == 1
    assert m["prototypes.optimize_prototypes.useful_ratio"] == pytest.approx(0.5)
    assert m["eval.kmeans.calls"] == 0


def test_wrapper_cost_is_a_small_positive_time():
    assert 0.0 < wrapper_cost_s(calls=2000, repeats=3) < 1e-3


def _bindings():
    return {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _, _ in TARGETS}


def test_every_wrapper_is_removed_after_the_traced_run_even_on_error():
    originals = _bindings()
    tracer = Tracer("test")
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert all(_bindings()[key] is not fn for key, fn in originals.items())
            ot_core.sinkhorn(np.array([[0.0, 1.0], [1.0, 0.0]]))
            raise ZeroDivisionError
    assert _bindings() == originals
    assert [s.name for s in tracer.spans] == ["ot_core.sinkhorn"]
    assert tracer.spans[0].attrs["converged"] is True


def test_a_missing_target_fails_the_traced_run_and_wraps_nothing():
    originals = _bindings()
    missing = TARGETS + (("goca.ot_core", "no_such_solver", "ot_core.gone", None),)
    with pytest.raises(TracerError, match="no_such_solver"):
        with Tracer("test").installed(missing):
            pytest.fail("the traced block must not run")
    assert _bindings() == originals


def test_ablate_seed_reaches_data_train_and_prototype_seeds():
    for seed in (0, 7):
        cfg = parse_config(ablate_config_text(seed))
        seeds = (cfg.data.seed, cfg.train.seed, cfg.proto.seed, cfg.train.proto.seed)
        assert seeds == (seed,) * 4
    assert ablate_config_text(3).encode() == ablate_config_text(3).encode()
    assert ablate_config_text(3) != ablate_config_text(4)


def _instance_bytes(instances):
    parts = []
    for inst in instances:
        parts += [inst.kind.encode(), inst.cost.tobytes()]
        if inst.prior is not None:
            parts.append(inst.prior.tobytes())
    return b"|".join(parts)


def test_solve_seed_reaches_the_instance_draw():
    rng = np.random.default_rng(0)
    protos = rng.standard_normal((64, 16))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    first = _instance_bytes(draw_instances(5, protos, count=3))
    assert first == _instance_bytes(draw_instances(5, protos, count=3))
    assert first != _instance_bytes(draw_instances(6, protos, count=3))


def test_augmentation_never_drops_a_whole_row():
    # one input per row: plain augmentation drops one of these 10 rows on average
    inputs = np.ones((10, 1))
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert np.all(augment_keeping_rows(inputs, rng) != 0.0)


def test_solve_check_rejects_a_wrong_plan():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = Instance("plain", cost, None)
    good = ot_core.sinkhorn(cost)
    check_plan(0, inst, good)
    bad = ot_core.SinkhornResult(good.plan[::-1], True, 1, 0.0, 0.0)
    with pytest.raises(CheckError, match="oracle"):
        check_plan(1, inst, bad)
    negative = ot_core.SinkhornResult(-good.plan, True, 1, 0.0, 0.0)
    with pytest.raises(CheckError, match="nonnegative"):
        check_plan(1, inst, negative)
    loose = ot_core.SinkhornResult(np.full((3, 3), 0.1), True, 1, 0.0, 0.0)
    with pytest.raises(CheckError, match="marginals"):
        check_plan(2, Instance("plain", np.zeros((3, 3)), None), loose)


def test_ablate_check_rejects_missing_rows_and_bad_accuracies(tmp_path):
    path = tmp_path / "ablation.csv"
    header = "seed,mode,condition,accuracy,accuracy_se,nmi,f1\n"
    path.write_text(header + "0,goca,fused,0.9,0,0,0\n")
    job = AblateJob(str(tmp_path / "unused.cfg"), str(path), steps=4)
    with pytest.raises(CheckError, match="differ"):
        check_ablate(job, (0, 0))
    path.write_text(header + "0,goca,fused,nan,0,0,0\n")
    with pytest.raises(CheckError, match="finite"):
        check_ablate(job, (0, 0))
    with pytest.raises(CheckError, match="exited"):
        check_ablate(job, (1, 0))
