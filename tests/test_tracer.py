"""The benchmark's span tracer must still find and wrap the functions it times.

perfbench/spans.py patches cganlab's module attributes by name; a refactor
that renames one, or stops calling it through the module that is patched,
would make the traced benchmark pass fail or read zero. This runs a tiny
traced fcgan training and evaluation and checks the spans it relies on.
"""

import importlib.util
from pathlib import Path

import numpy as np

from cganlab import parzen, training
from cganlab.data import mixture_3x2_spec, split, synth_mixture
from cganlab.parzen import ParzenConfig
from cganlab.training import TrainConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_training_and_eval_and_restores():
    spans = load_spans()
    ds, _ = synth_mixture(mixture_3x2_spec(), 40, seed=3)
    train_ds, valid_ds, test_ds = split(ds, (0.5, 0.25, 0.25), 3)
    cfg = TrainConfig(variant="fcgan", total_steps=2, batch_size=16, noise_dim=4,
                      g_hidden=[8], d_hidden=[8], lr=1e-3)
    tracer = spans.Tracer()
    spans.install(tracer)
    patched = list(tracer._patches)
    try:
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
        g, _, log_ = training.train(cfg, train_ds)
        rows = parzen.conditional_eval(g, valid_ds, test_ds,
                                       ParzenConfig(samples_per_condition=20), seed=1)
    finally:
        tracer.remove()
    assert len(log_.rows) == 2 and all(r.mean_ll is not None for r in rows)
    recorded = set(tracer.name)
    for name in ("training.train", "training.update", "training.d_forward",
                 "conditioning.fwd", "parzen.select", "parzen.score"):
        assert name in recorded, name
    assert tracer.name.count("training.update") == 4  # one D and one G update per step
    metrics = spans.layer_metrics(tracer)
    assert metrics["models.d_layer0_mflop_per_step"] > 0
    assert np.isfinite(list(metrics.values())).all()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)


def test_every_layers_activation_is_timed():
    spans = load_spans()
    ds, _ = synth_mixture(mixture_3x2_spec(), 40, seed=3)
    cfg = TrainConfig(variant="cgan", total_steps=1, batch_size=16, noise_dim=4,
                      g_hidden=[8, 8], d_hidden=[8], lr=1e-3)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        training.train(cfg, ds)
    finally:
        tracer.remove()
    # hidden layers and the output layer: G has three, D two
    layers = {"training.g_forward": 3, "training.d_forward": 2}
    forwards = [i for i, name in enumerate(tracer.name) if name in layers]
    assert len(forwards) == 4  # G twice and D twice in one step
    for i in forwards:
        timed = [j for j, p in enumerate(tracer.parent)
                 if p == i and tracer.name[j] == "tensor.activation"]
        assert len(timed) == layers[tracer.name[i]], tracer.name[i]
