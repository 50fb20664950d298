import hashlib

import mpmath
import numpy as np
import pytest

from cganlab import models, training
from cganlab.checkpoint import load_model, save_model
from cganlab.data import LabeledDataset, mixture_3x2_spec, synth_mixture
from cganlab.errors import ConfigError, ContractError, DataError
from cganlab.models import (NetworkSpec, build_approximator, build_discriminator,
                            discriminator_forward, generator_forward, pretrain_approximator)
from cganlab.rng import RngStream
from cganlab.tensor import AdamState, Tensor, TiedRows, _accum, adam_step, backward, rows
from cganlab.training import (TrainConfig, build_models, d_loss, g_loss,
                              irgan_regularizer, train)
from conftest import full_grad, numeric_grad

mpmath.mp.dps = 50


def small_cfg(variant="sbp", steps=5, seed=0, **kw):
    base = dict(variant=variant, total_steps=steps, batch_size=32, lr=1e-3,
                seed=seed, noise_dim=4, g_hidden=[8, 8], d_hidden=[8, 8])
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_mixture():
    ds, oracle = synth_mixture(mixture_3x2_spec(), 120, seed=5)
    return ds


@pytest.fixture(scope="module")
def tiny_q(tiny_mixture):
    params, _ = pretrain_approximator(
        tiny_mixture, tiny_mixture, NetworkSpec([8], head="softmax"), 150,
        RngStream(2, ("q",)), hyper={"lr": 1e-2, "beta1": 0.9, "beta2": 0.999,
                                     "epsilon": 1e-8})
    return params


# ----------------------------------------------------------------------
# losses


def test_d_loss_indifferent_discriminator():
    val = d_loss(Tensor([0.5, 0.5]), Tensor([0.5, 0.5])).item()
    assert abs(val - 2.0 * np.log(2.0)) < 1e-12


def test_d_loss_confident_discriminator_approaches_zero():
    val = d_loss(Tensor([0.999999, 0.999999]), Tensor([1e-6, 1e-6])).item()
    assert 0.0 < val < 1e-5


def test_d_loss_matches_extended_precision_sum(rng):
    dr = rng.uniform(0.01, 0.99, 16)
    df = rng.uniform(0.01, 0.99, 16)
    got = d_loss(Tensor(dr), Tensor(df)).item()
    want = float(-sum(mpmath.log(mpmath.mpf(v)) for v in dr) / 16
                 - sum(mpmath.log(1 - mpmath.mpf(v)) for v in df) / 16)
    assert abs(got - want) < 1e-12


def test_d_loss_rejects_boundary_probabilities():
    with pytest.raises(ContractError):
        d_loss(Tensor([1.0]), Tensor([0.5]))
    with pytest.raises(ContractError):
        d_loss(Tensor([0.5]), Tensor([0.0]))


def test_g_loss_values_at_half():
    assert abs(g_loss(Tensor([0.5]), "minimax").item() - np.log(0.5)) < 1e-12
    assert abs(g_loss(Tensor([0.5]), "non_saturating").item() - np.log(2.0)) < 1e-12


def test_g_loss_matches_extended_precision_sum(rng):
    df = rng.uniform(0.01, 0.99, 12)
    got = g_loss(Tensor(df), "minimax").item()
    want = float(sum(mpmath.log(1 - mpmath.mpf(v)) for v in df) / 12)
    assert abs(got - want) < 1e-12


@pytest.mark.parametrize("mode", ["minimax", "non_saturating"])
def test_g_loss_decreases_as_discriminator_is_fooled(mode):
    g = numeric_grad(lambda x: g_loss(Tensor(x), mode).item(),
                     np.array([0.3, 0.5, 0.7]))
    assert np.all(g < 0.0)


def test_g_loss_unknown_mode():
    with pytest.raises(ConfigError):
        g_loss(Tensor([0.5]), "wasserstein")


def test_regularizer_zero_when_q_is_certain():
    q = Tensor([[1.0 - 2e-16, 1e-16, 1e-16]])
    c = np.array([[1.0, 0.0, 0.0]])
    assert irgan_regularizer(q, c, 1.0).item() < 1e-12


def test_regularizer_uniform_q():
    q = Tensor(np.full((4, 10), 0.1))
    c = np.zeros((4, 10))
    c[np.arange(4), [0, 3, 5, 9]] = 1.0
    val = irgan_regularizer(q, c, 1.0).item()
    assert abs(val - np.log(10.0)) < 1e-12


def test_regularizer_scales_with_lambda_and_zero_lambda(rng):
    q_raw = rng.uniform(0.1, 1.0, (3, 4))
    q = Tensor(q_raw / q_raw.sum(axis=1, keepdims=True))
    c = np.zeros((3, 4))
    c[np.arange(3), [0, 1, 2]] = 1.0
    base = irgan_regularizer(q, c, 1.0).item()
    assert base >= 0.0
    assert abs(irgan_regularizer(q, c, 2.5).item() - 2.5 * base) < 1e-12
    assert irgan_regularizer(q, c, 0.0).item() == 0.0


def test_regularizer_rejects_non_distribution_rows():
    c = np.array([[1.0, 0.0]])
    with pytest.raises(ContractError):
        irgan_regularizer(Tensor([[0.9, 0.3]]), c, 1.0)
    with pytest.raises(ContractError):
        irgan_regularizer(Tensor([[0.5, 0.5]]), np.array([[0.4, 0.6]]), 1.0)


def test_regularizer_backpropagates_into_q_output(rng):
    q_raw = rng.uniform(0.1, 1.0, (2, 3))
    q_arr = q_raw / q_raw.sum(axis=1, keepdims=True)
    c = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    q = Tensor(q_arr)
    backward(irgan_regularizer(q, c, 1.5))
    expected = -1.5 * c / np.maximum(q_arr, 1e-12) / 2.0
    np.testing.assert_allclose(q.grad, expected, rtol=1e-10)


# ----------------------------------------------------------------------
# the loop


def test_zero_learning_rate_is_bitwise_noop(tiny_mixture):
    cfg = small_cfg(lr=0.0, steps=3)
    g, d, _ = train(cfg, tiny_mixture)
    g0 = {n: t.data.copy() for n, t in g.named().items()}
    d0 = {n: t.data.copy() for n, t in d.named().items()}
    g2, d2, _ = train(small_cfg(lr=0.0, steps=6), tiny_mixture, g=g, d=d, start_step=3)
    for name, t in g2.named().items():
        assert np.array_equal(t.data, g0[name])
    for name, t in d2.named().items():
        assert np.array_equal(t.data, d0[name])


def test_total_steps_zero_returns_initialized_params(tiny_mixture):
    cfg = small_cfg(steps=0, seed=9)
    g, d, log = train(cfg, tiny_mixture)
    from cganlab.training import build_models
    g_ref, d_ref = build_models(cfg, tiny_mixture.image_shape, tiny_mixture.cond_dim,
                                RngStream(9, ("train", "sbp")))
    for name, t in g.named().items():
        assert np.array_equal(t.data, g_ref.named()[name].data)
    assert log.rows == []


def test_training_is_bit_deterministic(tiny_mixture):
    runs = []
    for _ in range(2):
        g, d, log = train(small_cfg(steps=8, seed=13), tiny_mixture)
        digest = hashlib.sha256()
        for name in sorted(dict(g.named())):
            digest.update(g.named()[name].data.tobytes())
        for name in sorted(dict(d.named())):
            digest.update(d.named()[name].data.tobytes())
        runs.append((digest.hexdigest(),
                     log.column("d_loss"), log.column("g_loss")))
    assert runs[0] == runs[1]


def test_resume_reproduces_uninterrupted_run(tiny_mixture):
    full_g, full_d, full_log = train(small_cfg(steps=10, seed=21), tiny_mixture)
    part_g, part_d, part_log = train(small_cfg(steps=5, seed=21), tiny_mixture)
    res_g, res_d, res_log = train(small_cfg(steps=10, seed=21), tiny_mixture,
                                  g=part_g, d=part_d, start_step=5)
    assert (part_log.column("d_loss") + res_log.column("d_loss")
            == full_log.column("d_loss"))
    assert (part_log.column("g_loss") + res_log.column("g_loss")
            == full_log.column("g_loss"))
    for name, t in res_g.named().items():
        assert np.array_equal(t.data, full_g.named()[name].data)
    for name, t in res_d.named().items():
        assert np.array_equal(t.data, full_d.named()[name].data)


def tiny_images():
    """3x3x1 images with four conditions, so the first layer sees a pixel grid."""
    rng = np.random.default_rng(8)
    return LabeledDataset(rng.uniform(-1, 1, (40, 3, 3, 1)), np.eye(4)[np.arange(40) % 4])


@pytest.mark.parametrize("variant", ["cgan", "fcgan", "sbp", "irgan"])
@pytest.mark.parametrize("images", [False, True], ids=["mixture", "images"])
def test_stacked_d_update_matches_two_calls(variant, images, tiny_mixture, monkeypatch):
    ds = tiny_images() if images else tiny_mixture
    cfg = small_cfg(variant, lam=1.0 if variant == "irgan" else 0.0)
    q = build_approximator(ds.image_shape, ds.cond_dim, NetworkSpec([4]), RngStream(1, ("q",)))
    g, d = build_models(cfg, ds.image_shape, ds.cond_dim, RngStream(3, ("init",)))
    _, d_ref = build_models(cfg, ds.image_shape, ds.cond_dim, RngStream(3, ("init",)))
    x_real, c_real = ds.images[:32], ds.labels[:32]
    label_probs = ds.label_counts() / ds.count
    stream = RngStream(4, ("step",))

    # the D update as two D calls, one on real and one on fake data
    s = stream.split("d-0")
    z = training._sample_noise(s.split("z"), 32, cfg.noise_dim)
    cf = training._sample_conditions(s.split("c"), 32, label_probs)
    x_fake = Tensor(generator_forward(z, cf, g).data)
    loss = d_loss(discriminator_forward(Tensor(x_real), Tensor(c_real), d_ref),
                  discriminator_forward(x_fake, cf, d_ref))
    backward(loss, wrt=d_ref.named().values())

    updates = []
    apply = training._apply_grads

    def record(params):
        updates.append({name: t.grad for name, t in params.named().items()})
        apply(params)

    monkeypatch.setattr(training, "_apply_grads", record)
    rec = training.train_step(x_real, c_real, g, d, q, cfg, label_probs, stream, 0)
    assert abs(rec["d_loss"] - loss.item()) <= 1e-12 * abs(loss.item())
    for name, t in d_ref.named().items():
        got, want = full_grad(updates[0][name]), full_grad(t.grad)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def _full_dw_replicate_concat(x, c, weight):
    """Replicate-concat's product as it was before tied rows, the reference below.

    Its weight gradient is one full [h*w*(d+m), k] array in which every
    pixel's condition rows are a copy of c^T g. Only the weight gets a
    gradient: in a D update the images and conditions are constants.
    """
    b, h, w, d = x.shape
    pixels, m, k = h * w, c.shape[1], weight.shape[1]
    w3 = weight.data.reshape(pixels, d + m, k)
    xs = x.data.reshape(b, pixels * d)
    w_image = w3[:, :d, :].reshape(pixels * d, k)
    w_cond = w3[:, d:, :].sum(axis=0)

    def back(g, wa=weight):
        dw = np.empty(w3.shape)
        dw[:, :d, :] = (xs.T @ g).reshape(pixels, d, k)
        dw[:, d:, :] = c.data.T @ g
        _accum(wa, dw.reshape(wa.shape))

    return Tensor(xs @ w_image + c.data @ w_cond, (x, c, weight), "replicate_concat", back)


def _d_update(d, x, c, full):
    """One D update on a stacked real and fake batch, as train_step makes it.

    With full, every gradient is an array and goes through adam_step as is.
    """
    b = x.shape[0] // 2
    p = discriminator_forward(x, c, d)
    backward(d_loss(rows(p, 0, b), rows(p, b, 2 * b)), wrt=d.named().values())
    if not full:
        training._apply_grads(d)
        return
    for name, t in d.named().items():
        adam_step(t, t.grad, d.adam[name], d.hyper)
        t.grad = None


def _assert_same_bytes(a, b):
    want, got = a.named_arrays(), b.named_arrays()
    assert sorted(want) == sorted(got)
    for name in want:
        assert want[name].tobytes() == got[name].tobytes(), name
    assert {n: st.step for n, st in a.adam.items()} == {n: st.step for n, st in b.adam.items()}


@pytest.mark.parametrize("variant", ["cgan", "fcgan"])
@pytest.mark.parametrize("shape,m", [((28, 28, 1), 10), ((3, 3, 1), 4), ((1, 1, 2), 3)],
                         ids=["28x28x1", "3x3x1", "1x1x2"])
def test_tied_rows_update_matches_full_gradient_bytes(variant, shape, m, tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    batches = [(Tensor(rng.uniform(-1, 1, (16,) + shape)),
                Tensor(np.eye(m)[rng.integers(0, m, 16)])) for _ in range(25)]

    def build():
        return build_discriminator(shape, m, NetworkSpec([16, 8]), variant, RngStream(6, ("d",)),
                                   hyper={"lr": 1e-3})

    # the reference: the full weight gradient and full moments for l0.w
    ref = build()
    ref.adam["l0.w"] = AdamState.fresh(ref.weights[0].shape)
    with monkeypatch.context() as patch:
        patch.setattr(models, "spatial_replicate_concat", _full_dw_replicate_concat)
        for x, c in batches[:20]:
            _d_update(ref, x, c, full=True)
    d = build()
    assert isinstance(d.adam["l0.w"].m, TiedRows)
    for x, c in batches[:20]:
        _d_update(d, x, c, full=False)
    _assert_same_bytes(ref, d)

    # the checkpoint keeps the per-pixel layout, and training resumes from it
    save_model(tmp_path / "ref.ckpt", ref)
    save_model(tmp_path / "d.ckpt", d)
    assert (tmp_path / "ref.ckpt").read_bytes() == (tmp_path / "d.ckpt").read_bytes()
    loaded, _ = load_model(tmp_path / "d.ckpt")
    with monkeypatch.context() as patch:
        patch.setattr(models, "spatial_replicate_concat", _full_dw_replicate_concat)
        for x, c in batches[20:]:
            _d_update(ref, x, c, full=True)
    for x, c in batches[20:]:
        _d_update(loaded, x, c, full=False)
    _assert_same_bytes(ref, loaded)


def test_irgan_requires_q_and_leaves_it_frozen(tiny_mixture, tiny_q):
    with pytest.raises(ConfigError):
        train(small_cfg("irgan", lam=1.0), tiny_mixture)
    before = hashlib.sha256()
    for name in sorted(dict(tiny_q.named())):
        before.update(tiny_q.named()[name].data.tobytes())
    _, _, log = train(small_cfg("irgan", steps=6, lam=1.0), tiny_mixture, q_params=tiny_q)
    after = hashlib.sha256()
    for name in sorted(dict(tiny_q.named())):
        after.update(tiny_q.named()[name].data.tobytes())
    assert before.hexdigest() == after.hexdigest()
    assert all(r["r_g"] is not None and r["r_g"] >= 0.0 for r in log.rows)


def test_lambda_config_contract(tiny_mixture, tiny_q):
    with pytest.raises(ConfigError):
        small_cfg("irgan", lam=0.0).validate()
    with pytest.raises(ConfigError):
        small_cfg("cgan", lam=0.5).validate()
    with pytest.raises(ConfigError):
        train(small_cfg("cgan", steps=1), tiny_mixture, q_params=tiny_q)


def test_non_irgan_rows_have_no_regularizer_entry(tiny_mixture):
    _, _, log = train(small_cfg(steps=2), tiny_mixture)
    assert all(r["r_g"] is None for r in log.rows)


def test_empty_and_undersized_dataset_rejected(tiny_mixture):
    with pytest.raises(DataError):
        train(small_cfg(batch_size=100000), tiny_mixture)


def test_step_failure_names_the_step(tiny_mixture, monkeypatch):
    import cganlab.training as tr

    def boom(*a, **k):
        raise ContractError("synthetic failure")

    monkeypatch.setattr(tr, "d_loss", boom)
    with pytest.raises(ContractError) as err:
        train(small_cfg(steps=1), tiny_mixture)
    assert "training step 0" in str(err.value)


def test_trainlog_csv_shape(tiny_mixture):
    _, _, log = train(small_cfg(steps=3), tiny_mixture)
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "step,d_loss,g_loss,r_g,wall_ms"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == ""
    assert float(first[4]) >= 0.0


# Tensor nodes one mixture-preset train_step builds (G and D 64,64, batch 256,
# irgan's Q 32): each hidden layer is its product and one leaky_relu node.
# The step runs G twice and D twice, and irgan's also Q once; with a bias add
# and an activation node per hidden layer it built 8 nodes more (9 for irgan).
PRESET_STEP_NODES = {"cgan": 61, "fcgan": 65, "sbp": 61, "irgan": 79}


@pytest.mark.parametrize("variant", sorted(PRESET_STEP_NODES))
def test_nodes_per_train_step_at_the_mixture_preset(variant, mixture_data, monkeypatch):
    train_ds = mixture_data[0]
    cfg = TrainConfig(variant=variant, total_steps=1, batch_size=256, lr=1.5e-3, seed=3,
                      noise_dim=8, g_hidden=[64, 64], d_hidden=[64, 64],
                      lam=2.0 if variant == "irgan" else 0.0)
    root = RngStream(cfg.seed, ("train", variant))
    g, d = build_models(cfg, train_ds.image_shape, train_ds.cond_dim, root)
    q = build_approximator(train_ds.image_shape, train_ds.cond_dim,
                           NetworkSpec([32], head="softmax"), RngStream(1, ("q",))) \
        if variant == "irgan" else None
    label_probs = train_ds.label_counts() / train_ds.count
    built = 0
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    training.train_step(train_ds.images[:256], train_ds.labels[:256], g, d, q, cfg, label_probs,
                        root.split("step-0"), 0)
    assert built == PRESET_STEP_NODES[variant]
