import numpy as np
import pytest

from cganlab.data import LabeledDataset
from cganlab.errors import ConfigError, ContractError, DataError, DimensionError
from cganlab.models import (NetworkSpec, Variant, approximator_forward,
                            build_approximator, build_discriminator, build_generator,
                            classifier_accuracy, discriminator_forward,
                            generator_forward, pretrain_approximator)
from cganlab.rng import RngStream
from cganlab.tensor import Tensor, TiedRows, backward
from conftest import assert_grads_match, full_grad, projection

IMG = (3, 3, 1)
M = 3
K = 4
SPEC = NetworkSpec([6, 5])


def make_g(seed=0):
    return build_generator(IMG, M, K, SPEC, RngStream(seed, ("g",)))


def make_d(variant, seed=0, **kw):
    return build_discriminator(IMG, M, SPEC, variant, RngStream(seed, ("d",)), **kw)


def onehot(i, m=M):
    """A batch of one: the [1, m] one-hot row of condition i."""
    v = np.zeros((1, m))
    v[0, i] = 1.0
    return v


# ----------------------------------------------------------------------
# generator


def test_generator_zero_final_layer_gives_zero_image(stream):
    g = make_g()
    g.weights[-1].data[...] = 0.0
    g.biases[-1].data[...] = 0.0
    out = generator_forward(Tensor(stream.uniform(-1, 1, (1, K))), Tensor(onehot(1)), g)
    assert out.shape == (1,) + IMG
    np.testing.assert_array_equal(out.data, np.zeros((1,) + IMG))


def test_generator_deterministic_forward(stream):
    g = make_g()
    z = stream.uniform(-1, 1, (1, K))
    a = generator_forward(Tensor(z), Tensor(onehot(0)), g).data
    b = generator_forward(Tensor(z), Tensor(onehot(0)), g).data
    assert np.array_equal(a, b)


def test_generator_output_in_tanh_range(stream):
    g = make_g()
    z = Tensor(stream.uniform(-1, 1, (16, K)))
    c = Tensor(np.tile(onehot(2), (16, 1)))
    out = generator_forward(z, c, g).data
    assert out.shape == (16,) + IMG
    assert np.all(out > -1.0) and np.all(out < 1.0)


def test_generator_gradients_wrt_noise_and_condition(rng):
    g = make_g(3)
    z = rng.uniform(-1, 1, (1, K))
    c = rng.uniform(0.1, 1.0, (1, M))
    w = rng.normal(size=(1,) + IMG)
    assert_grads_match(lambda zz, cc: projection(w)(generator_forward(zz, cc, g)), z, c)


def test_generator_identical_across_variants():
    counts = set()
    shapes = set()
    for seed in range(2):
        g = make_g(seed)
        counts.add(sum(t.size for t in g.named().values()))
        shapes.add(tuple(t.shape for t in g.weights))
    assert len(counts) == 1 and len(shapes) == 1


def test_generator_input_width_checked(stream):
    g = make_g()
    with pytest.raises(DimensionError):
        generator_forward(Tensor(stream.uniform(-1, 1, (1, K + 1))), Tensor(onehot(0)), g)


def test_forwards_take_only_batches(stream):
    """One sample without its batch axis is a DimensionError in every forward."""
    z, c, x = stream.uniform(-1, 1, K), onehot(0)[0], stream.uniform(-1, 1, IMG)
    with pytest.raises(DimensionError):
        generator_forward(Tensor(z), Tensor(c), make_g())
    for variant in Variant:
        with pytest.raises(DimensionError):
            discriminator_forward(Tensor(x), Tensor(onehot(0)), make_d(variant))
        if variant is not Variant.IRGAN:
            with pytest.raises(DimensionError):
                discriminator_forward(Tensor(x[None]), Tensor(c), make_d(variant))
    with pytest.raises(DimensionError):
        approximator_forward(Tensor(x), build_approximator(IMG, M, SPEC, RngStream(0, ("q",))))


def test_discriminators_check_the_image_shape(stream):
    """A batch of another image shape is a DimensionError in every variant, also
    where its size matches the first weight's rows (2x2x6 and 3x3x(1+3) in cgan)."""
    x, c = stream.uniform(-1, 1, (2, 2, 2, 6)), np.vstack([onehot(0), onehot(1)])
    for variant in Variant:
        with pytest.raises(DimensionError, match=r"\[b, \*\[3, 3, 1\]\], got \(2, 2, 2, 6\)"):
            discriminator_forward(Tensor(x), Tensor(c), make_d(variant))


# ----------------------------------------------------------------------
# discriminator variants


@pytest.mark.parametrize("variant", list(Variant))
def test_discriminator_zero_output_layer_gives_half(variant, stream):
    d = make_d(variant)
    d.weights[-1].data[...] = 0.0
    d.biases[-1].data[...] = 0.0
    x = Tensor(stream.uniform(-1, 1, (1,) + IMG))
    out = discriminator_forward(x, Tensor(onehot(1)), d)
    assert out.shape == (1,)
    assert out.item() == 0.5


@pytest.mark.parametrize("variant", list(Variant))
def test_discriminator_outputs_strict_probabilities(variant, stream):
    d = make_d(variant)
    x = Tensor(stream.uniform(-1, 1, (8,) + IMG))
    c = Tensor(np.tile(onehot(0), (8, 1)))
    out = discriminator_forward(x, c, d).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_irgan_discriminator_ignores_condition(stream):
    d = make_d(Variant.IRGAN)
    x = Tensor(stream.uniform(-1, 1, (1,) + IMG))
    outs = [discriminator_forward(x, Tensor(onehot(i)), d).item() for i in range(M)]
    assert outs[0] == outs[1] == outs[2]
    assert discriminator_forward(x, None, d).item() == outs[0]


@pytest.mark.parametrize("variant", [Variant.CGAN, Variant.FCGAN, Variant.SBP])
def test_conditioned_discriminators_react_to_condition(variant, stream):
    d = make_d(variant, seed=9)
    x = Tensor(stream.uniform(-1, 1, (1,) + IMG))
    a = discriminator_forward(x, Tensor(onehot(0)), d).item()
    b = discriminator_forward(x, Tensor(onehot(1)), d).item()
    assert a != b


@pytest.mark.parametrize("variant", list(Variant))
def test_discriminator_gradients(variant, rng):
    d = make_d(variant, seed=5)
    x = rng.uniform(-1, 1, (1,) + IMG)
    c = rng.uniform(0.1, 1.0, (1, M))
    if variant is Variant.IRGAN:
        # the condition never enters the graph, so only x carries gradient
        assert_grads_match(lambda xx: discriminator_forward(xx, None, d).sum(), x)
    else:
        assert_grads_match(lambda xx, cc: discriminator_forward(xx, cc, d).sum(), x, c)


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_only_cgan_and_fcgan_keep_tied_moments(variant):
    d = make_d(variant)
    tied = variant in ("cgan", "fcgan")
    assert isinstance(d.adam["l0.w"].m, TiedRows) == tied
    assert isinstance(d.adam["l0.w"].v, TiedRows) == tied
    assert not any(isinstance(st.m, TiedRows) for st in make_g().adam.values())
    if tied:
        assert d.adam["l0.w"].m.layout == (9, 1, M, SPEC.hidden[0])
        assert d.adam["l0.w"].m.shape == d.weights[0].shape


def test_adopt_of_tied_moments_checks_and_compresses(rng):
    d = make_d("cgan")
    st = d.adam["l0.w"]
    st.m = TiedRows(rng.normal(size=st.m.free.shape), rng.normal(size=st.m.tied.shape))
    snap = d.snapshot()
    assert snap["adam.m:l0.w"].shape == d.weights[0].shape
    d.adam["l0.w"].m = TiedRows.zeros(*st.m.layout)
    d.adopt(snap, d.steps())
    assert isinstance(d.adam["l0.w"].m, TiedRows)
    assert d.snapshot()["adam.m:l0.w"].tobytes() == snap["adam.m:l0.w"].tobytes()
    # taken as they are: the compressed moments are views of the adopted array
    assert np.shares_memory(d.adam["l0.w"].m.tied, snap["adam.m:l0.w"])
    assert d.weights[0].data is snap["l0.w"]
    snap = d.snapshot()
    snap["adam.m:l0.w"][(1 + M) + 1] += 1.0  # pixel 1's first condition row
    with pytest.raises(ContractError):
        d.adopt(snap, d.steps())



@pytest.mark.parametrize("name", ["l0.w", "l1.b", "adam.m:l0.w", "adam.v:l1.b"])
def test_adopt_names_a_non_finite_array_and_takes_nothing(name):
    g = make_g()
    before = (g.named(), g.adam)
    snap = g.snapshot()
    snap[name].flat[-1] = np.inf
    with pytest.raises(ContractError, match=f"array '{name}' holds a non-finite value"):
        g.adopt(snap, g.steps())
    assert g.named() == before[0] and g.adam is before[1]

def _leaves(root):
    out, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
            if not node.parents:
                out.append(node)
    return out


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_backward_wrt_params_matches_full_sweep(variant, rng):
    from cganlab.training import d_loss, g_loss, irgan_regularizer

    g, d = make_g(), make_d(variant)
    q = build_approximator(IMG, M, NetworkSpec([5]), RngStream(0, ("q",)))
    c = Tensor(np.concatenate([onehot(i % M) for i in range(5)]))
    x_real = Tensor(rng.uniform(-1, 1, (5,) + IMG))
    fake = generator_forward(Tensor(rng.uniform(-1, 1, (5, K))), c, g)
    d_update = d_loss(discriminator_forward(x_real, c, d),
                      discriminator_forward(Tensor(fake.data), c, d))
    g_update = g_loss(discriminator_forward(fake, c, d))
    if variant == "irgan":
        g_update = g_update + irgan_regularizer(approximator_forward(fake, q), c, 1.0)
    for loss, params in ((d_update, d), (g_update, g)):
        backward(loss)
        full = {name: full_grad(t.grad).copy() for name, t in params.named().items()}
        backward(loss, wrt=params.named().values())
        for name, t in params.named().items():
            assert full_grad(t.grad).tobytes() == full[name].tobytes(), name
        requested = {id(t) for t in params.named().values()}
        others = [leaf for leaf in _leaves(loss) if id(leaf) not in requested]
        assert others and all(leaf.grad is None for leaf in others)


def test_fcgan_hidden_widths_include_condition():
    d = make_d(Variant.FCGAN)
    assert d.weights[0].shape[0] == 3 * 3 * (1 + M)
    assert d.weights[1].shape[0] == SPEC.hidden[0] + M
    assert d.weights[2].shape[0] == SPEC.hidden[1] + M


def test_wrong_variant_shape_pairing_rejected(stream):
    d = make_d(Variant.SBP)
    x = Tensor(stream.uniform(-1, 1, (1, 2, 2, 1)))
    with pytest.raises(DimensionError):
        discriminator_forward(x, Tensor(onehot(0)), d)


# ----------------------------------------------------------------------
# approximator


def test_approximator_zero_params_uniform(stream):
    q = build_approximator(IMG, M, SPEC, RngStream(0, ("q",)))
    for t in q.weights + q.biases:
        t.data[...] = 0.0
    out = approximator_forward(Tensor(stream.uniform(-1, 1, (1,) + IMG)), q)
    np.testing.assert_allclose(out.data, np.full((1, M), 1.0 / M), atol=1e-15)


def test_approximator_rows_sum_to_one(stream):
    q = build_approximator(IMG, M, SPEC, RngStream(1, ("q",)))
    x = Tensor(stream.uniform(-1, 1, (12,) + IMG))
    out = approximator_forward(x, q).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_approximator_gradients(rng):
    q = build_approximator(IMG, M, SPEC, RngStream(2, ("q",)))
    x = rng.uniform(-1, 1, (1,) + IMG)
    w = rng.normal(size=(1, M))
    assert_grads_match(lambda xx: (approximator_forward(xx, q) * Tensor(w)).sum(), x)


# ----------------------------------------------------------------------
# pretraining


def separable_dataset(count=240, seed=0):
    """Two trivially separable classes in a 1x1x2 image."""
    stream = RngStream(seed, ("separable",))
    half = count // 2
    a = stream.normal(0.5, 0.05, (half, 2))
    b = stream.normal(-0.5, 0.05, (count - half, 2))
    images = np.clip(np.concatenate([a, b]), -1, 1).reshape(count, 1, 1, 2)
    labels = np.zeros((count, 2))
    labels[:half, 0] = 1.0
    labels[half:, 1] = 1.0
    return LabeledDataset(images, labels, {"name": "separable"})


def test_pretrain_budget_zero_returns_initialization():
    ds = separable_dataset()
    spec = NetworkSpec([4], head="softmax")
    p0, _ = pretrain_approximator(ds, ds, spec, 0, RngStream(7))
    p1 = build_approximator(ds.image_shape, ds.cond_dim, spec, RngStream(7).split("init-q"))
    for name, t in p0.named().items():
        np.testing.assert_array_equal(t.data, p1.named()[name].data)
    assert all(st.step == 0 for st in p0.adam.values())


def test_pretrain_separable_reaches_perfect_accuracy():
    ds = separable_dataset()
    spec = NetworkSpec([8], head="softmax")
    params, hist = pretrain_approximator(
        ds, ds, spec, 400, RngStream(7),
        hyper={"lr": 1e-2, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8})
    assert hist["best_val_acc"] == 1.0
    assert classifier_accuracy(params, ds.images, ds.labels) == 1.0


def test_pretrain_smoothed_loss_non_increasing(digits_data):
    train_ds, valid_ds, _ = digits_data
    params, hist = pretrain_approximator(
        train_ds, valid_ds, NetworkSpec([32], head="softmax"), 400, RngStream(3),
        hyper={"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8})
    losses = np.array(hist["loss"])
    windows = [losses[i:i + 100].mean() for i in range(0, 400, 100)]
    assert all(b <= a + 1e-9 for a, b in zip(windows, windows[1:]))


def test_pretrain_keeps_the_adam_steps_of_its_best_snapshot(mixture_data):
    """The best validation accuracy comes before the last step, and later ties
    do not replace it: the network returned is the one a run stopped at that
    step returns, with that step's Adam step counts, bit for bit."""
    train_ds, valid_ds, _, _ = mixture_data
    spec = NetworkSpec([8], head="softmax")

    def pretrain(budget):
        return pretrain_approximator(train_ds, valid_ds, spec, budget, RngStream(3),
                                     batch_size=256, hyper={"lr": 1.5e-3, "beta1": 0.9})

    params, hist = pretrain(500)
    best = next(step for step, acc in hist["val_acc"] if acc == hist["best_val_acc"])
    assert 0 < best < 500
    assert set(params.steps().values()) == {best}
    stopped, _ = pretrain(best)
    assert stopped.steps() == params.steps()
    want, got = stopped.named_arrays(), params.named_arrays()
    assert all(want[name].tobytes() == got[name].tobytes() for name in want)


def test_pretrain_rejects_mismatched_label_widths():
    ds2 = separable_dataset()
    ds3 = LabeledDataset(ds2.images, np.pad(ds2.labels, ((0, 0), (0, 1))), {})
    with pytest.raises(DataError):
        pretrain_approximator(ds2, ds3, NetworkSpec([4], head="softmax"), 1, RngStream(0))


def test_network_spec_validation():
    with pytest.raises(ConfigError):
        NetworkSpec([], head="softmax").validate()
    with pytest.raises(ConfigError):
        NetworkSpec([4], head="bogus").validate()
