"""Dense networks: generator G(z, c), four discriminator variants, and the
condition approximator Q(c|x).

Everything is fully connected, and every forward takes a batch. Layer 0's
product is flatten(input) @ W0, except in the conditioned discriminators:
their condition-injection op takes the image batch, the condition batch and
the first layer's weight and returns that product (the op's weight-free
definition is the tests' reference for it). From there every net is the same
stack: every layer is its product plus one tensor.activation(x, bias, kind)
node, leaky_relu for hidden layers and for the output the head's tanh (G),
sigmoid (D) or linear (Q, then softmax). G is identical across variants (the
condition is concatenated to the noise once, at the input); only the
discriminators differ:

* cgan  - condition appended at the input image via replicate-concat.
* fcgan - condition appended at the input and at every hidden activation
          (vector concatenation onto the width-w activation).
* sbp   - input image replaced by its bilinear pooling with the condition.
* irgan - unconditional discriminator; the condition never enters D.

In cgan and fcgan every pixel of D's first layer input carries the same
condition values, so the rows of D's first weight that read them get the same
gradient at every pixel (tied_rows). That gradient and those rows' Adam
moments are kept once, as tensor.TiedRows, and one update is subtracted from
every pixel's copy; the weight itself, and every checkpoint, keep the full
per-pixel layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .conditioning import spatial_bilinear_pool, spatial_replicate_concat, vector_concat
from .data import epoch_batches
from .errors import ConfigError, ContractError, DataError, DimensionError
from .rng import RngStream
from .tensor import (LEAKY_SLOPE, AdamHyper, AdamState, Tensor, TiedRows, activation, adam_step,
                     backward, matmul, no_grad, softmax, softmax_cross_entropy)


class Variant(str, Enum):
    CGAN = "cgan"
    FCGAN = "fcgan"
    SBP = "sbp"
    IRGAN = "irgan"


# the output head each role's builder gives its network
ROLE_HEADS = {"generator": "linear", "discriminator": "sigmoid_scalar", "approximator": "softmax"}


@dataclass
class NetworkSpec:
    """Hidden widths and output head of a dense stack; every hidden layer is leaky_relu."""

    hidden: list[int]
    head: str = "linear"

    def validate(self):
        if not self.hidden or any(int(w) <= 0 for w in self.hidden):
            raise ConfigError(f"hidden widths must be a non-empty list of positive ints, got {self.hidden}")
        if self.head not in ROLE_HEADS.values():
            raise ConfigError(f"unknown head {self.head!r}; expected one of {list(ROLE_HEADS.values())}")

    def to_dict(self):
        return {"hidden": [int(w) for w in self.hidden], "activation": "leaky_relu",
                "alpha": LEAKY_SLOPE, "head": self.head}


def layer_dims(meta: dict, hidden) -> list:
    """(fan_in, fan_out) of every layer of the network that meta describes.

    D's first layer sees d + m channels per pixel (cgan, fcgan), d * m (sbp)
    or d (irgan); fcgan appends the condition to every hidden activation,
    which widens each later fan-in by m.
    """
    h, w, d = meta["image_shape"]
    m, role = meta["cond_dim"], meta["role"]
    if role == "generator":
        in_dim, out_dim, extra = meta["noise_dim"] + m, h * w * d, 0
    elif role == "approximator":
        in_dim, out_dim, extra = h * w * d, m, 0
    else:
        variant = Variant(meta["variant"])
        channels = {Variant.CGAN: d + m, Variant.FCGAN: d + m, Variant.SBP: d * m, Variant.IRGAN: d}
        in_dim, out_dim = h * w * channels[variant], 1
        extra = m if variant is Variant.FCGAN else 0
    dims, cur = [], in_dim
    for width in hidden:
        dims.append((cur, int(width)))
        cur = int(width) + extra
    dims.append((cur, out_dim))
    return dims


def tied_rows(meta: dict) -> dict:
    """{parameter name: (pixels, d, m)} for each weight with tied rows.

    cgan and fcgan feed D's first layer every pixel's d channels followed by
    the m condition values, which are the same at every pixel. Viewed as
    [pixels, d + m, k], that weight's m condition rows of each pixel get the
    same gradient c^T g, and from Adam's zero start the same moments and
    updates; its gradient and moments are TiedRows of this layout. No other
    network, and no other weight, has tied rows.
    """
    if meta["role"] != "discriminator" or Variant(meta["variant"]) not in (Variant.CGAN,
                                                                            Variant.FCGAN):
        return {}
    h, w, d = meta["image_shape"]
    return {"l0.w": (h * w, d, meta["cond_dim"])}


@dataclass
class ModelParams:
    """One network: its layout, arrays, Adam state and Adam hyperparameters.

    meta carries what is needed to rebuild and drive the net from a
    checkpoint: role, image shape, condition/noise dims, variant. build()
    makes every net; init() draws its arrays, or adopt() takes them.
    """

    spec: NetworkSpec
    meta: dict
    hyper: AdamHyper
    layers: list  # (fan_in, fan_out) of each layer
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    adam: dict = field(default_factory=dict)

    @property
    def in_dim(self) -> int:
        return self.layers[0][0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][1]

    @classmethod
    def build(cls, meta: dict, hidden, hyper=None) -> "ModelParams":
        """The network meta describes, with its role's head, holding no arrays yet.

        hyper holds some of AdamHyper's fields, the rest keep their defaults;
        fcgan's widened hidden fan-ins become meta's hidden_extra."""
        spec = NetworkSpec(list(hidden), ROLE_HEADS[meta["role"]])
        spec.validate()
        layers = layer_dims(meta, spec.hidden)
        meta = dict(meta, hidden_extra=layers[-1][0] - int(spec.hidden[-1]))
        if not meta["hidden_extra"]:  # recorded only where the fan-ins widen
            del meta["hidden_extra"]
        return cls(spec, meta, AdamHyper(**(hyper or {})), layers)

    @classmethod
    def init(cls, meta: dict, hidden, stream: RngStream, hyper=None) -> "ModelParams":
        """build()'s network with fan-in scaled weights, zero biases and fresh Adam state."""
        mp = cls.build(meta, hidden, hyper)
        for fan_in, fan_out in mp.layers:
            bound = 1.0 / math.sqrt(fan_in)
            mp.weights.append(Tensor(stream.uniform(-bound, bound, (fan_in, fan_out))))
            mp.biases.append(Tensor(np.zeros(fan_out)))
        tied = tied_rows(mp.meta)
        mp.adam = {name: AdamState.fresh(shape, tied.get(name))
                   for name, shape in mp.shapes().items()}
        return mp

    def shapes(self) -> dict:
        """{parameter name: shape} of every weight and bias, layer by layer."""
        return {name: shape for i, (fan_in, fan_out) in enumerate(self.layers)
                for name, shape in ((f"l{i}.w", (fan_in, fan_out)), (f"l{i}.b", (fan_out,)))}

    def named(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"l{i}.w"], out[f"l{i}.b"] = w, b
        return out

    def steps(self) -> dict:
        """Adam's step count of every parameter, keyed by name."""
        return {name: st.step for name, st in self.adam.items()}

    def named_arrays(self, copy=False) -> dict:
        """Parameter and optimizer arrays keyed by name, in the checkpoint layout.

        The live arrays, or with copy their copies. Adam moments kept as
        TiedRows are expanded to every pixel's copy, a fresh array either way.
        """
        arrays = {name: t.data for name, t in self.named().items()}
        for name, st in self.adam.items():
            arrays[f"adam.m:{name}"], arrays[f"adam.v:{name}"] = st.m, st.v
        return {name: a.full() if isinstance(a, TiedRows) else a.copy() if copy else a
                for name, a in arrays.items()}

    def snapshot(self) -> dict:
        """Copies of the parameter and optimizer arrays, keyed by name, in the checkpoint layout."""
        return self.named_arrays(copy=True)

    def adopt(self, arrays: dict, steps: dict):
        """Make arrays in the checkpoint layout, and Adam step counts, this network's state.

        The arrays (every parameter of shapes() and its `adam.m:` and
        `adam.v:` moments) are taken with no copy; tied rows' moments become
        TiedRows views. ContractError, before anything is taken, names a
        missing or extra name, another shape, a non-finite value, a negative
        second moment or tied rows whose pixels' copies differ.
        """
        shapes = self.shapes()
        want = {f"{kind}{name}": shape for name, shape in shapes.items()
                for kind in ("", "adam.m:", "adam.v:")}
        if set(arrays) != set(want):
            raise ContractError(f"arrays {sorted(arrays)} do not match the network, which "
                                f"needs {sorted(want)}")
        if sorted(steps) != sorted(shapes):
            raise ContractError(f"Adam steps name {sorted(steps)}, but the network's "
                                f"parameters are {sorted(shapes)}")
        leaves = {}
        for name, shape in want.items():
            a = arrays[name]
            if a.shape != shape:
                raise ContractError(f"array {name!r} has shape {a.shape}, the network needs "
                                    f"{shape}")
            if name in shapes:
                try:
                    leaves[name] = Tensor(a)  # the parameter's one finiteness check
                except ContractError:
                    raise ContractError(f"array {name!r} holds a non-finite value") from None
            elif not np.isfinite(a).all():
                raise ContractError(f"array {name!r} holds a non-finite value")
            if name.startswith("adam.v:") and (a < 0.0).any():
                raise ContractError(f"array {name!r} holds a negative second moment")
        adam, tied = {}, tied_rows(self.meta)
        for name in shapes:
            m, v = arrays[f"adam.m:{name}"], arrays[f"adam.v:{name}"]
            if name in tied:  # views, once every pixel's copy is found the same bytes
                m, v = (TiedRows.compress(a, *tied[name][:2]) for a in (m, v))
            adam[name] = AdamState(steps[name], m, v)
        self.weights = [leaves[f"l{i}.w"] for i in range(len(self.layers))]
        self.biases = [leaves[f"l{i}.b"] for i in range(len(self.layers))]
        self.adam = adam


def _apply_grads(params: ModelParams):
    """One Adam step on every parameter that received a gradient; clears it."""
    for name, t in params.named().items():
        if t.grad is not None:
            adam_step(t, t.grad, params.adam[name], params.hyper)
            t.grad = None


def _dense_stack(h0: Tensor, params: ModelParams, head: str, append=None) -> Tensor:
    """The net's output from layer 0's product h0: each hidden layer is one
    activation(x, bias, "leaky_relu") node, then `append(h)` if given, then the
    next product; the output layer is one activation(x, bias, head) node."""
    h = h0
    for i in range(1, len(params.weights)):
        h = activation(h, params.biases[i - 1], "leaky_relu")
        if append is not None:
            h = append(h)
        h = matmul(h, params.weights[i])
    return activation(h, params.biases[-1], head)


def _net_input(x, params: ModelParams) -> Tensor:
    """x as a Tensor; DimensionError unless it is a batch of the net's input."""
    x, meta = Tensor._coerce(x), params.meta
    sample = (params.in_dim,) if meta["role"] == "generator" else tuple(meta["image_shape"])
    if x.shape[1:] != sample:
        raise DimensionError(f"{meta['role']} expects inputs of shape [b, *{list(sample)}], "
                             f"got {x.shape}")
    return x


def _input_product(x, params: ModelParams) -> Tensor:
    """flatten(x) @ W0 for G, Q and irgan's D; x is a batch of the net's input."""
    x = _net_input(x, params)
    return matmul(x.reshape((x.shape[0], params.in_dim)) if x.ndim > 2 else x, params.weights[0])


# ----------------------------------------------------------------------
# builders


def build_generator(image_shape, cond_dim, noise_dim, spec: NetworkSpec,
                    stream: RngStream, hyper=None) -> ModelParams:
    meta = {"role": "generator", "image_shape": list(image_shape), "cond_dim": int(cond_dim),
            "noise_dim": int(noise_dim)}
    return ModelParams.init(meta, spec.hidden, stream, hyper)


def build_discriminator(image_shape, cond_dim, spec: NetworkSpec, variant: Variant,
                        stream: RngStream, hyper=None) -> ModelParams:
    meta = {"role": "discriminator", "image_shape": list(image_shape), "cond_dim": int(cond_dim),
            "variant": Variant(variant).value}
    return ModelParams.init(meta, spec.hidden, stream, hyper)


def build_approximator(image_shape, cond_dim, spec: NetworkSpec,
                       stream: RngStream, hyper=None) -> ModelParams:
    meta = {"role": "approximator", "image_shape": list(image_shape), "cond_dim": int(cond_dim)}
    return ModelParams.init(meta, spec.hidden, stream, hyper)


# ----------------------------------------------------------------------
# forward passes


def sample_noise(stream: RngStream, count: int, noise_dim: int) -> Tensor:
    """count draws of G's noise prior, uniform on [-1, 1]^noise_dim: a [count, noise_dim] batch."""
    return Tensor(stream.uniform(-1.0, 1.0, (count, noise_dim)))


def generator_forward(z, c, params: ModelParams) -> Tensor:
    """G(z, c): noise [b, k] and conditions [b, m] concatenated, dense stack, tanh images."""
    x = vector_concat(z, c)
    out = _dense_stack(_input_product(x, params), params, "tanh")
    return out.reshape((x.shape[0],) + tuple(params.meta["image_shape"]))


def discriminator_forward(x, c, params: ModelParams) -> Tensor:
    """D(x, c) of images [b, h, w, d] and conditions [b, m] (None for irgan): [b] in (0, 1)."""
    variant = Variant(params.meta["variant"])
    append = None
    if variant is Variant.IRGAN:
        h0 = _input_product(x, params)
    else:
        c = Tensor._coerce(c)
        # the first layer's product comes from the conditioning op itself,
        # which need not build the conditioned input
        op = spatial_bilinear_pool if variant is Variant.SBP else spatial_replicate_concat
        h0 = op(_net_input(x, params), c, weight=params.weights[0])
        if variant is Variant.FCGAN:
            def append(hid):
                return vector_concat(hid, c)
    probs = _dense_stack(h0, params, "sigmoid", append)
    return probs.reshape((probs.shape[0],))


def approximator_forward(x, params: ModelParams) -> Tensor:
    """Q(c|x) of images [b, h, w, d]: softmax distributions over conditions, shape [b, m]."""
    return softmax(_dense_stack(_input_product(x, params), params, "linear"))


# ----------------------------------------------------------------------
# approximator pretraining


def classifier_accuracy(params: ModelParams, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows where argmax Q(x) matches the one-hot label."""
    with no_grad():
        probs = approximator_forward(Tensor(images), params)
    return float(np.mean(probs.data.argmax(axis=1) == labels.argmax(axis=1)))


# pretraining measures Q's validation accuracy every this many steps
Q_EVAL_EVERY = 100


def pretrain_approximator(train, valid, spec: NetworkSpec, budget: int,
                          stream: RngStream, batch_size=64, hyper=None):
    """Train Q by cross-entropy and keep the best-validation snapshot.

    Returns (params, history) where history records per-step losses and the
    validation accuracies every Q_EVAL_EVERY steps and at the end. A budget
    of 0 returns the untouched initial parameters; a negative budget or a
    batch size below 1 is a ConfigError, and one the training set cannot
    fill a DataError.
    """
    if budget < 0 or batch_size < 1:
        raise ConfigError(f"pretraining needs a non-negative budget and a positive batch size, "
                          f"got {budget} steps of {batch_size}")
    if train.cond_dim != valid.cond_dim:
        raise DataError(f"label widths disagree: {train.cond_dim} vs {valid.cond_dim}")
    params = build_approximator(train.image_shape, train.cond_dim, spec,
                                stream.split("init-q"), hyper)
    history = {"loss": [], "val_acc": []}
    best = params.snapshot(), params.steps()
    best_acc = classifier_accuracy(params, valid.images, valid.labels)
    history["val_acc"].append((0, best_acc))
    for i, idx in epoch_batches(train.count, batch_size, stream, 0, int(budget)):
        logits = _dense_stack(_input_product(train.images[idx], params), params, "linear")
        loss = softmax_cross_entropy(logits, train.labels[idx])
        backward(loss, wrt=params.named().values())
        _apply_grads(params)
        history["loss"].append(loss.item())
        if (i + 1) % Q_EVAL_EVERY == 0 or i + 1 == int(budget):
            acc = classifier_accuracy(params, valid.images, valid.labels)
            history["val_acc"].append((i + 1, acc))
            if acc > best_acc:
                best_acc = acc
                best = params.snapshot(), params.steps()
    params.adopt(*best)
    history["best_val_acc"] = best_acc
    return params, history
