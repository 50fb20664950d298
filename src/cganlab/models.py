"""Dense networks: generator G(z, c), four discriminator variants, and the
condition approximator Q(c|x).

Everything is fully connected, and every forward takes a batch. Layer 0's
product is flatten(input) @ W0, except in the conditioned discriminators:
their condition-injection op takes the image batch, the condition batch and
the first layer's weight and returns that product (the op's weight-free
definition is the tests' reference for it). From there every net is the same
stack, each hidden layer ending in one tensor.leaky_relu(x, bias) node. The
generator is identical across variants
(the condition is concatenated to the noise vector once, at the input); only
the discriminators differ:

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
from .errors import ConfigError, DataError, DimensionError
from .rng import RngStream
from .tensor import (LEAKY_SLOPE, AdamState, Tensor, TiedRows, activation, adam_step, backward,
                     leaky_relu, matmul, no_grad, softmax, softmax_cross_entropy)


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
    """Named weight/bias tensors for one network, with Adam state alongside.

    meta carries what is needed to rebuild and drive the net from a
    checkpoint: role, image shape, condition/noise dims, variant.
    """

    weights: list[Tensor]
    biases: list[Tensor]
    spec: NetworkSpec
    meta: dict = field(default_factory=dict)
    adam: dict = field(default_factory=dict)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    @classmethod
    def init(cls, meta: dict, hidden, stream: RngStream, hyper=None) -> "ModelParams":
        """A net in meta's layout and its role's head: fan-in scaled weights, fresh Adam state."""
        spec = NetworkSpec(hidden, ROLE_HEADS[meta["role"]])
        spec.validate()
        dims = layer_dims(meta, spec.hidden)
        extra = dims[-1][0] - int(spec.hidden[-1])  # fcgan's widened hidden fan-ins
        meta = dict(meta, hidden_extra=extra) if extra else dict(meta)
        weights, biases = [], []
        for fan_in, fan_out in dims:
            bound = 1.0 / math.sqrt(fan_in)
            weights.append(Tensor(stream.uniform(-bound, bound, (fan_in, fan_out))))
            biases.append(Tensor(np.zeros(fan_out)))
        mp = cls(weights, biases, spec, meta)
        tied = tied_rows(meta)
        for name, t in mp.named().items():
            st = mp.adam[name] = AdamState.fresh(t.shape, **(hyper or {}))
            if name in tied:
                st.m, st.v = (TiedRows.zeros(*tied[name], t.shape[1]) for _ in "mv")
        return mp

    def named(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"l{i}.w"] = w
            out[f"l{i}.b"] = b
        return out

    def named_arrays(self, copy=False) -> dict:
        """Parameter and optimizer arrays keyed by name, in the checkpoint layout.

        The live arrays, or with copy their copies. Adam moments kept as
        TiedRows are expanded to every pixel's copy, a fresh array either way.
        """
        arrays = {name: t.data for name, t in self.named().items()}
        for name, st in self.adam.items():
            arrays[f"adam.m:{name}"] = st.m
            arrays[f"adam.v:{name}"] = st.v
        return {name: a.full() if isinstance(a, TiedRows) else a.copy() if copy else a
                for name, a in arrays.items()}

    def snapshot(self) -> dict:
        """Copies of the parameter and optimizer arrays, keyed by name, in the checkpoint layout."""
        return self.named_arrays(copy=True)

    def moments(self, name: str, m: np.ndarray, v: np.ndarray) -> tuple:
        """Adam moments of `name`, given in the checkpoint layout, as its state keeps them.

        The arrays themselves, or for a weight with tied rows TiedRows
        views of them; ContractError when the pixels' copies differ.
        """
        tie = tied_rows(self.meta).get(name)
        if tie is None:
            return m, v
        pixels, d, _ = tie
        return TiedRows.compress(m, pixels, d), TiedRows.compress(v, pixels, d)

    def restore(self, arrays: dict):
        """Set parameters and Adam moments from copies of arrays in the checkpoint layout."""
        for name, t in self.named().items():
            t.data[...] = arrays[name]
            m, v = self.moments(name, arrays[f"adam.m:{name}"], arrays[f"adam.v:{name}"])
            st = self.adam[name]
            st.m, st.v = m.copy(), v.copy()


def _apply_grads(params: ModelParams):
    """One Adam step on every parameter that received a gradient; clears it."""
    for name, t in params.named().items():
        if t.grad is not None:
            adam_step(t, t.grad, params.adam[name])
            t.grad = None


def _dense_stack(h0: Tensor, params: ModelParams, append=None) -> Tensor:
    """Logits from layer 0's product h0: each hidden layer is one leaky_relu(x, bias)
    node, then `append(h)` if given, then the next product; the output adds its bias."""
    h = h0
    for i in range(1, len(params.weights)):
        h = leaky_relu(h, params.biases[i - 1])
        if append is not None:
            h = append(h)
        h = matmul(h, params.weights[i])
    return h + params.biases[-1]


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


def generator_forward(z, c, params: ModelParams) -> Tensor:
    """G(z, c): noise [b, k] and conditions [b, m] concatenated, dense stack, tanh images."""
    x = vector_concat(z, c)
    out = _dense_stack(_input_product(x, params), params)
    return activation(out, "tanh").reshape((x.shape[0],) + tuple(params.meta["image_shape"]))


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
    logits = _dense_stack(h0, params, append)
    return activation(logits, "sigmoid").reshape((logits.shape[0],))


def approximator_forward(x, params: ModelParams) -> Tensor:
    """Q(c|x) of images [b, h, w, d]: softmax distributions over conditions, shape [b, m]."""
    return softmax(_dense_stack(_input_product(x, params), params))


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
    if train.count == 0 or valid.count == 0:
        raise DataError("pretraining needs non-empty train and validation sets")
    if train.count < batch_size:
        raise DataError(f"dataset of {train.count} samples cannot fill batches of {batch_size}")
    if train.cond_dim != valid.cond_dim:
        raise DataError(f"label widths disagree: {train.cond_dim} vs {valid.cond_dim}")
    params = build_approximator(train.image_shape, train.cond_dim, spec,
                                stream.split("init-q"), hyper)
    history = {"loss": [], "val_acc": []}
    best = params.snapshot()
    best_acc = classifier_accuracy(params, valid.images, valid.labels)
    history["val_acc"].append((0, best_acc))
    for i, idx in epoch_batches(train.count, batch_size, stream, 0, int(budget)):
        logits = _dense_stack(_input_product(train.images[idx], params), params)
        loss = softmax_cross_entropy(logits, train.labels[idx])
        backward(loss, wrt=params.named().values())
        _apply_grads(params)
        history["loss"].append(loss.item())
        if (i + 1) % Q_EVAL_EVERY == 0 or i + 1 == int(budget):
            acc = classifier_accuracy(params, valid.images, valid.labels)
            history["val_acc"].append((i + 1, acc))
            if acc > best_acc:
                best_acc = acc
                best = params.snapshot()
    params.restore(best)
    history["best_val_acc"] = best_acc
    return params, history
