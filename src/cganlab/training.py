"""Adversarial losses and the alternating optimization loop.

Per step: d_steps_per_g_step discriminator updates on the negated
discriminator objective (fresh fake batches, detached from the generator's
graph), then one generator update. For the information-regularized variant
the generator loss gains lambda * mean(-log Q(c | G(z, c))) with Q frozen;
gradients flow through Q's graph into G but Q's parameters are never
touched.

Conditions for fake samples are drawn from the empirical label distribution
of the training set. The whole loop is deterministic given (seed, config,
data): step i always uses the stream root.split(f"step-{i}"), so a resumed
run continues bit-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import atomic_write, epoch_batches
from .errors import ConfigError, ContractError, DataError
from .models import (ModelParams, NetworkSpec, Variant, _apply_grads, approximator_forward,
                     build_discriminator, build_generator, discriminator_forward,
                     generator_forward, sample_noise)
from .rng import RngStream
from .tensor import Tensor, backward, is_one_hot, log, one_hot, rows

GENERATOR_LOSS_MODES = ("non_saturating", "minimax")


@dataclass
class TrainConfig:
    variant: Variant
    total_steps: int
    batch_size: int = 64
    d_steps_per_g_step: int = 1
    lam: float = 0.0  # weight of the information term; > 0 iff variant is irgan
    lr: float = 2e-4
    seed: int = 0
    generator_loss_mode: str = "non_saturating"
    noise_dim: int = 64
    g_hidden: list = field(default_factory=lambda: [128, 128])
    d_hidden: list = field(default_factory=lambda: [128, 128])
    checkpoint_every: int = 0

    def __post_init__(self):
        self.variant = Variant(self.variant)

    def validate(self):
        if self.total_steps < 0 or self.batch_size < 1 or self.d_steps_per_g_step < 1:
            raise ConfigError("steps, batch size and d-steps must be positive")
        if self.noise_dim < 1:
            raise ConfigError(f"noise dimension must be at least 1, got {self.noise_dim}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint interval must be non-negative (0 for none), "
                              f"got {self.checkpoint_every}")
        if self.generator_loss_mode not in GENERATOR_LOSS_MODES:
            raise ConfigError(f"unknown generator loss mode {self.generator_loss_mode!r}; "
                              f"expected one of {GENERATOR_LOSS_MODES}")
        if self.variant is Variant.IRGAN:
            if not 0 < self.lam < np.inf:
                raise ConfigError(f"the irgan variant needs a finite lambda > 0, got {self.lam}")
        elif self.lam != 0.0:
            raise ConfigError(f"lambda is only meaningful for irgan, got {self.lam} "
                              f"with variant {self.variant.value}")


@dataclass
class TrainLog:
    """One record per generator step; wall time is measurement, not state."""

    rows: list = field(default_factory=list)

    CSV_HEADER = "step,d_loss,g_loss,r_g,wall_ms"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            rg = "" if r["r_g"] is None else repr(r["r_g"])
            lines.append(f"{r['step']},{r['d_loss']!r},{r['g_loss']!r},{rg},{r['wall_ms']:.3f}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        with atomic_write(path) as f:
            f.write(self.to_csv().encode())

    @classmethod
    def read(cls, path, steps: int) -> "TrainLog":
        """Rows 0..steps-1 of a log written by write(); DataError if it lacks them."""
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as e:
            raise DataError(f"cannot read training log {path}: {e}") from None
        if not lines or lines[0] != cls.CSV_HEADER:
            raise DataError(f"{path} does not start with the header {cls.CSV_HEADER!r}")
        rows = []
        for i, line in enumerate(lines[1:steps + 1]):
            try:
                step, dl, gl, rg, wall = line.split(",")
                row = {"step": int(step), "d_loss": float(dl), "g_loss": float(gl),
                       "r_g": float(rg) if rg else None, "wall_ms": float(wall)}
            except ValueError:
                raise DataError(f"{path}:{i + 2}: malformed log row {line!r}") from None
            if row["step"] != i:
                raise DataError(f"{path}:{i + 2}: expected step {i}, found {row['step']}")
            rows.append(row)
        if len(rows) != steps:
            raise DataError(f"{path} holds {len(rows)} steps, expected {steps}")
        return cls(rows)

    def column(self, key):
        return [r[key] for r in self.rows]


# ----------------------------------------------------------------------
# losses


def _check_probs(t: Tensor, what: str):
    d = t.data
    if np.any(d <= 0.0) or np.any(d >= 1.0):
        raise ContractError(f"{what} entries must lie strictly in (0,1)")


def d_loss(d_real, d_fake) -> Tensor:
    """-mean(log D(real)) - mean(log(1 - D(fake))); minimized by D updates."""
    d_real, d_fake = Tensor._coerce(d_real), Tensor._coerce(d_fake)
    _check_probs(d_real, "d_real")
    _check_probs(d_fake, "d_fake")
    return -(log(d_real).mean()) - log(1.0 - d_fake).mean()


def g_loss(d_fake, mode: str = "non_saturating") -> Tensor:
    """Generator objective: minimax mean(log(1-D)) or the -mean(log D) surrogate."""
    d_fake = Tensor._coerce(d_fake)
    _check_probs(d_fake, "d_fake")
    if mode == "minimax":
        return log(1.0 - d_fake).mean()
    if mode == "non_saturating":
        return -(log(d_fake).mean())
    raise ConfigError(f"unknown generator loss mode {mode!r}")


def irgan_regularizer(q_out, c, lam: float) -> Tensor:
    """lam * mean(-log q[true condition]); zero iff Q is certain and right."""
    q_out = Tensor._coerce(q_out)
    c_arr = c.data if isinstance(c, Tensor) else np.asarray(c, dtype=np.float64)
    if q_out.ndim != 2 or q_out.shape != c_arr.shape:
        raise ContractError(f"q_out {q_out.shape} and conditions {c_arr.shape} must be matching 2-D")
    d = q_out.data
    if np.any(d < 0.0) or np.any(np.abs(d.sum(axis=1) - 1.0) > 1e-8):
        raise ContractError("q_out rows must be probability distributions")
    if not is_one_hot(c_arr):
        raise ContractError("condition rows must be one-hot")
    if lam < 0:
        raise ConfigError(f"lambda must be non-negative, got {lam}")
    picked = (q_out * c_arr).sum(axis=1)
    return float(lam) * -(log(picked).mean())


# ----------------------------------------------------------------------
# the loop


# the loop draws noise through this name, which perfbench/spans.py times
_sample_noise = sample_noise


def _sample_conditions(stream, count, label_probs):
    m = label_probs.shape[0]
    return Tensor(one_hot(stream.choice(m, size=count, p=label_probs), m))


def train_step(x_real, c_real, g: ModelParams, d: ModelParams, q, cfg: TrainConfig,
               label_probs: np.ndarray, stream: RngStream, step_index: int) -> dict:
    """One alternation: D update(s), then one G update. Returns a log record."""
    t0 = time.perf_counter()
    b = x_real.shape[0]
    try:
        for j in range(cfg.d_steps_per_g_step):
            s = stream.split(f"d-{j}")
            z = _sample_noise(s.split("z"), b, cfg.noise_dim)
            cf = _sample_conditions(s.split("c"), b, label_probs)
            x_fake = generator_forward(z, cf, g).data  # G's graph is not kept
            # one D call on the stacked real and fake batch: one graph, and
            # each D weight gradient arrives once instead of as two summands
            p = discriminator_forward(np.concatenate([x_real, x_fake]),
                                      np.concatenate([c_real, cf.data]), d)
            loss_d = d_loss(rows(p, 0, b), rows(p, b, 2 * b))
            backward(loss_d, wrt=d.named().values())
            _apply_grads(d)
        s = stream.split("g")
        z = _sample_noise(s.split("z"), b, cfg.noise_dim)
        cf = _sample_conditions(s.split("c"), b, label_probs)
        x_fake = generator_forward(z, cf, g)
        p_fake = discriminator_forward(x_fake, cf, d)
        loss_g = g_loss(p_fake, cfg.generator_loss_mode)
        r_g = None
        total = loss_g
        if cfg.variant is Variant.IRGAN:
            q_out = approximator_forward(x_fake, q)
            reg = irgan_regularizer(q_out, cf, cfg.lam)
            total = loss_g + reg
            r_g = reg.item()
        backward(total, wrt=g.named().values())
        _apply_grads(g)
    except ContractError as e:
        raise ContractError(f"training step {step_index}: {e}") from e
    dl, gl = loss_d.item(), loss_g.item()
    for name, value in (("d_loss", dl), ("g_loss", gl)):
        if not np.isfinite(value):
            raise ContractError(f"training step {step_index}: {name} is not finite")
    return {"step": step_index, "d_loss": dl, "g_loss": gl, "r_g": r_g,
            "wall_ms": (time.perf_counter() - t0) * 1e3}


def build_models(cfg: TrainConfig, image_shape, cond_dim, root: RngStream):
    """Fresh G and D for a dataset; G's architecture ignores the variant.

    Both take the fixed hidden activation and AdamHyper's default betas and
    epsilon; only the learning rate comes from cfg.
    """
    hyper = {"lr": cfg.lr}
    g = build_generator(image_shape, cond_dim, cfg.noise_dim, NetworkSpec(list(cfg.g_hidden)),
                        root.split("init-g"), hyper)
    d = build_discriminator(image_shape, cond_dim, NetworkSpec(list(cfg.d_hidden)), cfg.variant,
                            root.split("init-d"), hyper)
    return g, d


def train(cfg: TrainConfig, dataset, q_params=None, g=None, d=None,
          start_step=0, progress=None, checkpoint_cb=None):
    """Run the loop for cfg.total_steps generator updates.

    Minibatches are drawn from a fresh shuffle of the training set each
    epoch (partial trailing batches are dropped). Passing g/d plus
    start_step resumes a run; the remaining steps reproduce an
    uninterrupted run exactly.
    """
    cfg.validate()
    if cfg.variant is Variant.IRGAN and q_params is None:
        raise ConfigError("the irgan variant needs pretrained approximator parameters")
    if cfg.variant is not Variant.IRGAN and q_params is not None:
        raise ConfigError(f"approximator parameters are only used by irgan, not {cfg.variant.value}")
    root = RngStream(cfg.seed, ("train", cfg.variant.value))
    if g is None or d is None:
        g, d = build_models(cfg, dataset.image_shape, dataset.cond_dim, root)
    label_probs = dataset.label_counts() / dataset.count
    log_ = TrainLog()
    for i, idx in epoch_batches(dataset.count, cfg.batch_size, root, start_step, cfg.total_steps):
        record = train_step(dataset.images[idx], dataset.labels[idx], g, d, q_params,
                            cfg, label_probs, root.split(f"step-{i}"), i)
        log_.rows.append(record)
        if progress is not None:
            progress(record)
        if checkpoint_cb is not None and cfg.checkpoint_every > 0 \
                and (i + 1) % cfg.checkpoint_every == 0:
            checkpoint_cb(i + 1, g, d)
    return g, d, log_
