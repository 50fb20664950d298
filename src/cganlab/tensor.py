"""Reverse-mode autodiff over dense float64 arrays, plus the Adam update.

Define-by-run: every Tensor wraps a numpy array together with the op tag and
parent nodes that produced it, and a closure routing an incoming gradient to
those parents. Graphs are rebuilt each training step; backward() is one
reverse topological sweep with accumulation at fan-in nodes. A hidden layer
is two nodes, its product and leaky_relu(x, bias).

backward(loss, wrt=params) prunes the sweep: only nodes on a path to one of
the requested leaves are marked `wanted`, the closures skip operand gradients
that no marked node needs (the input gradient of a first matmul, the
condition gradient of a conditioning op), and every other node keeps
grad None. Without `wrt` every ancestor of the loss is marked.

Accumulation is first-write: a node's first incoming gradient is stored as
is, even when it is a view of (or the same array as) another node's .grad,
and later arrivals add out of place. No .grad array is ever mutated, so that
aliasing is safe, and no zeros are allocated. The only difference from
zeros-plus-sum is the sign of a zero gradient entry: no op divides by a
gradient or tests its sign, and Adam maps -0.0 and 0.0 to the same update.

A .grad is an ndarray of the node's shape, except where an op knows that
blocks of rows share their gradient: spatial replicate-concat's weight gets a
TiedRows, which stores those rows once. adam_step takes it with moments of
the same form and gives the weight the bits the full gradient would.

Inside `with no_grad():` nodes record no parents and no closure, so each
intermediate array is freed as soon as nothing else holds it. The forward
arithmetic is unchanged, so the values are the same bits as with a graph.

All values are float64. Every op checks its output for NaN/Inf and raises
instead of letting a non-finite value escape.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DimensionError

# Clamp applied inside log(); keeps saturated probabilities finite.
LOG_FLOOR = 1e-12

# sigmoid is clipped to the open interval so probability contracts hold even
# when float64 rounds the true value to 0.0 or 1.0.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)

# negative-side slope of leaky_relu, the hidden activation of every network
LEAKY_SLOPE = 0.2

# False inside no_grad(); a context variable, so one thread's inference
# never strips the graph another thread is building.
_recording = contextvars.ContextVar("cganlab_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Build no graph in this block: new nodes keep their value and nothing else."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _as_f64(data):
    arr = np.asarray(data, dtype=np.float64)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # keeps 0-d shape, unlike an unconditional call
    return arr


class Tensor:
    """Graph node: a float64 ndarray plus provenance and a gradient slot."""

    __slots__ = ("data", "grad", "wanted", "op", "parents", "_backward")

    def __init__(self, data, parents=(), op="leaf", backward=None):
        self.data = _as_f64(data)
        if not np.isfinite(self.data).all():
            raise ContractError(f"op '{op}' produced non-finite values")
        self.grad = None
        self.wanted = True  # set by every backward() that reaches this node
        self.op = op
        if _recording.get():
            self.parents = tuple(parents)
            self._backward = backward
        else:
            self.parents = ()
            self._backward = None

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    # -- arithmetic -----------------------------------------------------
    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data + other.data

        def back(g, a=self, b=other):
            _accum(a, _unbroadcast(g, a.shape))
            _accum(b, _unbroadcast(g, b.shape))

        return Tensor(out_data, (self, other), "add", back)

    __radd__ = __add__

    def __neg__(self):
        def back(g, a=self):
            _accum(a, -g)

        return Tensor(-self.data, (self,), "neg", back)

    def __sub__(self, other):
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other):
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data * other.data

        def back(g, a=self, b=other):
            _accum(a, _unbroadcast(g * b.data, a.shape))
            _accum(b, _unbroadcast(g * a.data, b.shape))

        return Tensor(out_data, (self, other), "mul", back)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ----------------------------------------------------------
    def reshape(self, shape) -> "Tensor":
        old = self.shape

        def back(g, a=self):
            _accum(a, g.reshape(old))

        return Tensor(self.data.reshape(shape), (self,), "reshape", back)

    # -- reductions -----------------------------------------------------
    def sum(self, axis=None) -> "Tensor":
        out_data = self.data.sum(axis=axis)

        def back(g, a=self, ax=axis):
            if ax is None:
                _accum(a, np.broadcast_to(g, a.shape).copy())
            else:
                _accum(a, np.broadcast_to(np.expand_dims(g, ax), a.shape).copy())

        return Tensor(out_data, (self,), "sum", back)

    def mean(self, axis=None) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            count = self.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)


# ----------------------------------------------------------------------
# gradient plumbing


class TiedRows:
    """A [P * (d + t), k] array whose P row blocks share their last t rows.

    Viewed as [P, d + t, k], every block holds d free rows of its own and t
    tied rows equal to those of every other block. `free` is the [P, d, k]
    free rows and `tied` the single [t, k] copy of the tied rows; full()
    builds the array they stand for. It is the gradient of a weight whose
    input repeats the same t values in each of P blocks (spatial
    replicate-concat's condition), and the form of that weight's Adam
    moments, so neither is ever stored P times. Gradient accumulation adds
    two of them with +.
    """

    __slots__ = ("free", "tied")

    def __init__(self, free: np.ndarray, tied: np.ndarray):
        self.free, self.tied = free, tied

    @classmethod
    def zeros(cls, blocks: int, d: int, t: int, k: int) -> "TiedRows":
        return cls(np.zeros((blocks, d, k)), np.zeros((t, k)))

    @classmethod
    def compress(cls, full: np.ndarray, blocks: int, d: int) -> "TiedRows":
        """The TiedRows form of the array `full`, as views of it.

        ContractError when the blocks' tied rows are not the same bytes.
        """
        w3 = full.reshape(blocks, -1, full.shape[-1])
        bits = w3[:, d:].view(np.uint64)
        if not (bits == bits[:1]).all():
            raise ContractError(f"the last {w3.shape[1] - d} rows of the {blocks} row blocks "
                                f"are meant to be tied, but differ")
        return cls(w3[:, :d], w3[0, d:])

    @property
    def layout(self) -> tuple:
        """(P, d, t, k)."""
        blocks, d, k = self.free.shape
        return blocks, d, self.tied.shape[0], k

    @property
    def shape(self) -> tuple:
        blocks, d, t, k = self.layout
        return blocks * (d + t), k

    def __add__(self, other):
        if not isinstance(other, TiedRows):
            return NotImplemented
        return TiedRows(self.free + other.free, self.tied + other.tied)

    def copy(self) -> "TiedRows":
        return TiedRows(self.free.copy(), self.tied.copy())

    def full(self) -> np.ndarray:
        blocks, d, t, k = self.layout
        out = np.empty((blocks, d + t, k))
        out[:, :d] = self.free
        out[:, d:] = self.tied
        return out.reshape(self.shape)


def _accum(node: Tensor, g: np.ndarray):
    if not node.wanted:
        return
    if node.grad is None:
        node.grad = g
    else:
        node.grad = node.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gd, sd) in enumerate(zip(g.shape, shape)):
        if sd == 1 and gd != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _toposort(root: Tensor, targets=None):
    """Ancestors of root, parents first; clears each .grad and sets .wanted.

    With targets (a set of node ids) a node is wanted when it is a target or
    has a wanted parent; without, every node is wanted.
    """
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            node.grad = None
            if targets is not None:
                wanted = id(node) in targets
                if not wanted:
                    for p in node.parents:
                        if p.wanted:
                            wanted = True
                            break
                node.wanted = wanted
            else:
                node.wanted = True
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, wrt=None):
    """Populate .grad with d(loss)/d(node) for the ancestors of `loss`.

    Gradients from previous backward calls on the reachable subgraph are
    discarded first; nodes reached through several paths accumulate. With
    `wrt` (an iterable of leaf tensors) only the nodes on a path to one of
    them receive a gradient; every other ancestor keeps grad None. The
    gradients that are computed are the same bits as without `wrt`.
    """
    if loss.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    targets = None if wrt is None else {id(t) for t in wrt}
    order = _toposort(loss, targets)
    if not loss.wanted:
        return
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ----------------------------------------------------------------------
# ops


def matmul(a, b) -> Tensor:
    """2-D matrix product, differentiable in both operands."""
    a, b = Tensor._coerce(a), Tensor._coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")

    def back(g, x=a, y=b):
        if x.wanted:
            _accum(x, g @ y.data.T)
        if y.wanted:
            _accum(y, x.data.T @ g)

    return Tensor(a.data @ b.data, (a, b), "matmul", back)


def leaky_relu(x, bias) -> Tensor:
    """leaky_relu(x + bias), slope LEAKY_SLOPE, of a [b, k] batch and a [k] bias, as one node.

    As 0 < slope < 1, max(pre, slope*pre) is exactly pre for pre > 0 and
    slope*pre otherwise, signed zeros included; g*1.0 is exactly g. The output
    is positive where pre is, so the backward reads it and pre is not kept.
    """
    x, bias = Tensor._coerce(x), Tensor._coerce(bias)
    if x.ndim != 2 or bias.shape != x.shape[1:]:
        raise DimensionError(f"leaky_relu needs [b, k] and [k] operands, got {x.shape}, {bias.shape}")
    pre = x.data + bias.data
    y = LEAKY_SLOPE * pre
    np.maximum(pre, y, out=y)

    def back(g, a=x, b=bias, out=y):
        gs = np.where(out > 0, 1.0, LEAKY_SLOPE)
        np.multiply(g, gs, out=gs)
        _accum(a, gs)
        if b.wanted:
            _accum(b, gs.sum(axis=0))

    return Tensor(y, (x, bias), "leaky_relu", back)


def activation(x, kind: str) -> Tensor:
    """An output head's elementwise nonlinearity: sigmoid or tanh."""
    x = Tensor._coerce(x)
    if kind == "sigmoid":
        d = x.data
        y = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                     np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
        y = np.clip(y, _SIG_LO, _SIG_HI)

        def back(g, a=x, s=y):
            _accum(a, g * s * (1.0 - s))

    elif kind == "tanh":
        y = np.tanh(x.data)

        def back(g, a=x, t=y):
            _accum(a, g * (1.0 - t * t))

    else:
        raise ConfigError(f"unknown activation kind {kind!r}; expected sigmoid or tanh")
    return Tensor(y, (x,), kind, back)


def log(x) -> Tensor:
    """Natural log with the argument clamped at LOG_FLOOR from below."""
    x = Tensor._coerce(x)
    clamped = np.maximum(x.data, LOG_FLOOR)
    y = np.log(clamped)

    def back(g, a=x, c=clamped, d=x.data):
        _accum(a, g * (d > LOG_FLOOR) / c)

    return Tensor(y, (x,), "log", back)


def rows(x, start: int, stop: int) -> Tensor:
    """Rows start..stop-1 of x: a view forward, scattered into zeros backward."""
    x = Tensor._coerce(x)
    if x.ndim == 0 or not 0 <= start <= stop <= x.shape[0]:
        raise DimensionError(f"rows {start}:{stop} out of range for shape {x.shape}")

    def back(g, a=x):
        full = np.zeros(a.shape)
        full[start:stop] = g
        _accum(a, full)

    return Tensor(x.data[start:stop], (x,), "rows", back)


def softmax(logits) -> Tensor:
    """Row softmax over the last axis, computed with max subtraction."""
    x = Tensor._coerce(logits)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)

    def back(g, a=x, pr=p):
        inner = (g * pr).sum(axis=-1, keepdims=True)
        _accum(a, pr * (g - inner))

    return Tensor(p, (x,), "softmax", back)


def is_one_hot(t: np.ndarray) -> bool:
    """True when every row of the 2-D array t is 0.0 everywhere except one 1.0."""
    return bool(np.all((t == 0.0) | (t == 1.0)) and np.all(t.sum(axis=1) == 1.0))


def one_hot(indices, m: int) -> np.ndarray:
    """[len(indices), m] float64 rows, 1.0 at each row's index and 0.0 elsewhere."""
    out = np.zeros((len(indices), m))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def softmax_cross_entropy(logits, target) -> Tensor:
    """Mean over rows of -log softmax(logits) at the one-hot target index.

    Evaluated via log-sum-exp with max subtraction, so confident logits do
    not overflow. Differentiable in logits; the target is a constant.
    """
    x = Tensor._coerce(logits)
    t = _as_f64(target.data if isinstance(target, Tensor) else target)
    if x.ndim != 2:
        raise DimensionError(f"logits must be 2-D, got shape {x.shape}")
    if x.shape != t.shape:
        raise DimensionError(f"logits shape {x.shape} != target shape {t.shape}")
    if not is_one_hot(t):
        raise ContractError("target rows must be one-hot")
    b = x.shape[0]
    m = x.data.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x.data - m).sum(axis=1))
    picked = (x.data * t).sum(axis=1)
    loss = (lse - picked).mean()

    shifted = np.exp(x.data - m)
    probs = shifted / shifted.sum(axis=1, keepdims=True)

    def back(g, a=x, pr=probs, tt=t, n=b):
        _accum(a, g * (pr - tt) / n)

    return Tensor(loss, (x,), "softmax_xent", back)


# ----------------------------------------------------------------------
# Adam

# elements per Adam update block: a block's slices and temporaries fit in L2
ADAM_BLOCK = 8192


@dataclass
class AdamState:
    """Moment accumulators and hyperparameters for one parameter tensor.

    m and v are arrays of the parameter's shape, or TiedRows when the
    parameter's gradient arrives as TiedRows.
    """

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float
    beta1: float
    beta2: float
    epsilon: float

    @classmethod
    def fresh(cls, shape, lr=2e-4, beta1=0.5, beta2=0.999, epsilon=1e-8) -> "AdamState":
        if not 0.0 <= beta1 < 1.0:
            raise ConfigError(f"beta1 must be in [0,1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ConfigError(f"beta2 must be in [0,1), got {beta2}")
        if not 0.0 <= lr < np.inf:
            raise ConfigError(f"lr must be finite and non-negative, got {lr}")
        if epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {epsilon}")
        return cls(0, np.zeros(shape), np.zeros(shape), lr, beta1, beta2, epsilon)


def adam_step(param, grad, state: AdamState):
    """One bias-corrected Adam update. Mutates the parameter and the state.

    theta -= lr * m_hat / (sqrt(v_hat) + eps) with m_hat, v_hat the
    bias-corrected first and second moments.

    A parameter larger than ADAM_BLOCK elements is updated in blocks of whole
    leading-axis rows, with m and v written in place, so the temporaries stay
    in cache instead of costing several full-size arrays. Every element gets
    exactly the value of the whole-array expressions. A parameter that fits
    in one block gains nothing from blocking and keeps the whole-array update
    with fresh m and v arrays: updating those in place left a small-array
    training step with no allocation that outlives it, and glibc then trimmed
    and re-faulted the heap top every step.

    A TiedRows gradient needs TiedRows moments of the same layout. Its free
    rows are updated as above, through their strided view of the parameter;
    its tied rows' moments and update are computed once, and the update is
    subtracted from every block's copy. Each element sees the same operations
    as with the full gradient and full moments, so the parameter gets the
    same bits.
    """
    data = param.data if isinstance(param, Tensor) else param
    tied = isinstance(grad, TiedRows)
    if tied != isinstance(state.m, TiedRows):
        raise DimensionError("a TiedRows gradient needs TiedRows Adam moments, and only it does")
    if not tied:
        grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != data.shape:
        raise DimensionError(f"grad shape {grad.shape} != param shape {data.shape}")
    if state.m.shape != data.shape:
        raise DimensionError(f"adam state shape {state.m.shape} != param shape {data.shape}")
    if tied and grad.layout != state.m.layout:
        raise DimensionError(f"tied gradient layout {grad.layout} != adam state layout "
                             f"{state.m.layout}")
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    if not tied:
        state.m, state.v = _adam_rows(data, grad, state.m, state.v, state, c1, c2)
        return param, state
    m, v = state.m, state.v
    blocks, d, k = grad.free.shape
    w3 = data.reshape(blocks, -1, k)
    m.free, v.free = _adam_rows(w3[:, :d], grad.free, m.free, v.free, state, c1, c2)
    m.tied, v.tied = _moments(grad.tied, m.tied, v.tied, state)
    copies = w3[:, d:]
    copies -= _adam_delta(m.tied, v.tied, state, c1, c2)
    _check_finite(copies)
    return param, state


def _moments(g, m, v, st: AdamState):
    """Adam's new first and second moments, as fresh arrays."""
    return st.beta1 * m + (1.0 - st.beta1) * g, st.beta2 * v + (1.0 - st.beta2) * g * g


def _adam_delta(m, v, st: AdamState, c1, c2):
    """The amount Adam subtracts, from moments m, v and bias corrections c1, c2."""
    return st.lr * (m / c1) / (np.sqrt(v / c2) + st.epsilon)


def _check_finite(data):
    if not np.isfinite(data).all():
        raise ContractError("adam update produced non-finite parameters")


def _adam_rows(data, g, m, v, st: AdamState, c1, c2):
    """Update data in place from gradient g and moments m, v; returns the new m and v.

    Whole-array with fresh moments up to ADAM_BLOCK elements, else in blocks
    of leading-axis rows with the moments written in place (see adam_step).
    """
    if data.size <= ADAM_BLOCK:
        m, v = _moments(g, m, v, st)
        data -= _adam_delta(m, v, st, c1, c2)
        _check_finite(data)
        return m, v
    b1, b2 = st.beta1, st.beta2
    n = data.shape[0]
    rows = max(1, ADAM_BLOCK * n // data.size)
    for r in range(0, n, rows):
        s = slice(r, r + rows)
        gs, ms, vs, ds = g[s], m[s], v[s], data[s]
        # m = beta1 * m + (1 - beta1) * g, and v likewise, in place
        ms *= b1
        ms += (1.0 - b1) * gs
        vs *= b2
        vs += (1.0 - b2) * gs * gs
        ds -= _adam_delta(ms, vs, st, c1, c2)
        _check_finite(ds)
    return m, v
