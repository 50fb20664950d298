"""Reverse-mode autodiff over dense float64 arrays, plus the Adam update.

Define-by-run: every Tensor wraps a numpy array together with the op tag and
parent nodes that produced it, and a closure routing an incoming gradient to
those parents. Graphs are rebuilt each training step; backward() is one
reverse topological sweep with accumulation at fan-in nodes. Every layer is
two nodes, its product and activation(x, bias, kind), which adds the bias
and applies leaky_relu (hidden layers) or the output head's nonlinearity.

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

adam_step updates every parameter in place, one block of leading-axis rows
at a time through scratch reused from block to block, and cuts the blocks
into row ranges with split_rows, which Parzen scoring and sample generation
share. One rule, split_workers, says when work splits: n rows in blocks of
`rows` go to min(WORKERS, ceil(n / rows) // 2) workers, one per CPU of the
process's affinity, when that is 2 or more; otherwise they run inline. The
other ranges run on the package's one thread pool, which starts on first
use; numpy's ufunc loops release the GIL, so the ranges run at once. Every
element sees the whole-array expressions' operations in their order, so the
bits do not depend on the blocks, ranges or CPUs.

Parzen's generate_samples makes one forward unless BLAS_SERIAL holds
(OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, is 1, read once at import, as
BLAS reads them) and its blocks split. Otherwise BLAS threads that forward's
products itself, or one thread would only run the blocks in turn.

Inside `with no_grad():` nodes record no parents and no closure, so each
intermediate array is freed as soon as nothing else holds it. The forward
arithmetic is unchanged, so the values are the same bits as with a graph.

All values are float64. Every op checks its output for NaN/Inf and raises
instead of letting a non-finite value escape.

Importing the module tells glibc's malloc to keep its heap (_hold_heap), so
no training step faults the heap top's pages in again.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from dataclasses import dataclass
from numbers import Real

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


def activation(x, bias, kind: str) -> Tensor:
    """kind(x + bias) of a [b, k] batch and a [k] bias, as one node.

    kind is leaky_relu (slope LEAKY_SLOPE), every hidden layer's, or an
    output head's: tanh, sigmoid or linear. As 0 < slope < 1, max(pre,
    slope*pre) is exactly pre for pre > 0 and slope*pre otherwise, signed
    zeros included, and g*1.0 is exactly g. Each backward reads the output,
    not pre; x gets that gradient and the bias, when wanted, its column sums.
    """
    if kind not in ("leaky_relu", "tanh", "sigmoid", "linear"):
        raise ConfigError(f"unknown activation kind {kind!r}; expected leaky_relu, tanh, "
                          f"sigmoid or linear")
    x, bias = Tensor._coerce(x), Tensor._coerce(bias)
    if x.ndim != 2 or bias.shape != x.shape[1:]:
        raise DimensionError(f"activation needs [b, k] and [k] operands, got {x.shape}, "
                             f"{bias.shape}")
    y = pre = x.data + bias.data  # linear's output
    if kind == "leaky_relu":
        y = LEAKY_SLOPE * pre
        np.maximum(pre, y, out=y)
    elif kind == "tanh":
        np.tanh(pre, out=pre)
    elif kind == "sigmoid":
        e = np.exp(-np.abs(pre))
        y = np.where(pre >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        np.clip(y, _SIG_LO, _SIG_HI, out=y)

    def back(g, a=x, b=bias, out=y):
        gx = g  # linear's
        if kind == "leaky_relu":
            gx = np.where(out > 0, 1.0, LEAKY_SLOPE)
            np.multiply(g, gx, out=gx)
        elif kind == "tanh":
            gx = g * (1.0 - out * out)
        elif kind == "sigmoid":
            gx = g * out * (1.0 - out)
        _accum(a, gx)
        if b.wanted:
            _accum(b, gx.sum(axis=0))

    return Tensor(y, (x, bias), kind, back)


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
    e = np.exp(x.data - m)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    picked = (x.data * t).sum(axis=1)
    loss = (lse - picked).mean()
    probs = e / e.sum(axis=1, keepdims=True)

    def back(g, a=x, pr=probs, tt=t, n=b):
        _accum(a, g * (pr - tt) / n)

    return Tensor(loss, (x,), "softmax_xent", back)


# ----------------------------------------------------------------------
# Adam

# elements per Adam update block: a block's slices and scratch fit in L2, and
# its ufunc loops, which run without the GIL, outlast the Python between them
ADAM_BLOCK = 32768

# threads that split_rows cuts a large piece of work over (Adam's update of a
# large parameter; Parzen's distances, row sorts, sigma sweep and samples):
# one per CPU this process may run on, from its affinity, not a setting
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1)

# the environment variables that set BLAS's thread count; cli.build_info
# records them with every run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_is_serial(environ) -> bool:
    """True when OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, asks BLAS for
    one thread.

    OpenBLAS takes the first of those two that holds a positive count and
    passes over one that is unset, empty or not a positive count; with
    neither, it takes one thread per CPU. MKL_NUM_THREADS does not reach
    OpenBLAS, so it is not read.
    """
    for var in BLAS_THREAD_VARS[:2]:
        try:
            threads = int(environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


# who owns the cores, read once at import as BLAS reads its variables: the
# generator's forward in generate_samples is split over split_rows's threads
# only when BLAS runs each product on one thread and the blocks split (see
# split_workers); otherwise BLAS's own threads take the cores, and a second
# layer of threads would oversubscribe them (unpinned on two CPUs, mnist-eval
# read 33.5 ms per condition with one forward and 38.9 ms with the split)
BLAS_SERIAL = blas_is_serial(os.environ)

# the threads beside the caller's that run the other workers' row ranges;
# started on first use, and dropped in a child made by os.fork, which would
# otherwise wait forever on threads that it does not have
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)

# mallopt(3)'s M_MMAP_THRESHOLD, M_TRIM_THRESHOLD and M_TOP_PAD, and their
# values: any one turns off glibc's dynamic mmap threshold, so all three are
# set (the last two alone slowed an MNIST-shape step by 31%)
_MALLOPT = ((-3, 32 << 20), (-1, 256 << 20), (-2, 64 << 20))


def _hold_heap():
    """Give glibc's malloc the _MALLOPT values over any MALLOC_*_ variable (no-op
    without glibc), whose defaults trim and re-fault the heap top every training step."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except ValueError:  # a name this platform's confstr does not know
        return
    if not (libc or "").startswith("glibc"):
        return
    import ctypes  # numpy has imported it already

    mallopt = ctypes.CDLL(None).mallopt
    for param, value in _MALLOPT:
        mallopt(param, value)


_hold_heap()


@dataclass(frozen=True)
class AdamHyper:
    """Adam's step size, moment decays and epsilon, one set per network (Kingma & Ba,
    arXiv:1412.6980): finite numbers, not bools, with lr >= 0, beta1 and beta2
    in [0, 1) and epsilon > 0, else ConfigError."""

    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (all(isinstance(x, Real) and not isinstance(x, bool) and -np.inf < x < np.inf
                    for x in vars(self).values()) and self.lr >= 0.0 and 0.0 <= self.beta1 < 1.0
                and 0.0 <= self.beta2 < 1.0 and self.epsilon > 0.0):
            raise ConfigError(f"Adam's hyperparameters must be finite numbers with lr >= 0, "
                              f"beta1 and beta2 in [0, 1) and epsilon > 0, got {vars(self)}")


@dataclass
class AdamState:
    """Step count and moment accumulators for one parameter tensor.

    m and v are arrays of the parameter's shape, or TiedRows when the
    parameter's gradient arrives as TiedRows.
    """

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def fresh(cls, shape, tie=None) -> "AdamState":
        """Step 0 and zero moments; with tie = (P, d, t), TiedRows of that layout."""
        if tie:
            return cls(0, TiedRows.zeros(*tie, shape[-1]), TiedRows.zeros(*tie, shape[-1]))
        return cls(0, np.zeros(shape), np.zeros(shape))


def adam_step(param, grad, state: AdamState, hyper: AdamHyper):
    """One bias-corrected Adam update under hyper. Mutates the parameter and the state.

    theta -= lr * m_hat / (sqrt(v_hat) + eps) with m_hat, v_hat the
    bias-corrected first and second moments.

    Every parameter is updated in blocks of whole leading-axis rows, of at
    most ADAM_BLOCK elements each; a 0-d parameter is one row of a (1,) view.
    m and v are written in place, and every temporary goes into two float
    scratch blocks and one bool block reused from block to block, so no
    full-size array is allocated. split_rows cuts the blocks into ranges that
    run at once. A non-finite result in any range raises ContractError here.
    Every element gets exactly the value of the whole-array expressions,
    however the rows are cut.

    A TiedRows gradient needs TiedRows moments of the same layout. Its free
    rows are updated as above, through their strided view of the parameter;
    its tied rows' moments and update are computed once, and the update is
    subtracted from every block's copy, over the same row ranges. Each
    element sees the same operations as with the full gradient and full
    moments, so the parameter gets the same bits.
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
    c1 = 1.0 - hyper.beta1 ** state.step
    c2 = 1.0 - hyper.beta2 ** state.step
    if not tied:
        views = np.atleast_1d(data, grad, state.m, state.v)
        _split(_adam_span, views[0], *views, hyper, c1, c2)
        return param, state
    m, v = state.m, state.v
    blocks, d, k = grad.free.shape
    w3 = data.reshape(blocks, -1, k)
    free = w3[:, :d]
    _split(_adam_span, free, free, grad.free, m.free, v.free, hyper, c1, c2)
    delta = _adam_block(grad.tied, m.tied, v.tied, hyper, c1, c2,
                        *np.empty((2,) + grad.tied.shape))
    copies = w3[:, d:]
    _split(_subtract_span, copies, copies, delta)
    return param, state


def _adam_block(g, m, v, h: AdamHyper, c1, c2, a, b):
    """Update m and v in place from g and return, in scratch a, the amount Adam
    subtracts: the whole-array expressions' operations, in their order, with
    every temporary in the float scratch a and b, of g's shape."""
    b1, b2 = h.beta1, h.beta2
    # m = beta1 * m + (1 - beta1) * g, and v = beta2 * v + (1 - beta2) * g * g
    m *= b1
    m += np.multiply(1.0 - b1, g, out=a)
    v *= b2
    np.multiply(1.0 - b2, g, out=b)
    v += np.multiply(b, g, out=b)
    # lr * (m / c1) / (sqrt(v / c2) + eps)
    np.multiply(h.lr, np.divide(m, c1, out=a), out=a)
    np.sqrt(np.divide(v, c2, out=b), out=b)
    b += h.epsilon
    return np.divide(a, b, out=a)


def _check_finite(data, ok=None):
    """ContractError unless data is finite; ok, when given, is a bool array of data's shape."""
    if not np.isfinite(data, out=ok).all():
        raise ContractError("adam update produced non-finite parameters")


def _adam_span(rows, lo, hi, data, g, m, v, h: AdamHyper, c1, c2):
    """adam_step's update of data's rows lo..hi-1, `rows` of them at a time,
    through two float scratch blocks and one bool block reused with out=."""
    shape = (min(rows, hi - lo),) + data.shape[1:]
    a, b, ok = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
    for r in range(lo, hi, rows):
        s = slice(r, min(r + rows, hi))
        ds = data[s]
        n = ds.shape[0]
        ds -= _adam_block(g[s], m[s], v[s], h, c1, c2, a[:n], b[:n])
        _check_finite(ds, ok[:n])


def _subtract_span(rows, lo, hi, copies, delta):
    """Subtract delta from copies[lo:hi], `rows` of them at a time, checking each block."""
    ok = np.empty((min(rows, hi - lo),) + copies.shape[1:], dtype=bool)
    for r in range(lo, hi, rows):
        cs = copies[r:min(r + rows, hi)]
        cs -= delta
        _check_finite(cs, ok[:cs.shape[0]])


def _split(span, data, *args):
    """split_rows over data's leading-axis rows, in blocks of ADAM_BLOCK elements."""
    n = data.shape[0]
    split_rows(span, n, max(1, ADAM_BLOCK * n // data.size), *args)


def split_workers(n, rows) -> int:
    """Workers split_rows cuts n rows in blocks of `rows` over; 2 or more means it splits."""
    return min(WORKERS, -(-n // rows) // 2)


def split_rows(span, n, rows, *args):
    """Run span(rows, lo, hi, *args) over rows 0..n-1, which span takes `rows` at a time.

    When split_workers(n, rows) is 2 or more, the rows are cut into that many
    contiguous ranges of whole blocks, the caller running the first and the
    pool the rest; numpy releases the GIL inside its ufunc loops, sorts and
    BLAS calls, so they run at once. Otherwise span runs inline and no thread
    starts. An error in any range is raised here, once every range has ended.
    """
    workers = split_workers(n, rows)
    if workers < 2:
        span(rows, 0, n, *args)
        return
    blocks = -(-n // rows)
    cuts = [rows * (blocks * i // workers) for i in range(workers)] + [n]
    pool = _executor()
    futures = [pool.submit(span, rows, lo, hi, *args) for lo, hi in zip(cuts[1:], cuts[2:])]
    try:
        span(rows, cuts[0], cuts[1], *args)
    finally:
        for f in futures:
            f.exception()  # waits for the range to end
    for f in futures:
        f.result()


def _executor():
    """The thread pool, made on first use; concurrent.futures is imported only then."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, WORKERS - 1), "cganlab")
        return _pool
