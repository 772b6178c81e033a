"""Dense tensors with reverse-mode automatic differentiation.

Values are float64 numpy arrays. Each operation records its inputs and
a vector-Jacobian product; the vjp is itself written with Tensor
operations, so running a backward pass with ``create_graph=True`` yields
gradients that can be differentiated again (needed for the
gradient-penalty term of the WGAN critic loss).

A graph holds each array once. A node keeps its output and the inputs
its vjp reads; an operand it can rebuild from them cheaply, such as a
convolution's window matrix over an activation or a leaky ReLU's mask,
is rebuilt when the vjp runs, from the same values, so the gradient has
the same bits. A backward pass keeps the gradients still to be passed
down, and returns only those of the leaves and the `wrt` tensors.

Grad mode is per thread, so `fork` can run two independent halves of
large work, such as two critic forwards, on two threads with the same
bits as one. A backward pass without create_graph also hands a leaf's
large gradient contributions to the other thread, which sums them in the
order they arrive, as the pass would. No vjp forks, so a backward pass
never waits on the other thread.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ContractError, NumericalError, ShapeError


class _AutodiffState(threading.local):
    """Each thread's grad mode, the ids of the nodes its running backward
    pass carries gradients to (None means all), how many leaf gradient
    terms that pass handed to fork's worker (None when it may hand none),
    and whether it is fork's worker."""

    def __init__(self):
        self.grad_mode = True
        self.keep: set[int] | None = None
        self.handed_off: int | None = None
        self.on_worker = False


_STATE = _AutodiffState()


@contextmanager
def _set(name: str, value):
    """This thread's autodiff state `name` is `value` for the duration of the block."""
    saved = getattr(_STATE, name)
    setattr(_STATE, name, value)
    try:
        yield
    finally:
        setattr(_STATE, name, saved)


def no_grad():
    return _set("grad_mode", False)


def enable_grad():
    return _set("grad_mode", True)


def grad_enabled() -> bool:
    return _STATE.grad_mode


def needs_grad(t: "Tensor") -> bool:
    """Whether the running backward pass wants a gradient for `t`; costly vjps skip the rest."""
    keep = _STATE.keep
    return t.requires_grad and (keep is None or id(t) in keep)


# -- two independent halves on two threads -------------------------------------

# multiply-adds below which handing a half to the worker thread costs more
# than it saves. Two bare matmul halves break even near 1 million on a
# 2-vCPU AVX-512 machine; the margin covers the Python around each half.
# Small shapes are bound by Python, and two threads then only take turns
# at the interpreter lock.
FORK_MIN_WORK = 4_000_000
M_ARENA_MAX = -8  # glibc's mallopt parameter
# OpenBLAS's thread-count getter as scipy-openblas, the older numpy wheels and plain builds name it
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas_getter(names: tuple[str, ...], restype) -> Callable[[], object] | None:
    """The first of `names` that the loaded OpenBLAS exports, returning `restype`; None for another BLAS or no /proc."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)  # already loaded: the same handle
        for name in names:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = (), restype
                return getter
    return None


def _blas_threads() -> int | None:
    """Threads BLAS runs each call on now, or None when that cannot be asked."""
    getter = _openblas_getter(_BLAS_THREAD_GETTERS, ctypes.c_int)
    return None if getter is None else getter()


def _one_malloc_arena() -> None:
    """Have glibc serve every thread from the one heap.

    A thread's first malloc otherwise opens a second arena, whose freed
    pages stay mapped: a paper-size train-gan then peaked at 129 MB,
    against 117-118 MB with one arena.
    """
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(M_ARENA_MAX, 1)


def _mark_worker() -> None:
    _STATE.on_worker = True


def _worker() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _one_malloc_arena()
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mocapsynth-fork", initializer=_mark_worker)
    return _pool


def _as_caller(thunk: Callable, grad_mode: bool, keep: set[int] | None):
    """Run `thunk` with the caller's grad mode and keep set, then restore this thread's own."""
    with _set("grad_mode", grad_mode), _set("keep", keep):
        return thunk()


def forks(work: int) -> bool:
    """Whether `work` multiply-adds are worth a half on the worker thread.

    No when `work` is below FORK_MIN_WORK, when the process may use one
    CPU only, when BLAS is not known to run each call on one thread (a
    BLAS call that already uses every CPU leaves the worker none to use),
    or when called on the worker itself, which would otherwise wait on
    its own queue for good.
    """
    return work >= FORK_MIN_WORK and not _STATE.on_worker and _usable_cpus() >= 2 and _blas_threads() == 1


def fork(work: int, first: Callable, second: Callable | None) -> tuple:
    """(first(), second()), with `first` on the worker thread while `second` runs here.

    `work` estimates the multiply-adds at stake. Both halves run here, in
    order, when `forks(work)` says no or when `second` is None (it gives
    None). The halves must share no mutable state and draw from no common
    random stream; then the result is the same, bit for bit. Both run to
    the end, and an error comes out in serial order: first's, else second's.

    A critic step's pairs and Adam's halves call it. With `leaf_grad` and
    backward_pass's deferred sums, they make every hand-off to the worker.
    """
    if second is None or not forks(work):
        return first(), None if second is None else second()
    future = _worker().submit(_as_caller, first, _STATE.grad_mode, _STATE.keep)
    try:
        b = second()
    except BaseException:
        future.result()  # first's error, if it raised, goes before second's
        raise
    return future.result(), b


def _defer(thunk: Callable) -> Future:
    """thunk() on the worker, with this thread's grad mode and keep set, as one of the running pass's hand-offs."""
    _STATE.handed_off += 1
    return _worker().submit(_as_caller, thunk, _STATE.grad_mode, _STATE.keep)


def _formed(g: Tensor | Future) -> Tensor:
    return g.result() if type(g) is Future else g


def leaf_grad(work: int, thunk: Callable, leaf: Tensor) -> Tensor | Future | None:
    """thunk(), a vjp's term of the gradient of `leaf`, or None when the running pass wants none.

    In a backward pass without create_graph, when `leaf` is a leaf tensor
    and `forks(work)` says yes, the thunk goes to the worker and its
    future stands for the term: the pass carries on down its chain
    without waiting.
    """
    if not needs_grad(leaf):
        return None
    if _STATE.handed_off is not None and leaf._vjp is None and forks(work):
        return _defer(thunk)
    return thunk()


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "op", "_prev", "_vjp", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op = "leaf"
        self._prev: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Tensor], tuple[Tensor | None, ...]] | None = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(op={self.op}, shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_ensure(other)))

    def __rsub__(self, other):
        return add(_ensure(other), neg(self))

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_ensure(other), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def backward(self, wrt: Iterable[Tensor] | None = None) -> None:
        """Accumulate d(self)/d(leaf) into the .grad of every leaf tensor, or of those in `wrt` only."""
        if self.size != 1:
            raise ContractError(f"backward requires a scalar, got shape {self.shape}")
        grads = backward_pass(self, Tensor(np.ones_like(self.data)), create_graph=False, wrt=wrt)
        for node, g in grads.items():
            if node.requires_grad and node._vjp is None:
                node.grad = g.data.copy() if node.grad is None else node.grad + g.data


def _ensure(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, inputs: Sequence[Tensor], vjp, op: str) -> Tensor:
    out = Tensor(data)
    if grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._prev = tuple(inputs)
        out._vjp = vjp
        out.op = op
    return out


# -- backward machinery -----------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    """Post-order over the recorded graph; every node appears exactly once."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node._prev:
            if child.requires_grad and id(child) not in seen:
                stack.append((child, False))
    return order


def backward_pass(
    root: Tensor, seed: Tensor, create_graph: bool, wrt: Iterable[Tensor] | None = None
) -> dict[Tensor, Tensor]:
    """Run reverse-mode accumulation from `root`; returns node -> gradient for each leaf and `wrt` tensor.

    With `wrt`, only the nodes on a path from a `wrt` tensor to `root` are
    visited, and no gradient is formed for an input off those paths. An
    intermediate node's gradient is dropped once its vjp has run.
    """
    order = _topo_order(root)
    keep = None
    wanted = set()
    if wrt is not None:
        wanted = {id(t) for t in wrt}
        keep = set(wanted)
        for node in order:  # post-order: every input precedes its consumers
            if any(id(p) in keep for p in node._prev):
                keep.add(id(node))
        order = [node for node in order if id(node) in keep]
    mode = enable_grad if create_graph else no_grad
    grads: dict[int, Tensor | Future] = {id(root): seed}
    result: dict[Tensor, Tensor] = {}
    pending: list[tuple[Tensor, Future]] = []
    with mode(), _set("keep", keep), _set("handed_off", None if create_graph else 0):
        try:
            for node in reversed(order):
                g = grads.pop(id(node), None)
                if g is None:
                    continue
                if type(g) is Future:  # a leaf whose gradient is still forming on the worker
                    pending.append((node, g))
                    continue
                if not np.isfinite(g.data).all():
                    raise NumericalError(f"non-finite gradient at node {node.op!r}")
                if node._vjp is None or id(node) in wanted:
                    result[node] = g
                if node._vjp is None:
                    continue
                for inp, gi in zip(node._prev, node._vjp(g)):
                    if gi is None or not inp.requires_grad or (keep is not None and id(inp) not in keep):
                        continue
                    prev = grads.get(id(inp))
                    if prev is None:
                        grads[id(inp)] = gi
                    elif type(prev) is Future or type(gi) is Future:
                        # the worker runs its queue in order: both terms are formed when this sum starts
                        grads[id(inp)] = _defer(lambda a=prev, b=gi: add(_formed(a), _formed(b)))
                    else:
                        grads[id(inp)] = add(prev, gi)
            for node, g in pending:
                g = g.result()
                if not np.isfinite(g.data).all():
                    raise NumericalError(f"non-finite gradient at node {node.op!r}")
                result[node] = g
        except BaseException:
            if _STATE.handed_off:  # let every hand-off end before the error goes out: the queue runs in order
                _worker().submit(lambda: None).result()
            raise
    return result


def grad(
    output: Tensor,
    wrt: Iterable[Tensor],
    create_graph: bool = False,
) -> list[Tensor]:
    """Gradients of a scalar `output` for each tensor in `wrt`.

    Does not touch .grad; with create_graph=True the returned tensors are
    part of the graph and can be differentiated again.
    """
    if output.size != 1:
        raise ContractError(f"grad requires a scalar output, got shape {output.shape}")
    wrt = list(wrt)
    grads = backward_pass(output, Tensor(np.ones_like(output.data)), create_graph, wrt)
    out = []
    for w in wrt:
        g = grads.get(w)
        if g is None:
            g = Tensor(np.zeros_like(w.data))
        out.append(g)
    return out


# -- shape helpers ----------------------------------------------------------


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce a broadcast gradient back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = tsum(g, axis=tuple(range(extra)), keepdims=False)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = tsum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# -- elementwise primitives ---------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)

    def vjp(g: Tensor):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(a.data + b.data, (a, b), vjp, "add")


def neg(a) -> Tensor:
    a = _ensure(a)
    return _make(-a.data, (a,), lambda g: (neg(g),), "neg")


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)

    def vjp(g: Tensor):
        return _unbroadcast(mul(g, b), a.shape), _unbroadcast(mul(g, a), b.shape)

    return _make(a.data * b.data, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)

    def vjp(g: Tensor):
        ga = _unbroadcast(div(g, b), a.shape)
        gb = _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape)
        return ga, gb

    return _make(a.data / b.data, (a, b), vjp, "div")


def power(a, exponent: float) -> Tensor:
    a = _ensure(a)
    exponent = float(exponent)

    def vjp(g: Tensor):
        return (mul(g, mul_const(power(a, exponent - 1.0), exponent)),)

    return _make(a.data**exponent, (a,), vjp, "pow")


def mul_const(a: Tensor, c: float | np.ndarray) -> Tensor:
    a = _ensure(a)
    return _make(a.data * c, (a,), lambda g: (mul_const(g, c),), "mul_const")


def _vjp_of_output(out: Tensor, vjp: Callable[[Tensor, Tensor], tuple[Tensor]]) -> Tensor:
    """Give `out` the vjp g -> vjp(g, out), holding `out` only weakly.

    A closure over `out` stored on `out` would make each graph a reference
    cycle, freed only when the cyclic collector runs. Backward calls a
    node's vjp only while it holds the node, so the reference is live then.
    """
    if out.requires_grad:
        ref = weakref.ref(out)
        out._vjp = lambda g: vjp(g, ref())
    return out


def texp(a) -> Tensor:
    a = _ensure(a)
    out = _make(np.exp(a.data), (a,), None, "exp")
    return _vjp_of_output(out, lambda g, y: (mul(g, y),))


def tlog(a) -> Tensor:
    a = _ensure(a)
    return _make(np.log(a.data), (a,), lambda g: (div(g, a),), "log")


def tsqrt(a) -> Tensor:
    a = _ensure(a)
    out = _make(np.sqrt(a.data), (a,), None, "sqrt")
    return _vjp_of_output(out, lambda g, y: (div(mul_const(g, 0.5), y),))


def tanh(a) -> Tensor:
    a = _ensure(a)
    out = _make(np.tanh(a.data), (a,), None, "tanh")
    return _vjp_of_output(out, lambda g, y: (mul(g, add(1.0, neg(mul(y, y)))),))


def sigmoid(a) -> Tensor:
    a = _ensure(a)
    out = _make(1.0 / (1.0 + np.exp(-a.data)), (a,), None, "sigmoid")
    return _vjp_of_output(out, lambda g, y: (mul(g, mul(y, add(1.0, neg(y)))),))


def relu(a) -> Tensor:
    a = _ensure(a)
    positive = a.data > 0
    return _masked(a, a.data * positive, positive, "relu")


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _ensure(a)
    return _scale_by_sign(a, (a.data > 0).view(np.uint8), np.array([slope, 1.0], a.data.dtype))


def _scale_by_sign(a: Tensor, positive: np.ndarray, table: np.ndarray) -> Tensor:
    """a times table[positive], its own adjoint: the node keeps the sign test, a byte an element.

    Each use looks the mask up again by the sign test, in about half the
    time of a branchy `np.where` mask, with NaN taking the slope as there.
    """
    return _make(a.data * table.take(positive), (a,), lambda g: (_scale_by_sign(g, positive, table),), "leaky_relu")


def _masked(a: Tensor, data: np.ndarray, keep: np.ndarray, op: str) -> Tensor:
    """`data` as an `op` node whose vjp, a mul_const node of the same kind, is g times the bool array `keep`.

    The node holds a byte an element. numpy multiplies by a bool as by 0.0 or 1.0: a float mask's
    bits, at about its cost, where a `_scale_by_sign` table lookup costs several times that.
    """
    return _make(data, (a,), lambda g: (_masked(g, g.data * keep, keep, "mul_const"),), op)


def clip(a, lo: float, hi: float) -> Tensor:
    a = _ensure(a)
    return _masked(a, np.clip(a.data, lo, hi), (a.data >= lo) & (a.data <= hi), "clip")


# -- reductions and shape ops -------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    if isinstance(axis, int):
        axis = (axis,)

    def vjp(g: Tensor):
        if axis is None:
            return (broadcast_to(reshape(g, (1,) * a.ndim), a.shape),)
        if keepdims:
            return (broadcast_to(g, a.shape),)
        kept = list(g.shape)
        for ax in sorted(ax % a.ndim for ax in axis):
            kept.insert(ax, 1)
        return (broadcast_to(reshape(g, tuple(kept)), a.shape),)

    return _make(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return mul_const(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _ensure(a)
    orig = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (reshape(g, orig),), "reshape")


def broadcast_to(a, shape: tuple[int, ...]) -> Tensor:
    a = _ensure(a)
    orig = a.shape

    def vjp(g: Tensor):
        return (_unbroadcast(g, orig),)

    return _make(np.broadcast_to(a.data, shape).copy(), (a,), vjp, "broadcast")


def transpose2d(a) -> Tensor:
    a = _ensure(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose2d expects a matrix, got shape {a.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: (transpose2d(g),), "transpose")


def matmul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    def vjp(g: Tensor):
        ga = matmul(g, transpose2d(b)) if needs_grad(a) else None
        gb = matmul(transpose2d(a), g) if needs_grad(b) else None
        return ga, gb

    return _make(a.data @ b.data, (a, b), vjp, "matmul")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_ensure(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: Tensor):
        return tuple(
            narrow(g, axis, int(offsets[i]), sizes[i]) for i in range(len(tensors))
        )

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp, "concat")


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = _ensure(a)
    total = a.shape[axis]
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)

    def vjp(g: Tensor):
        return (pad_axis(g, axis, start, total - start - length),)

    return _make(a.data[tuple(index)].copy(), (a,), vjp, "narrow")


def pad_axis(a, axis: int, before: int, after: int) -> Tensor:
    a = _ensure(a)
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)
    length = a.shape[axis]

    def vjp(g: Tensor):
        return (narrow(g, axis, before, length),)

    return _make(np.pad(a.data, widths), (a,), vjp, "pad")


def repeat_time(a, factor: int) -> Tensor:
    """Repeat each step along axis 1 of a (B, T, C) tensor `factor` times."""
    a = _ensure(a)
    if a.ndim != 3:
        raise ShapeError(f"repeat_time expects (B, T, C), got shape {a.shape}")
    B, T, C = a.shape

    def vjp(g: Tensor):
        return (tsum(reshape(g, (B, T, factor, C)), axis=2),)

    return _make(np.repeat(a.data, factor, axis=1), (a,), vjp, "repeat_time")


# -- composite activations ----------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    a = _ensure(a)
    # constant shift for stability; softmax is invariant to it so the
    # gradient ignoring the shift's input-dependence is exact
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = texp(add(a, Tensor(-shift)))
    return div(e, tsum(e, axis=axis, keepdims=True))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _ensure(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    s = add(a, Tensor(-shift))
    return add(s, neg(tlog(tsum(texp(s), axis=axis, keepdims=True))))


def cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of one-hot targets under softmax(logits)."""
    logp = log_softmax(logits, axis=-1)
    picked = tsum(mul_const(logp, onehot), axis=-1)
    return neg(tmean(picked))
