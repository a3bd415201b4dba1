"""Core tensor and tape machinery for reverse-mode autodiff.

The design mirrors the classic define-by-run tape: every differentiable
operation is a :class:`Function` subclass whose ``apply`` classmethod records
the producing node on its output tensor.  Calling :meth:`Tensor.backward`
topologically sorts the tape and accumulates gradients into the leaves.

Gradients are plain numpy arrays (not tensors); second-order differentiation
is intentionally out of scope — PipeDream only requires first-order SGD-style
training.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_grad_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (e.g. for evaluation)."""
    previous = _grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting may have added leading axes and/or stretched size-1 axes;
    both contributions must be summed to produce the gradient of the
    un-broadcast operand.
    """
    if grad.shape == shape:
        return grad
    # Remove extra leading axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Function:
    """A differentiable operation node on the tape.

    Subclasses implement :meth:`forward` (numpy in, numpy out) and
    :meth:`backward` (upstream gradient in, per-parent gradients out).
    State needed by backward is saved with :meth:`save_for_backward` or as
    plain attributes set during forward.
    """

    def __init__(self, *parents: "Tensor"):
        self.parents: Tuple[Tensor, ...] = parents
        self.saved: Tuple = ()
        self.requires_grad = any(p.requires_grad for p in parents)

    def save_for_backward(self, *items) -> None:
        self.saved = items

    def forward(self, *args, **kwargs) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError  # pragma: no cover

    @classmethod
    def apply(cls, *args, **kwargs) -> "Tensor":
        # A raw array argument becomes a constant parent, so ``parents``
        # lines up with the arrays ``forward`` receives and ``backward``
        # returns one gradient each for.  A ``None`` argument gets no
        # parent, so it must come after every array (Conv2d's bias).
        parents = [a if isinstance(a, Tensor) else Tensor(a)
                   for a in args if isinstance(a, (Tensor, np.ndarray))]
        ctx = cls(*parents)
        raw = [a.data if isinstance(a, Tensor) else a for a in args]
        out_data = ctx.forward(*raw, **kwargs)
        out = Tensor(out_data, requires_grad=ctx.requires_grad and _grad_enabled())
        if out.requires_grad:
            out._ctx = ctx
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__}>"


class Tensor:
    """A numpy array with an optional gradient and autodiff history."""

    __slots__ = ("data", "grad", "requires_grad", "_ctx", "name")
    __array_priority__ = 100.0  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
        name: Optional[str] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind in "iub" and dtype is None:
            # Integer tensors are allowed (indices) but never require grad.
            pass
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._ctx: Optional[Function] = None
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False, dtype=np.float64) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False, dtype=np.float64) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def randn(
        *shape: int,
        rng: Optional[np.random.Generator] = None,
        requires_grad: bool = False,
        dtype=np.float64,
    ) -> "Tensor":
        rng = rng if rng is not None else np.random.default_rng()
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        from repro.autodiff import ops

        return ops.Cast.apply(self, dtype=dtype)

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_note})"

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Accumulate gradients of ``self`` w.r.t. every reachable leaf."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order = self._topological_order()
        grads = {id(self): grad}
        for node in order:
            ctx = node._ctx
            node_grad = grads.pop(id(node), None)
            if node_grad is None or ctx is None:
                continue
            parent_grads = ctx.backward(node_grad)
            for parent, pgrad in zip(ctx.parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pgrad = np.asarray(pgrad)
                if parent._ctx is None:
                    # Leaf: accumulate into .grad
                    if parent.grad is None:
                        parent.grad = pgrad.copy()
                    else:
                        parent.grad = parent.grad + pgrad
                else:
                    existing = grads.get(id(parent))
                    grads[id(parent)] = pgrad if existing is None else existing + pgrad

    def _topological_order(self) -> List["Tensor"]:
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if node._ctx is not None:
                for parent in node._ctx.parents:
                    if id(parent) not in visited:
                        stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Operator overloads (implementations live in repro.autodiff.ops)
    # ------------------------------------------------------------------
    def _binary(self, other: ArrayLike, op) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))
        return op.apply(self, other)

    def __add__(self, other):
        from repro.autodiff import ops

        return self._binary(other, ops.Add)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.autodiff import ops

        return self._binary(other, ops.Sub)

    def __rsub__(self, other):
        from repro.autodiff import ops

        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))
        return ops.Sub.apply(other, self)

    def __mul__(self, other):
        from repro.autodiff import ops

        return self._binary(other, ops.Mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.autodiff import ops

        return self._binary(other, ops.Div)

    def __rtruediv__(self, other):
        from repro.autodiff import ops

        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))
        return ops.Div.apply(other, self)

    def __neg__(self):
        from repro.autodiff import ops

        return ops.Neg.apply(self)

    def __pow__(self, exponent: float):
        from repro.autodiff import ops

        return ops.Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other):
        from repro.autodiff import ops

        return self._binary(other, ops.MatMul)

    def __getitem__(self, index):
        from repro.autodiff import ops

        if isinstance(index, Tensor):
            index = index.data
        return ops.Slice.apply(self, index=index)

    # Named ops -------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        from repro.autodiff import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.Reshape.apply(self, shape=shape)

    def transpose(self, *axes: int) -> "Tensor":
        from repro.autodiff import ops

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return ops.Transpose.apply(self, axes=axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff import ops

        return ops.Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff import ops

        return ops.Mean.apply(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autodiff import ops

        return ops.Max.apply(self, axis=axis, keepdims=keepdims)

    def exp(self) -> "Tensor":
        from repro.autodiff import ops

        return ops.Exp.apply(self)

    def log(self) -> "Tensor":
        from repro.autodiff import ops

        return ops.Log.apply(self)

    def tanh(self) -> "Tensor":
        from repro.autodiff import ops

        return ops.Tanh.apply(self)

    def sigmoid(self) -> "Tensor":
        from repro.autodiff import ops

        return ops.Sigmoid.apply(self)

    def relu(self) -> "Tensor":
        from repro.autodiff import ops

        return ops.ReLU.apply(self)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        from repro.autodiff import ops

        return ops.Abs.apply(self)

    def clip(self, low: float, high: float) -> "Tensor":
        from repro.autodiff import ops

        return ops.Clip.apply(self, low=low, high=high)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    from repro.autodiff import ops

    tensors = list(tensors)
    return ops.Stack.apply(*tensors, axis=axis)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    from repro.autodiff import ops

    tensors = list(tensors)
    return ops.Concat.apply(*tensors, axis=axis)
