"""Convolution and pooling primitives (NCHW layout): every conv product is one
batched GEMM over im2col columns, each pool one reshape into non-overlapping
windows.

The conv GEMMs (see :class:`Conv2d`) work on contiguous (N, rows, OH*OW)
stacks: the forward output is already NCHW, and the input-gradient
columns reach ``col2im`` without a copy.  The input gradient is skipped
(``None``) when the input needs none, as for the first conv of a model or
of pipeline stage 0.

Pools take non-overlapping windows only (stride = kernel; anything else
raises ``ValueError``): x, cropped to whole windows, is reshaped to
(N, C, OH, k, OW, k) and reduced over the two window axes; the backward
is the inverse reshape, zero-padded back over any cropped border.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autodiff.engine import Function


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, OH*OW).

    The strided window view (N, C, OH, OW, kh, kw) is copied once, in
    (N, C, kh, kw, OH, OW) order.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back to (N, C, H, W), accumulating overlaps."""
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class Conv2d(Function):
    """2D convolution x (N,C,H,W) * weight (F,C,kh,kw) + optional bias (F,).
    Batched GEMMs over the im2col columns, w2 = weight as (F, C*kh*kw):
    out = w2 @ cols, grad_w = sum over n of grad2 @ cols^T, and
    grad_x = col2im(w2^T @ grad2), which is ``None`` (not computed) when
    x needs no gradient.
    """

    def forward(self, x, weight, bias, stride: int = 1, padding: int = 0):
        self.stride, self.padding = stride, padding
        f, c, kh, kw = weight.shape
        cols, oh, ow = im2col(x, kh, kw, stride, padding)
        w2 = weight.reshape(f, c * kh * kw)
        out = np.matmul(w2, cols)  # (N, F, OH*OW)
        if bias is not None:
            out += bias.reshape(1, f, 1)
        self.save_for_backward(cols, x.shape, w2, weight.shape)
        self.has_bias = bias is not None
        self.needs_input_grad = self.parents[0].requires_grad
        return out.reshape(x.shape[0], f, oh, ow)

    def backward(self, grad):
        cols, x_shape, w2, w_shape = self.saved
        _, _, kh, kw = w_shape
        grad2 = grad.reshape(grad.shape[0], grad.shape[1], -1)  # (N, F, OH*OW)
        grad_w = np.matmul(grad2, cols.transpose(0, 2, 1)).sum(0).reshape(w_shape)
        grad_b = grad2.sum(axis=(0, 2)) if self.has_bias else None
        grad_x = None
        if self.needs_input_grad:
            grad_cols = np.matmul(w2.T, grad2)  # (N, C*kh*kw, OH*OW)
            grad_x = col2im(grad_cols, x_shape, kh, kw, self.stride, self.padding)
        return grad_x, grad_w, grad_b


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """``x`` cropped to whole windows, viewed as (N, C, OH, k, OW, k)."""
    if stride != kernel:
        raise ValueError(
            f"pooling supports non-overlapping windows only (stride = kernel), "
            f"got kernel={kernel}, stride={stride}"
        )
    n, c, h, w = x.shape
    oh, ow = h // kernel, w // kernel
    x = x[:, :, : oh * kernel, : ow * kernel]
    return x.reshape(n, c, oh, kernel, ow, kernel)


def _unwindow(grad: np.ndarray, x_shape: Tuple[int, int, int, int]) -> np.ndarray:
    """Inverse of :func:`_windows`: (N, C, OH, k, OW, k) back to ``x_shape``."""
    n, c, oh, k, ow, _ = grad.shape
    grad = grad.reshape(n, c, oh * k, ow * k)
    h, w = x_shape[2], x_shape[3]
    if (oh * k, ow * k) != (h, w):
        grad = np.pad(grad, ((0, 0), (0, 0), (0, h - oh * k), (0, w - ow * k)))
    return grad


class MaxPool2d(Function):
    """Max over non-overlapping k x k windows (stride = kernel, else ValueError).
    x is reshaped to (N, C, OH, k, OW, k); the first maximum of each
    window gets the gradient, and a border narrower than a window gets
    zero.
    """

    def forward(self, x, kernel: int, stride: int):
        win = _windows(x, kernel, stride)
        n, c, oh, k, ow, _ = win.shape
        flat = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, k * k)
        argmax = flat.argmax(axis=-1)[..., None]
        self.save_for_backward(argmax, x.shape, k)
        return np.take_along_axis(flat, argmax, axis=-1)[..., 0]

    def backward(self, grad):
        argmax, x_shape, k = self.saved
        n, c, oh, ow, _ = argmax.shape
        flat = np.zeros((n, c, oh, ow, k * k), dtype=grad.dtype)
        np.put_along_axis(flat, argmax, grad[..., None], axis=-1)
        win = flat.reshape(n, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5)
        return (_unwindow(win, x_shape),)


class AvgPool2d(Function):
    """Mean over non-overlapping k x k windows (stride = kernel, else ValueError).
    x is reshaped to (N, C, OH, k, OW, k); a border narrower than a
    window gets zero gradient.
    """

    def forward(self, x, kernel: int, stride: int):
        win = _windows(x, kernel, stride)
        self.save_for_backward(x.shape, kernel)
        return win.mean(axis=(3, 5))

    def backward(self, grad):
        x_shape, k = self.saved
        n, c, oh, ow = grad.shape
        win = np.broadcast_to(
            (grad / (k * k))[:, :, :, None, :, None], (n, c, oh, k, ow, k))
        return (_unwindow(win, x_shape),)


class GlobalAvgPool2d(Function):
    """Mean over spatial dims: (N, C, H, W) -> (N, C)."""

    def forward(self, x):
        self.save_for_backward(x.shape)
        return x.mean(axis=(2, 3))

    def backward(self, grad):
        (shape,) = self.saved
        n, c, h, w = shape
        grad_x = np.broadcast_to(grad[:, :, None, None], shape).copy() / (h * w)
        return (grad_x,)
