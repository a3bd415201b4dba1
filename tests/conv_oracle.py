"""The einsum convolution and im2col pools: the differential oracle for
:mod:`repro.autodiff.convops`.

These are the library's original kernels, kept verbatim: ``im2col``
copies the columns one kernel offset at a time, ``Conv2d`` contracts
them with three ``einsum`` calls, and the pools run every (kernel,
stride) through ``im2col``/``col2im`` with an argmax or a mean over each
window's column.  They share only ``col2im`` with the library kernels,
so the window-view unfold, the pools' reshape windows and the conv's
batched ``matmul`` layout are all checked against an independent path.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.convops import col2im, conv_output_size
from repro.autodiff.engine import Function


def im2col(x, kh, kw, stride, padding):
    """Unfold ``x`` (N, C, H, W) into columns of shape (N, C*kh*kw, OH*OW)."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


class Conv2d(Function):
    """2D convolution: x (N,C,H,W) * weight (F,C,kh,kw) + bias (F,)."""

    def forward(self, x, weight, bias, stride: int = 1, padding: int = 0):
        self.stride, self.padding = stride, padding
        f, c, kh, kw = weight.shape
        cols, oh, ow = im2col(x, kh, kw, stride, padding)
        w2 = weight.reshape(f, c * kh * kw)
        out = np.einsum("fk,nkp->nfp", w2, cols, optimize=True)
        out = out.reshape(x.shape[0], f, oh, ow)
        if bias is not None:
            out += bias.reshape(1, f, 1, 1)
        self.save_for_backward(cols, x.shape, weight)
        self.has_bias = bias is not None
        return out

    def backward(self, grad):
        cols, x_shape, weight = self.saved
        n, f = grad.shape[0], grad.shape[1]
        _, c, kh, kw = weight.shape
        grad2 = grad.reshape(n, f, -1)  # (N, F, OH*OW)
        grad_w = np.einsum("nfp,nkp->fk", grad2, cols, optimize=True)
        grad_w = grad_w.reshape(weight.shape)
        grad_b = grad2.sum(axis=(0, 2)) if self.has_bias else None
        w2 = weight.reshape(f, c * kh * kw)
        grad_cols = np.einsum("fk,nfp->nkp", w2, grad2, optimize=True)
        grad_x = col2im(grad_cols, x_shape, kh, kw, self.stride, self.padding)
        return grad_x, grad_w, grad_b


class MaxPool2d(Function):
    def forward(self, x, kernel: int, stride: int):
        self.kernel, self.stride = kernel, stride
        n, c, h, w = x.shape
        cols, oh, ow = im2col(x, kernel, kernel, stride, padding=0)
        cols = cols.reshape(n, c, kernel * kernel, oh * ow)
        argmax = cols.argmax(axis=2)
        out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
        self.save_for_backward(argmax, x.shape, oh, ow)
        return out.reshape(n, c, oh, ow)

    def backward(self, grad):
        argmax, x_shape, oh, ow = self.saved
        n, c = x_shape[0], x_shape[1]
        k = self.kernel
        grad_cols = np.zeros((n, c, k * k, oh * ow), dtype=grad.dtype)
        grad2 = grad.reshape(n, c, 1, oh * ow)
        np.put_along_axis(grad_cols, argmax[:, :, None, :], grad2, axis=2)
        grad_cols = grad_cols.reshape(n, c * k * k, oh * ow)
        return (col2im(grad_cols, x_shape, k, k, self.stride, padding=0),)


class AvgPool2d(Function):
    def forward(self, x, kernel: int, stride: int):
        self.kernel, self.stride = kernel, stride
        n, c, h, w = x.shape
        cols, oh, ow = im2col(x, kernel, kernel, stride, padding=0)
        cols = cols.reshape(n, c, kernel * kernel, oh * ow)
        out = cols.mean(axis=2)
        self.save_for_backward(x.shape, oh, ow)
        return out.reshape(n, c, oh, ow)

    def backward(self, grad):
        x_shape, oh, ow = self.saved
        n, c = x_shape[0], x_shape[1]
        k = self.kernel
        grad2 = grad.reshape(n, c, 1, oh * ow) / (k * k)
        grad_cols = np.broadcast_to(grad2, (n, c, k * k, oh * ow)).copy()
        grad_cols = grad_cols.reshape(n, c * k * k, oh * ow)
        return (col2im(grad_cols, x_shape, k, k, self.stride, padding=0),)
