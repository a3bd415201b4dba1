"""The GEMM conv and reshape pools against the einsum/im2col oracle.

1. **Property** — for random batch/channel/filter counts, spatial sizes,
   kernels, strides and paddings, ``convops.Conv2d`` (batched ``matmul``)
   and ``tests/conv_oracle.py`` (``einsum``) agree on the output and on
   every gradient to 1e-12 of the array's magnitude, with and without a
   bias.  The pools agree on sizes that are and are not divisible by the
   kernel, including max-pool windows full of ties.
2. **Contract** — pools reject overlapping or gapped windows
   (stride != kernel), and a conv whose input needs no gradient returns
   ``None`` for it instead of folding one.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, convops, functional as F
from repro.nn import AvgPool2d, MaxPool2d
from tests import conv_oracle

RTOL = 1e-12


def assert_close(actual, expected):
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= RTOL * scale


def run(fn_cls, arrays, upstream_seed, **kwargs):
    """Forward + backward of ``fn_cls`` on fresh leaves: (out, grads)."""
    leaves = [None if a is None else Tensor(a.copy(), requires_grad=True)
              for a in arrays]
    out = fn_cls.apply(*leaves, **kwargs)
    upstream = np.random.default_rng(upstream_seed).standard_normal(out.shape)
    out.backward(upstream)
    return out.data, [None if t is None else t.grad for t in leaves]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 5), c=st.integers(1, 5), f=st.integers(1, 5),
    h=st.integers(4, 13), w=st.integers(4, 13),
    kernel=st.sampled_from([1, 2, 3, 5]), stride=st.sampled_from([1, 2, 4]),
    padding=st.integers(0, 2), bias=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
)
@example(n=2, c=3, f=4, h=8, w=8, kernel=3, stride=1, padding=1, bias=True, seed=0)
@example(n=1, c=2, f=3, h=7, w=5, kernel=3, stride=2, padding=0, bias=False, seed=1)
def test_conv_matches_oracle(n, c, f, h, w, kernel, stride, padding, bias, seed):
    assume(h + 2 * padding >= kernel and w + 2 * padding >= kernel)
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((n, c, h, w)),
              rng.standard_normal((f, c, kernel, kernel)),
              rng.standard_normal(f) if bias else None]
    out, grads = run(convops.Conv2d, arrays, seed, stride=stride, padding=padding)
    ref_out, ref_grads = run(conv_oracle.Conv2d, arrays, seed,
                             stride=stride, padding=padding)
    assert_close(out, ref_out)
    for grad, ref_grad in zip(grads, ref_grads):
        if ref_grad is None:
            assert grad is None
        else:
            assert_close(grad, ref_grad)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 5), c=st.integers(1, 5),
    h=st.integers(4, 13), w=st.integers(4, 13),
    kernel=st.sampled_from([1, 2, 3, 5]), ties=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(n=2, c=3, h=8, w=12, kernel=2, ties=True, seed=0)  # divisible
@example(n=2, c=3, h=13, w=7, kernel=3, ties=False, seed=1)  # cropped border
@example(n=1, c=1, h=4, w=4, kernel=5, ties=False, seed=2)  # no whole window
def test_pools_match_oracle(n, c, h, w, kernel, ties, seed):
    rng = np.random.default_rng(seed)
    if ties:  # ReLU-like input: whole windows of equal values
        x = np.maximum(rng.integers(-2, 3, (n, c, h, w)), 0).astype(np.float64)
    else:
        x = rng.standard_normal((n, c, h, w))
    for fn_cls, ref_cls in ((convops.MaxPool2d, conv_oracle.MaxPool2d),
                            (convops.AvgPool2d, conv_oracle.AvgPool2d)):
        out, (grad,) = run(fn_cls, [x], seed, kernel=kernel, stride=kernel)
        ref_out, (ref_grad,) = run(ref_cls, [x], seed, kernel=kernel, stride=kernel)
        assert_close(out, ref_out)
        assert_close(grad, ref_grad)


@pytest.mark.parametrize("kernel,stride", [(2, 1), (3, 2), (2, 4)])
def test_pools_reject_stride_other_than_kernel(kernel, stride):
    x = Tensor(np.zeros((1, 1, 8, 8)))
    for pool in (F.max_pool2d, F.avg_pool2d):
        with pytest.raises(ValueError, match="stride = kernel"):
            pool(x, kernel, stride)
    for layer in (MaxPool2d(kernel, stride), AvgPool2d(kernel, stride)):
        with pytest.raises(ValueError, match="stride = kernel"):
            layer(x)


def test_conv_skips_input_gradient_when_not_required(rng):
    x = Tensor(rng.standard_normal((2, 3, 6, 6)))
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    ctx = convops.Conv2d(x, w, b)
    out = ctx.forward(x.data, w.data, b.data, stride=2, padding=1)
    grad_x, grad_w, grad_b = ctx.backward(np.ones_like(out))
    assert grad_x is None
    assert grad_w.shape == w.shape and grad_b.shape == b.shape

    ref_out, (_, ref_w, ref_b) = run(conv_oracle.Conv2d, [x.data, w.data, b.data],
                                     0, stride=2, padding=1)
    F.conv2d(x, w, b, stride=2, padding=1).backward(
        np.random.default_rng(0).standard_normal(ref_out.shape))
    assert_close(w.grad, ref_w)
    assert_close(b.grad, ref_b)
