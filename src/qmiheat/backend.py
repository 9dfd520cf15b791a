"""The convolution kernels: the compiled extension (``qmiheat._convcore``)
when it built, otherwise the numpy implementation."""

import numpy as np

from ._convpy import maxpool2x2

try:
    from ._convcore import NAME
    from ._convcore import conv2d_backward as _core_backward
    from ._convcore import conv2d_forward as _core_forward

    def conv2d_forward(x, w, b, stride, pad, pool=False, relu=False):
        """The core computes the whole convolution; pool its even crop and
        rectify after."""
        out = _core_forward(x, w, b, stride, pad)
        if pool:
            n, oc, oh, ow = out.shape
            pooled = np.empty((n, oc, oh // 2, ow // 2), dtype=np.float32)
            out = maxpool2x2(out[:, :, : oh // 2 * 2, : ow // 2 * 2], pooled)
        if relu:
            np.maximum(out, 0.0, out=out)
        return out

    def conv2d_backward(x, w, stride, pad, grad_out, input_grad=True):
        """The core always computes the input gradient; drop it unless asked."""
        grad_x, grad_w, grad_b = _core_backward(x, w, stride, pad, grad_out)
        return (grad_x if input_grad else None), grad_w, grad_b

except ImportError:
    from ._convpy import NAME, conv2d_backward, conv2d_forward


def active_backend():
    return NAME
