"""The convolution kernels: the compiled extension (``qmiheat._convcore``)
when it built, otherwise the numpy implementation."""

try:
    from ._convcore import NAME, conv2d_forward
    from ._convcore import conv2d_backward as _core_backward

    def conv2d_backward(x, w, stride, pad, grad_out, input_grad=True):
        """The core always computes the input gradient; drop it unless asked."""
        grad_x, grad_w, grad_b = _core_backward(x, w, stride, pad, grad_out)
        return (grad_x if input_grad else None), grad_w, grad_b

except ImportError:
    from ._convpy import NAME, conv2d_backward, conv2d_forward


def active_backend():
    return NAME
