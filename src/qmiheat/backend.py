"""The convolution kernels: the compiled extension (``qmiheat._convcore``)
when it built, otherwise the numpy implementation."""

try:
    from ._convcore import NAME, conv2d_backward, conv2d_forward
except ImportError:
    from ._convpy import NAME, conv2d_backward, conv2d_forward


def active_backend():
    return NAME
