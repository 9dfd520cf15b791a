# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled convolution core: C patch gather/scatter around BLAS sgemm.

Same contract as the numpy module; output rows are processed in strips so
the patch buffer stays within a fixed float budget on large frames.  All
sgemm calls exploit row-major C = (col-major view of C)^T, so operands are
passed untransposed with leading dimensions equal to their row lengths.
"""

import numpy as np

cimport numpy as cnp
from libc.string cimport memcpy
from scipy.linalg.cython_blas cimport sgemm

cnp.import_array()

NAME = "compiled"

# Patch-buffer budget in floats, mirroring the numpy backend.
cdef Py_ssize_t _STRIP_BUDGET = 250000


cdef void _gather(const float* xp, Py_ssize_t ic, Py_ssize_t h, Py_ssize_t w,
                  float* cols, Py_ssize_t buf_l,
                  Py_ssize_t kh, Py_ssize_t kw, Py_ssize_t stride,
                  Py_ssize_t pad, Py_ssize_t r0, Py_ssize_t rows,
                  Py_ssize_t ow) noexcept nogil:
    # cols[k, l] = x[c, ih, iw] for k = (c*kh + ki)*kw + kj,
    # l = r*ow + j, ih = (r0+r)*stride - pad + ki, iw = j*stride - pad + kj;
    # out-of-image taps read zero.  Unit stride keeps taps contiguous along
    # j, so that case block-copies each row instead of walking elements.
    cdef Py_ssize_t c, ki, kj, r, j, ih, iw, k, off, j0, j1
    cdef float* row
    cdef const float* src
    for c in range(ic):
        for ki in range(kh):
            for kj in range(kw):
                k = (c * kh + ki) * kw + kj
                row = cols + k * buf_l
                if stride == 1:
                    off = kj - pad
                    j0 = -off if off < 0 else 0
                    j1 = w - off
                    if j1 > ow:
                        j1 = ow
                    if j1 < j0:
                        j1 = j0
                    for r in range(rows):
                        ih = r0 + r - pad + ki
                        if ih < 0 or ih >= h:
                            for j in range(ow):
                                row[r * ow + j] = 0.0
                            continue
                        src = xp + (c * h + ih) * w
                        for j in range(j0):
                            row[r * ow + j] = 0.0
                        if j1 > j0:
                            memcpy(row + r * ow + j0, src + j0 + off,
                                   (j1 - j0) * sizeof(float))
                        for j in range(j1, ow):
                            row[r * ow + j] = 0.0
                    continue
                for r in range(rows):
                    ih = (r0 + r) * stride - pad + ki
                    if ih < 0 or ih >= h:
                        for j in range(ow):
                            row[r * ow + j] = 0.0
                        continue
                    src = xp + (c * h + ih) * w
                    for j in range(ow):
                        iw = j * stride - pad + kj
                        if iw < 0 or iw >= w:
                            row[r * ow + j] = 0.0
                        else:
                            row[r * ow + j] = src[iw]


cdef void _scatter(float* gx, Py_ssize_t ic, Py_ssize_t h, Py_ssize_t w,
                   const float* gcols, Py_ssize_t buf_l,
                   Py_ssize_t kh, Py_ssize_t kw, Py_ssize_t stride,
                   Py_ssize_t pad, Py_ssize_t r0, Py_ssize_t rows,
                   Py_ssize_t ow) noexcept nogil:
    # Adjoint of _gather: accumulates patch gradients back into the image.
    cdef Py_ssize_t c, ki, kj, r, j, ih, iw, k
    cdef const float* row
    cdef float* dst
    for c in range(ic):
        for ki in range(kh):
            for kj in range(kw):
                k = (c * kh + ki) * kw + kj
                row = gcols + k * buf_l
                for r in range(rows):
                    ih = (r0 + r) * stride - pad + ki
                    if ih < 0 or ih >= h:
                        continue
                    dst = gx + (c * h + ih) * w
                    for j in range(ow):
                        iw = j * stride - pad + kj
                        if 0 <= iw < w:
                            dst[iw] += row[r * ow + j]


cdef Py_ssize_t _strip_rows(Py_ssize_t oh, Py_ssize_t k, Py_ssize_t ow) noexcept:
    cdef Py_ssize_t per_row = k * ow
    if per_row < 1:
        per_row = 1
    cdef Py_ssize_t rows = _STRIP_BUDGET // per_row
    if rows < 1:
        rows = 1
    if rows > oh:
        rows = oh
    return rows


def conv2d_forward(x, w, b, stride, pad):
    """float32 NCHW convolution; returns (n, oc, oh, ow)."""
    cdef cnp.ndarray[float, ndim=4, mode="c"] xa = np.ascontiguousarray(x, dtype=np.float32)
    cdef cnp.ndarray[float, ndim=4, mode="c"] wa = np.ascontiguousarray(w, dtype=np.float32)
    cdef cnp.ndarray[float, ndim=1, mode="c"] ba = np.ascontiguousarray(b, dtype=np.float32)
    cdef Py_ssize_t n = xa.shape[0], ic = xa.shape[1], h = xa.shape[2], iw = xa.shape[3]
    cdef Py_ssize_t oc = wa.shape[0], kh = wa.shape[2], kw = wa.shape[3]
    if wa.shape[1] != ic:
        raise ValueError(f"kernel expects {wa.shape[1]} channels, input has {ic}")
    cdef Py_ssize_t st = stride, pd = pad
    cdef Py_ssize_t oh = (h + 2 * pd - kh) // st + 1
    cdef Py_ssize_t ow = (iw + 2 * pd - kw) // st + 1
    if oh < 1 or ow < 1:
        raise ValueError("kernel does not fit the padded input")
    cdef Py_ssize_t K = ic * kh * kw
    cdef Py_ssize_t strip = _strip_rows(oh, K, ow)
    cdef Py_ssize_t buf_l = strip * ow
    cdef cnp.ndarray[float, ndim=4, mode="c"] out = np.empty((n, oc, oh, ow), dtype=np.float32)
    cdef cnp.ndarray[float, ndim=2, mode="c"] cols = np.empty((K, buf_l), dtype=np.float32)
    cdef float* xp = <float*> xa.data
    cdef float* wp = <float*> wa.data
    cdef float* op = <float*> out.data
    cdef float* cp = <float*> cols.data
    cdef Py_ssize_t i, r0, rows
    cdef int m_i, n_i, k_i, lda, ldb, ldc
    cdef float one = 1.0, zero = 0.0
    cdef Py_ssize_t x_stride = ic * h * iw, o_stride = oc * oh * ow
    with nogil:
        for i in range(n):
            r0 = 0
            while r0 < oh:
                rows = oh - r0
                if rows > strip:
                    rows = strip
                _gather(xp + i * x_stride, ic, h, iw, cp, buf_l,
                        kh, kw, st, pd, r0, rows, ow)
                # out_block^T (L x oc) = cols_sub^T (L x K) . w_mat^T (K x oc)
                m_i = <int> (rows * ow)
                n_i = <int> oc
                k_i = <int> K
                lda = <int> buf_l
                ldb = <int> K
                ldc = <int> (oh * ow)
                sgemm("N", "N", &m_i, &n_i, &k_i, &one, cp, &lda,
                      wp, &ldb, &zero, op + i * o_stride + r0 * ow, &ldc)
                r0 += strip
    np.add(out, np.asarray(ba).reshape(1, oc, 1, 1), out=out)
    return out


def conv2d_backward(x, w, stride, pad, grad_out):
    """Gradients of the forward contraction: (grad_x, grad_w, grad_b)."""
    cdef cnp.ndarray[float, ndim=4, mode="c"] xa = np.ascontiguousarray(x, dtype=np.float32)
    cdef cnp.ndarray[float, ndim=4, mode="c"] wa = np.ascontiguousarray(w, dtype=np.float32)
    cdef cnp.ndarray[float, ndim=4, mode="c"] ga = np.ascontiguousarray(grad_out, dtype=np.float32)
    cdef Py_ssize_t n = xa.shape[0], ic = xa.shape[1], h = xa.shape[2], iw = xa.shape[3]
    cdef Py_ssize_t oc = wa.shape[0], kh = wa.shape[2], kw = wa.shape[3]
    cdef Py_ssize_t st = stride, pd = pad
    cdef Py_ssize_t oh = (h + 2 * pd - kh) // st + 1
    cdef Py_ssize_t ow = (iw + 2 * pd - kw) // st + 1
    if ga.shape[0] != n or ga.shape[1] != oc or ga.shape[2] != oh or ga.shape[3] != ow:
        raise ValueError(
            f"grad_out shape {tuple(grad_out.shape)} does not match "
            f"({n}, {oc}, {oh}, {ow})"
        )
    cdef Py_ssize_t K = ic * kh * kw
    cdef Py_ssize_t strip = _strip_rows(oh, K, ow)
    cdef Py_ssize_t buf_l = strip * ow
    cdef cnp.ndarray[float, ndim=4, mode="c"] gx = np.zeros((n, ic, h, iw), dtype=np.float32)
    cdef cnp.ndarray[float, ndim=4, mode="c"] gw = np.zeros((oc, ic, kh, kw), dtype=np.float32)
    cdef cnp.ndarray[float, ndim=2, mode="c"] cols = np.empty((K, buf_l), dtype=np.float32)
    cdef cnp.ndarray[float, ndim=2, mode="c"] gcols = np.empty((K, buf_l), dtype=np.float32)
    cdef float* xp = <float*> xa.data
    cdef float* wp = <float*> wa.data
    cdef float* gp = <float*> ga.data
    cdef float* gxp = <float*> gx.data
    cdef float* gwp = <float*> gw.data
    cdef float* cp = <float*> cols.data
    cdef float* gcp = <float*> gcols.data
    cdef Py_ssize_t i, r0, rows
    cdef int m_i, n_i, k_i, lda, ldb, ldc
    cdef float one = 1.0, zero = 0.0
    cdef Py_ssize_t x_stride = ic * h * iw, o_stride = oc * oh * ow
    with nogil:
        for i in range(n):
            r0 = 0
            while r0 < oh:
                rows = oh - r0
                if rows > strip:
                    rows = strip
                _gather(xp + i * x_stride, ic, h, iw, cp, buf_l,
                        kh, kw, st, pd, r0, rows, ow)
                # grad_w^T (K x oc) += cols_sub (K x L) . go_block^T (L x oc)
                m_i = <int> K
                n_i = <int> oc
                k_i = <int> (rows * ow)
                lda = <int> buf_l
                ldb = <int> (oh * ow)
                ldc = <int> K
                sgemm("T", "N", &m_i, &n_i, &k_i, &one, cp, &lda,
                      gp + i * o_stride + r0 * ow, &ldb, &one, gwp, &ldc)
                # gcols^T (L x K) = go_block^T (L x oc) . w_mat (oc x K)
                m_i = <int> (rows * ow)
                n_i = <int> K
                k_i = <int> oc
                lda = <int> (oh * ow)
                ldb = <int> K
                ldc = <int> buf_l
                sgemm("N", "T", &m_i, &n_i, &k_i, &one,
                      gp + i * o_stride + r0 * ow, &lda, wp, &ldb,
                      &zero, gcp, &ldc)
                _scatter(gxp + i * x_stride, ic, h, iw, gcp, buf_l,
                         kh, kw, st, pd, r0, rows, ow)
                r0 += strip
    grad_b = np.asarray(ga).sum(axis=(0, 2, 3))
    return gx, gw, grad_b
