"""Construction shortcuts shared by the test modules."""

import numpy as np

from cpdkernels import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    IndexSet,
    Kernel,
    Verdict,
    Witness,
    adjoint,
    op_norm,
)


def single_block(matrix) -> AlgebraElement:
    """Element of a one-summand matrix algebra from a plain square array."""
    b = np.atleast_2d(np.asarray(matrix, dtype=np.complex128))
    return AlgebraElement(AlgebraDescriptor([b.shape[0]]), [b])


def two_summands(a, b) -> AlgebraElement:
    """Element of a two-summand algebra from two plain square arrays."""
    a = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    b = np.atleast_2d(np.asarray(b, dtype=np.complex128))
    return AlgebraElement(AlgebraDescriptor([a.shape[0], b.shape[0]]), [a, b])


def block_kernel(tables, labels) -> Kernel:
    """Kernel over a one-summand algebra from an n x n nested list of square
    arrays (one array per entry)."""
    values = [[single_block(v) for v in row] for row in tables]
    return Kernel(IndexSet(labels), values[0][0].descriptor, values)


KERNEL_DESCRIPTORS = ([1], [2], [3], [1, 1], [2, 1], [3, 2], [2, 2, 1], [4], [1, 2, 3])


def reference_kernel_norm(K) -> float:
    """Largest entry C*-norm, one 2-norm per entry block."""
    return max(op_norm(v) for row in K.values for v in row)


def reference_is_hermitian(K, tol=DEFAULT_TOL) -> bool:
    """The per-entry hermiticity loop: one 2-norm per pair ``i <= j``."""
    scale = max(1.0, reference_kernel_norm(K))
    for i in range(K.n):
        for j in range(i, K.n):
            diff = K.values[i][j] - adjoint(K.values[j][i])
            if op_norm(diff) > tol.tol_rel * scale:
                return False
    return True


def difference_basis(n: int, d: int) -> np.ndarray:
    """Columns ``(e_i - e_n) (x) I_d``, ``i < n``: a basis of the zero-sum
    coefficient tuples."""
    T = np.zeros((n * d, (n - 1) * d))
    for i in range(n - 1):
        T[i * d : (i + 1) * d, i * d : (i + 1) * d] = np.eye(d)
        T[(n - 1) * d :, i * d : (i + 1) * d] = -np.eye(d)
    return T


def eigh_verdict(mats, tol=DEFAULT_TOL) -> Verdict:
    """PSD verdict from full eigendecompositions only: the worst relative
    margin over the summands, with that summand's bottom eigenpair."""
    worst = None
    for k, mat in enumerate(mats):
        w, u = np.linalg.eigh(0.5 * (mat + mat.conj().T))
        margin = w[0] / max(1.0, float(np.max(np.abs(w))))
        if worst is None or margin < worst[0]:
            worst = (margin, k, float(w[0]), u[:, 0].copy())
    if worst[0] < -tol.tol_rel:
        return Verdict(False, Witness(*worst[1:]))
    return Verdict(True)
