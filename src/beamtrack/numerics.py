"""Dense linear-algebra kernels used throughout beamtrack.

Conventions fixed here and relied on everywhere else:

* matrices are numpy arrays, C-contiguous, indexed ``[row, col]``;
* ``vec`` is **column-major** (Fortran order), so the identity
  ``vec(A X B) = (B^T kron A) vec(X)`` holds with ``numpy.kron``;
* a complex matrix ``G`` maps to the real stacked block matrix
  ``[[Re G, -Im G], [Im G, Re G]]`` acting on ``[Re h; Im h]`` vectors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    NotSymmetric,
    SingularB,
    ZeroMatrix,
)

__all__ = [
    "KroneckerFactorDims",
    "vec",
    "unvec",
    "matrix_sqrt_psd",
    "generalized_eig_sym",
    "kron_rearrange",
    "rank_one_factor",
    "complex_to_real_stacked",
]


@dataclass(frozen=True)
class KroneckerFactorDims:
    """Shapes of the two factors of a Kronecker product ``B kron C``.

    ``B`` is m1 x n1 (left factor), ``C`` is m2 x n2 (right factor), so the
    product is (m1*m2) x (n1*n2).
    """

    m1: int
    n1: int
    m2: int
    n2: int

    def __post_init__(self):
        if min(self.m1, self.n1, self.m2, self.n2) < 1:
            raise DimensionMismatch(f"factor dims must be positive, got {self}")

    @property
    def product_shape(self) -> tuple[int, int]:
        return (self.m1 * self.m2, self.n1 * self.n2)


def vec(A: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a matrix."""
    return np.asarray(A).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a vector to rows x cols, column-major."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise DimensionMismatch(f"cannot unvec length {v.size} to {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def _check_square(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    return M


def _check_symmetric(M: np.ndarray, name: str, tol: float = 1e-10) -> np.ndarray:
    """Validate symmetry to ``tol`` (relative to entry magnitude) and return
    the symmetrized matrix."""
    M = _check_square(M, name)
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if asym > tol * scale:
        raise NotSymmetric(f"{name} asymmetry {asym:.3e} exceeds tolerance")
    return 0.5 * (M + M.T)


def matrix_sqrt_psd(R: np.ndarray) -> np.ndarray:
    """Square root ``S`` of a symmetric PSD matrix with ``S @ S.T == R``.

    Uses a (lower) Cholesky factor when ``R`` is numerically positive
    definite and falls back to a symmetric eigendecomposition otherwise,
    clamping round-off-negative eigenvalues to zero.  The fallback returns
    ``V @ diag(sqrt(w))``, which is a valid (non-triangular) square root.

    Raises:
        NotSymmetric: asymmetry beyond 1e-10 (relative).
        IndefiniteMatrix: an eigenvalue below -1e-12 * max(1, ||R||_F).
    """
    R = _check_symmetric(R, "R")
    if R.size == 0:
        return R.copy()
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(R)
    # Eigenvalues of a PSD matrix can come out slightly negative at the
    # scale of eps * ||R||; only fail on genuinely indefinite input.
    floor = -1e-12 * max(1.0, float(np.linalg.norm(R)))
    if w[0] < floor:
        raise IndefiniteMatrix(f"minimum eigenvalue {w[0]:.3e} below {floor:.3e}")
    return V * np.sqrt(np.clip(w, 0.0, None))


def generalized_eig_sym(
    A: np.ndarray, B: np.ndarray, n_top: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpairs of the symmetric-definite pencil ``A v = lambda B v``.

    Solved by Cholesky whitening: with ``B = L L^T``, the standard symmetric
    problem on ``L^-1 A L^-T`` is solved and eigenvectors are mapped back by
    ``L^-T``.  The back-transformed vectors are B-orthonormal; they are then
    rescaled to unit 2-norm on output.

    Args:
        A: symmetric PSD matrix.
        B: symmetric PD matrix of the same dimension.
        n_top: number of leading eigenpairs to return.

    Returns:
        ``(eigvals, eigvecs)`` with eigenvalues in descending order and
        eigenvectors in the matching columns, each of unit 2-norm.

    Raises:
        SingularB: ``B`` is not positive definite (min eigenvalue <= 1e-12,
            relative to its norm).
        DimensionMismatch: shapes disagree or ``n_top`` is out of range.
    """
    A = _check_symmetric(A, "A")
    B = _check_symmetric(B, "B")
    if A.shape != B.shape:
        raise DimensionMismatch(f"A {A.shape} and B {B.shape} differ")
    n = A.shape[0]
    if not 1 <= n_top <= n:
        raise DimensionMismatch(f"n_top={n_top} out of range for dimension {n}")
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise SingularB("B is not positive definite") from None
    # Guard against a technically-factorable but numerically singular B.
    diag = np.diag(L)
    if diag.min() ** 2 <= 1e-12 * max(1.0, diag.max() ** 2):
        raise SingularB("B is numerically singular")
    # C = L^-1 A L^-T, kept explicitly symmetric.
    C = np.linalg.solve(L, A)
    C = np.linalg.solve(L, C.T)
    C = 0.5 * (C + C.T)
    w, U = np.linalg.eigh(C)
    order = np.argsort(w)[::-1][:n_top]
    w = w[order]
    V = np.linalg.solve(L.T, U[:, order])
    V = V / np.linalg.norm(V, axis=0)
    return w, V


def kron_rearrange(V: np.ndarray, dims) -> np.ndarray:
    """Rearrange ``V`` so Kronecker structure becomes an outer product.

    For ``V`` of shape (m1*m2) x (n1*n2) viewed as an m1 x n1 grid of
    m2 x n2 blocks, row ``i + m1*j`` of the result is the vectorized
    (column-major) block ``(i, j)``.  This is the rearrangement for which

        ``||V - B kron C||_F == ||R - vec(B) vec(C)^T||_F``

    holds for every B (m1 x n1) and C (m2 x n2), turning nearest-Kronecker
    approximation into nearest-rank-one approximation.  It is a permutation
    of entries, hence a linear bijection; the inverse is
    ``kron_rearrange(R.T, (n2, n1, m2, m1)).T``.
    """
    if not isinstance(dims, KroneckerFactorDims):
        dims = KroneckerFactorDims(*dims)
    V = np.asarray(V)
    if V.shape != dims.product_shape:
        raise DimensionMismatch(
            f"V has shape {V.shape}, expected {dims.product_shape} for {dims}"
        )
    m1, n1, m2, n2 = dims.m1, dims.n1, dims.m2, dims.n2
    T = V.reshape(m1, m2, n1, n2)
    # rows ordered (i + m1*j), cols ordered (p + m2*q)
    return T.transpose(2, 0, 3, 1).reshape(m1 * n1, m2 * n2)


def rank_one_factor(R: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Best rank-one factorization ``R ~ s * u @ v.conj().T``.

    Returns the dominant singular triplet ``(u, s, v)`` with ``u`` and ``v``
    of unit 2-norm and ``s = sigma_1(R)``, so ``s * outer(u, conj(v))`` is the
    Frobenius-nearest rank-one matrix to ``R``.

    A tall ``R`` is factored as ``R^H``, with the factors swapped, so ``u``
    is the top eigenvector of the smaller Gram matrix ``A = R R^H``; one
    product with ``R^H`` gives ``s`` and ``v``.  That eigenvector comes from
    Lanczos on ``A``, applied as ``R (R^H x)``: ``A`` is never formed, and
    no eigensolver or factorization touches a matrix of its size, only the
    k x k Lanczos tridiagonal.  Every new Lanczos vector is orthogonalized
    against all earlier ones after the three-term recurrence (full
    reorthogonalization).  The iteration starts from ``R r_j^H``,
    the column of ``A`` with the largest diagonal entry (``r_j`` is the
    longest row of ``R``).  Every second step it takes the top Ritz pair
    ``(theta, y)`` from ``eigh`` of the tridiagonal, and it stops once the
    pair's residual ``||A y - theta y||`` is at most ``1e-14 theta``.  After
    24 vectors it restarts from the Ritz vector.  On the 150 beam designs of
    three default runs (96-square inputs with ``sigma_2 / sigma_1`` from
    0.75 to 0.992, median 0.93) that took 16 to 26 steps, one restart among
    them, and the vector matched a dense ``eigh`` of ``A`` to 1e-14.  If the Krylov space becomes
    invariant first (exact rank one, for instance), the part of ``R``
    outside it is searched the same way whenever its energy could hold a
    larger eigenvalue, so the pair is the top one even when the start has no
    component along it.

    No call wakes a second BLAS thread.  OpenBLAS 0.3.31 runs a complex
    gemv on a second thread once ``m n`` reaches 4096 (64 x 64 and 43 x 96
    do, 63 x 64 and 42 x 96 do not), so ``R @ x`` on a 96-square
    rearrangement (``m n = 9216``) in one call would wake that thread, and
    the thread then spins until the next sounding, doubling an in-process
    run's CPU time.  Every product with ``R`` is therefore a gemv per block
    of rows below that size (``_product``: three blocks of at most 42 rows
    at 96 columns), and the products with the Lanczos basis, at most
    24 x 96 = 2304 entries, are single gemv calls.  ``eigh`` of a
    tridiagonal wakes the thread from 26 x 26 on, hence the restart.  So the
    fit runs on the calling thread and gives the same bits at any BLAS
    thread count.

    Squaring ``R`` squares its condition, so when ``sigma_1 / sigma_2`` is
    close to one the vectors may mix the top two singular pairs.  The fit
    ``s u v^H = u u^H R`` is the projection of ``R`` onto ``u``, so such a
    mix costs at most ``sigma_1^2 - sigma_2^2`` in squared Frobenius error.

    Raises:
        ZeroMatrix: ``R`` has no nonzero entry.
    """
    R = np.asarray(R)
    if R.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {R.shape}")
    if not np.any(R):
        raise ZeroMatrix("cannot factor the zero matrix")
    if R.shape[0] > R.shape[1]:
        v, s, u = rank_one_factor(R.conj().T)
        return u, s, v
    R = np.ascontiguousarray(R, dtype=np.result_type(R, 1.0))
    Rh = np.ascontiguousarray(R.conj().T)
    u = _top_gram_vector(R, Rh)[0]
    sv = _product(Rh, u)
    s = float(np.linalg.norm(sv))
    return u, s, sv / s


# Lanczos stops once the top Ritz pair's residual is this small relative to
# its Ritz value.
_LANCZOS_RTOL = 1e-14
# Most Lanczos vectors kept at once.  numpy's eigh (LAPACK syevd) of the
# tridiagonal wakes a second OpenBLAS thread from 26 x 26 on (OpenBLAS 0.3.31;
# 25 x 25 does not), so the iteration restarts from its Ritz vector here.
_LANCZOS_BASIS = 24


# Most entries of one gemv: OpenBLAS 0.3.31 hands a complex gemv to a second
# thread from m n = 4096 on.
_GEMV_ENTRIES = 4095


def _product(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M @ x`` as gemv over row blocks of fewer than 4096 entries.

    No block is large enough for OpenBLAS to wake a second thread for it.
    """
    rows = max(1, _GEMV_ENTRIES // M.shape[1])
    if M.shape[0] <= rows:
        return M @ x
    return np.concatenate([M[i : i + rows] @ x for i in range(0, M.shape[0], rows)])


def _top_gram_vector(R: np.ndarray, Rh: np.ndarray) -> tuple[np.ndarray, float]:
    """Top eigenpair ``(y, theta)`` of ``A = R R^H`` for nonzero ``R``, by Lanczos.

    ``Rh`` is ``R^H``, C-contiguous.  The basis lives in the rows of ``Q``
    and ``A``'s projection onto it in the tridiagonal ``T``.  Step k applies
    ``A`` to basis vector k, records the Rayleigh quotient, takes off the
    three-term recurrence's components along vectors k and k - 1, and then
    orthogonalizes what is left against the whole basis; its norm ``b``
    couples the next vector.  With ``(theta, y)`` the top eigenpair of
    ``T``, ``b |y_k|`` is the residual norm of the Ritz vector ``Q^T y``.
    A full basis of ``_LANCZOS_BASIS`` vectors restarts from that
    Ritz vector.  An unrestarted iteration ends within ``m`` steps; after
    ``4 m`` steps only top pairs too close to separate can be left, and the
    current Ritz pair is returned.

    When ``b`` itself is at round-off, relative to the largest Rayleigh
    quotient (a lower bound on ``theta``), ``span(Q)`` is invariant under
    ``A``.  The rest of ``R``, ``(I - Q^T Q^*) R``, then carries every other
    eigenvalue, none larger than its squared Frobenius norm, and it is
    searched only if that norm exceeds ``theta``.
    """
    m = R.shape[0]
    size = min(m, _LANCZOS_BASIS)
    Q = np.empty((size, m), dtype=R.dtype)
    T = np.zeros((size, size))
    row_energy = np.einsum("ij,ij->i", R, R.conj()).real
    q = _product(R, Rh[:, np.argmax(row_energy)])
    k = 0
    steps = 4 * m
    for step in range(steps):
        Q[k] = q / np.sqrt(np.vdot(q, q).real)
        w = _product(R, _product(Rh, Q[k]))
        T[k, k] = np.vdot(Q[k], w).real
        w = w - T[k, k] * Q[k]
        if k:
            w = w - T[k, k - 1] * Q[k - 1]
        along = Q[: k + 1].conj() @ w
        w = w - along @ Q[: k + 1]
        b = float(np.sqrt(np.vdot(w, w).real))
        invariant = b <= _LANCZOS_RTOL * T.diagonal().max() or k + 1 == m
        full = k + 1 == size
        last = step + 1 == steps
        if invariant or full or last or k % 2:
            ritz, Y = np.linalg.eigh(T[: k + 1, : k + 1])
            theta, y = float(ritz[-1]), Y[:, -1]
            if invariant or last or b * abs(y[-1]) <= _LANCZOS_RTOL * theta:
                break
        if full:
            q = y @ Q
            T[:] = 0.0
            k = 0
        else:
            T[k, k + 1] = T[k + 1, k] = b
            q = w
            k += 1
    basis = Q[: k + 1]
    u = y @ basis
    u = u / np.sqrt(np.vdot(u, u).real)
    if invariant:
        along = np.einsum("ki,ij->kj", basis.conj(), R)
        rest = R - np.einsum("ki,kj->ij", basis, along)
        if np.einsum("ij,ij->", rest, rest.conj()).real > theta:
            other = _top_gram_vector(rest, np.ascontiguousarray(rest.conj().T))
            if other[1] > theta:
                return other
    return u, theta


def complex_to_real_stacked(G: np.ndarray) -> np.ndarray:
    """Real 2r x 2c representation of a complex r x c matrix.

    ``[[Re G, -Im G], [Im G, Re G]]`` acting on stacked ``[Re h; Im h]``
    vectors reproduces the complex product ``G @ h`` in stacked form.  On
    square matrices the map is a ring homomorphism.
    """
    G = np.asarray(G)
    if G.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {G.shape}")
    Re, Im = G.real, G.imag
    return np.block([[Re, -Im], [Im, Re]])
