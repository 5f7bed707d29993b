"""Adaptive sounding-beam design from tracked channel statistics.

The next sounding should measure the channel along the directions that most
reduce weighted posterior uncertainty.  Unconstrained, those directions are
the top generalized eigenvectors of the pencil (A, B) built from the prior
sigma statistics; the physical transmit/receive factorization is then
recovered by rearranging the eigenvector matrix so Kronecker structure
becomes an outer product and taking its best rank-one approximation.  Only
the signal directions, those with eigenvalues above round-off, enter that
fit, so the beams are set by the model rather than by the arithmetic.  That
is the one path from the statistics to the beams: a beam that no signal
direction reaches takes its column of a deterministic DFT grid, so with no
signal at all every beam does.  The same grid serves as the non-adaptive
control arm.

``design_beams`` takes the prior's sigma moments as the tracker computed
them, factored (``tracker.ChannelStats``, which also gives the factors of
dense moments and of a state weighting), so this module draws no sigma
points of its own, and weights every state component equally.  The pencil
is solved in the factors' subspace with the update's own system
(``tracker.push_through_solve``), so nothing in channel space is factored.
Its U^T B^-1 U is the covariance reduction the update would make if it
measured the whole channel at the sounding's SNR; ``design_beams`` returns
it with the beams, and the closed loop sets the update's partial-step count
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ArrayGeometry
from .errors import (
    BadBeamCount,
    BadConfig,
    DimensionMismatch,
    NonpositiveSnr,
    SingularB,
)
from .numerics import KroneckerFactorDims, kron_rearrange, rank_one_factor, unvec
from .tracker import ChannelStats, push_through_solve

# Relative eigenvalue floor separating signal directions from round-off.
SIGNAL_RTOL = 1e-9


@dataclass(frozen=True)
class BeamDesignOutput:
    """Designed beams plus solver diagnostics.

    ``used_fallback`` says no direction carried signal, so every beam is its
    DFT grid column.  ``reduction`` is the pencil's U^T B^-1 U from
    ``design_beams`` (see ``unconstrained_optimal_directions``), empty
    otherwise.
    """

    F: np.ndarray
    Z: np.ndarray
    eigenvalues: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rank_one_residual: float = 0.0
    used_fallback: bool = False
    reduction: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))


def unconstrained_optimal_directions(
    stats: ChannelStats, rho: float, num_dirs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top observation directions ignoring the Kronecker/unit-norm structure.

    Returns the leading min(num_dirs, n) generalized eigenvectors of the
    pencil (A, B), with A = R_xh^T R_xh and B = Pi + (1/(2 rho)) I for the
    moments Pi = E^T E and R_xh = T^T E of ``stats``, as unit-norm columns
    together with their eigenvalues in descending order.  ``h_hat`` does not
    enter.

    A = U U^T with U = E^T T has rank at most the state dimension n, so
    every nonzero eigenpair comes from the n x n matrix
    U^T B^-1 U = Q diag(lam) Q^T as v = B^-1 U q, and no more than n
    directions are returned.  Each column's sign is fixed so that its
    largest-magnitude entry is positive.

    Both come from ``push_through_solve`` on the factors at noise
    c = 1/(2 rho): with Y = K^-1 T, B^-1 U = E^T Y and U^T B^-1 U =
    T^T E E^T Y.  U^T B^-1 U, n x n in the state space, is returned third:
    the covariance reduction an update would make if it measured the whole
    channel at SNR rho.

    Raises:
        DimensionMismatch: E and T disagree in their leading dimension k.
        NonpositiveSnr: ``rho <= 0``.
        BadBeamCount: ``num_dirs < 1``.
        SingularB: B is not positive definite.
    """
    E, T = stats.E, stats.T
    if E.ndim != 2 or T.ndim != 2 or T.shape[0] != E.shape[0]:
        raise DimensionMismatch(f"factor shapes E {E.shape}, T {T.shape} do not agree")
    if rho <= 0.0:
        raise NonpositiveSnr(f"snr must be positive, got {rho}")
    if num_dirs < 1:
        raise BadBeamCount(f"need at least one direction, got {num_dirs}")
    c = 1.0 / (2.0 * rho)
    Y, C = push_through_solve(stats, c, error=SingularB)
    w, Q = np.linalg.eigh((C + C.T) / 2.0)
    keep = min(num_dirs, w.shape[0])
    order = np.argsort(w)[::-1][:keep]
    V = E.T @ (Y @ Q[:, order])
    # V scales with 2 rho; an exact power-of-two rescale keeps the squares
    # summed by the norm from underflowing at a very low SNR.
    V = np.ldexp(V, -np.frexp(np.abs(V).max(axis=0))[1])
    norms = np.linalg.norm(V, axis=0)
    V = V / np.where(norms > 0.0, norms, 1.0)
    peak = np.abs(V).argmax(axis=0)
    return V * np.where(V[peak, np.arange(keep)] < 0.0, -1.0, 1.0), w[order], C


def signal_rank(eigvals: np.ndarray) -> int:
    """Number of directions whose eigenvalue is above round-off.

    Eigenvalues below SIGNAL_RTOL times the largest belong to directions the
    state cannot reach (velocities do not enter the channel, for instance);
    their eigenvectors are fixed by round-off, not by the model.
    """
    eigvals = np.asarray(eigvals, dtype=float)
    if eigvals.size == 0 or eigvals[0] <= 0.0:
        return 0
    return int(np.count_nonzero(eigvals > SIGNAL_RTOL * eigvals[0]))


def beams_from_directions(
    V_real: np.ndarray, eigvals: np.ndarray, dims: KroneckerFactorDims
) -> BeamDesignOutput:
    """Kronecker beams from the signal part of a stacked-real direction set.

    Column ``j * n2 + i`` of a direction matrix belongs to transmit beam j
    and receive beam i.  The signal directions, strongest first, are dealt
    into those slots along the wrapped diagonals of the n1 x n2 beam grid
    (see ``_slot_order``), so the strongest max(n1, n2) of them reach every
    beam on both sides.  Directions beyond the signal rank are not used.

    An occupied slot links its two beams.  Each connected group of beams
    takes the rank-one Kronecker fit of its own directions, with its empty
    slots as zero.  Groups share no beam, so their fits are independent; one
    fit over the whole grid would keep only the strongest group.  A beam that
    no signal direction reaches takes the DFT grid column (see
    ``_normalized_columns``), so at signal rank 0 every beam does and
    ``used_fallback`` is set.  The output carries ``eigvals`` as its
    eigenvalues, and its residual is the groups' energy-weighted relative
    rank-one residual.
    """
    rank = signal_rank(eigvals)
    slots = _slot_order(dims.n1, dims.n2)[:rank]
    V = real_directions_to_complex(np.asarray(V_real, dtype=float)[:, :rank])
    F = np.zeros((dims.m1, dims.n1), dtype=complex)
    Z = np.zeros((dims.m2, dims.n2), dtype=complex)
    energy = residual = 0.0
    for tx_beams, rx_beams in _beam_groups(slots, dims.n1, dims.n2):
        tx_pos = {b: a for a, b in enumerate(tx_beams)}
        rx_pos = {b: a for a, b in enumerate(rx_beams)}
        W = np.zeros((V.shape[0], len(tx_beams) * len(rx_beams)), dtype=complex)
        for k, c in enumerate(slots):
            j, i = divmod(int(c), dims.n2)
            if j in tx_pos:
                W[:, tx_pos[j] * len(rx_beams) + rx_pos[i]] = V[:, k]
        out = kronecker_beams(
            W, KroneckerFactorDims(dims.m1, len(tx_beams), dims.m2, len(rx_beams))
        )
        F[:, tx_beams] = out.F
        Z[:, rx_beams] = out.Z
        e = float(np.linalg.norm(W) ** 2)
        energy += e
        residual += e * out.rank_one_residual**2
    return BeamDesignOutput(
        F=_normalized_columns(F, dims.m1),
        Z=_normalized_columns(Z, dims.m2),
        eigenvalues=np.asarray(eigvals, dtype=float),
        rank_one_residual=float(np.sqrt(residual / energy)) if energy else 0.0,
        used_fallback=rank == 0,
    )


def _slot_order(n1: int, n2: int) -> np.ndarray:
    """Direction-matrix columns ordered by wrapped diagonal of the beam grid.

    Column c pairs transmit beam j = c // n2 with receive beam i = c % n2.
    Each wrapped diagonal of the n1 x n2 grid holds max(n1, n2) columns and
    touches every transmit and every receive beam; diagonals come in turn,
    and within one the longer side's beams come in order.
    """
    c = np.arange(n1 * n2)
    j, i = c // n2, c % n2
    if n1 >= n2:
        return c[np.lexsort((j, (i - j) % n2))]
    return c[np.lexsort((i, (j - i) % n1))]


def _beam_groups(slots: np.ndarray, n1: int, n2: int) -> list[tuple[list, list]]:
    """Connected groups of beams linked by occupied slots.

    Returns (transmit beams, receive beams) per group, each list ascending,
    groups ordered by their lowest-numbered beam (transmit before receive).
    """
    root = list(range(n1 + n2))  # transmit beam j is node j, receive beam i is n1 + i

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for c in slots:
        j, i = divmod(int(c), n2)
        root[find(j)] = find(n1 + i)
    used = sorted({int(c) // n2 for c in slots} | {n1 + int(c) % n2 for c in slots})
    groups: dict[int, list] = {}
    for node in used:
        groups.setdefault(find(node), []).append(node)
    return [
        ([b for b in g if b < n1], [b - n1 for b in g if b >= n1])
        for g in groups.values()
    ]


def real_directions_to_complex(V_real: np.ndarray) -> np.ndarray:
    """Interprets stacked-real direction columns as unit-norm complex beams."""
    V_real = np.asarray(V_real, dtype=float)
    if V_real.shape[0] % 2:
        raise DimensionMismatch(
            f"stacked-real directions need an even row count, got {V_real.shape[0]}"
        )
    half = V_real.shape[0] // 2
    V = V_real[:half] + 1j * V_real[half:]
    norms = np.linalg.norm(V, axis=0)
    return V / np.where(norms > 0.0, norms, 1.0)


def kronecker_beams(V: np.ndarray, dims: KroneckerFactorDims) -> BeamDesignOutput:
    """Projects complex directions onto a single (F conj) kron Z structure.

    Args:
        V: Complex matrix approximating conj(F) kron Z, with F of shape
            (dims.m1, dims.n1) and Z of shape (dims.m2, dims.n2).
        dims: Factor shapes used for the rearrangement.

    Returns:
        BeamDesignOutput with unit-norm beam columns and the relative
        rank-one residual of the rearranged matrix as a diagnostic.

    The fit is the top singular triplet of the rearrangement, from
    ``rank_one_factor``: Lanczos on the smaller Gram matrix, applied through
    products with the rearrangement and never formed, with every new vector
    orthogonalized against all earlier ones, a restart from the Ritz vector
    after 24 vectors, and a stop once the top Ritz pair's residual is below
    1e-14 of its Ritz value (16 to 26 steps at the default 96-square size).
    Its products are gemv calls of fewer than 4096 entries each: OpenBLAS
    puts a complex gemv with ``m n >= 4096`` on a second thread, the 96 x 96
    gemv ``R @ x`` (``m n = 9216``) among them, and that thread then spins
    until the next sounding, so ``R @ x`` runs over blocks of rows.  The
    restart keeps ``eigh`` of the Lanczos tridiagonal below 26 x 26, from
    which it too wakes the thread.  So beam design wakes no BLAS thread, and
    its result does not depend on the thread count.
    """
    V = np.asarray(V, dtype=complex)
    if V.shape != dims.product_shape:
        raise DimensionMismatch(
            f"directions have shape {V.shape}, expected {dims.product_shape}"
        )
    U = kron_rearrange(V, dims)
    u, s, v = rank_one_factor(U)
    residual = np.linalg.norm(U - s * np.outer(u, v.conj())) / np.linalg.norm(U)

    F = unvec(np.sqrt(s) * u, dims.m1, dims.n1).conj()
    Z = unvec(np.sqrt(s) * v.conj(), dims.m2, dims.n2)
    F = _normalized_columns(F, dims.m1)
    Z = _normalized_columns(Z, dims.m2)
    return BeamDesignOutput(F=F, Z=Z, rank_one_residual=float(residual))


def _normalized_columns(B: np.ndarray, M: int) -> np.ndarray:
    """Unit-normalizes columns, substituting DFT columns for degenerate ones."""
    norms = np.linalg.norm(B, axis=0)
    bad = norms <= 1e-12
    if np.any(bad):
        grid = baseline_beams("dft_grid", M, B.shape[1])
        B = B.copy()
        B[:, bad] = grid[:, bad]
        norms = np.linalg.norm(B, axis=0)
    return B / norms


def design_beams(
    stats: ChannelStats,
    tx: ArrayGeometry,
    rx: ArrayGeometry,
    rho: float,
    num_tx_beams: int,
    num_rx_beams: int,
) -> BeamDesignOutput:
    """Designs the next sounding beams from the prior's channel statistics.

    Args:
        stats: Sigma statistics of the predicted (pre-observation) state
            pushed through the stacked-real channel map; the measurement
            update reuses the same sigma points.
        tx: Transmit array geometry.
        rx: Receive array geometry.
        rho: Linear SNR of the upcoming sounding.
        num_tx_beams: Transmit beam count.
        num_rx_beams: Receive beam count.

    Returns:
        BeamDesignOutput of ``beams_from_directions`` on the pencil's
        directions, with every state component weighted equally.  Beams no
        signal direction reaches are DFT grid columns; when no direction
        carries signal, all are, and used_fallback is set.  Its
        ``reduction`` is the pencil's U^T B^-1 U, the covariance reduction
        of measuring the whole channel at rho, from the same solve as the
        directions; ``simulate.sound`` sets the update's step count from it.
    """
    if num_tx_beams < 1 or num_rx_beams < 1:
        raise BadBeamCount("need at least one beam per side")
    dims = KroneckerFactorDims(
        tx.num_antennas, num_tx_beams, rx.num_antennas, num_rx_beams
    )
    V_real, eigvals, reduction = unconstrained_optimal_directions(
        stats, rho, num_tx_beams * num_rx_beams
    )
    return replace(beams_from_directions(V_real, eigvals, dims), reduction=reduction)


def baseline_beams(
    kind: str, M: int, N: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Non-adaptive beam sets: unreached design beams and experiment controls.

    Args:
        kind: "dft_grid" for evenly spaced columns of the M-point unitary DFT
            matrix, or "random_unit" for normalized complex Gaussian columns.
        M: Antennas per beam.
        N: Beam count (N <= M for dft_grid).
        rng: Required for random_unit.

    Returns:
        M x N complex matrix with unit-norm columns.
    """
    if N < 1:
        raise BadBeamCount(f"need at least one beam, got {N}")
    if kind == "dft_grid":
        if N > M:
            raise BadBeamCount(f"dft_grid supports at most {M} beams, asked for {N}")
        cols = (np.arange(N) * M) // N
        m = np.arange(M)
        return np.exp(-2j * np.pi * np.outer(m, cols) / M) / np.sqrt(M)
    if kind == "random_unit":
        if rng is None:
            raise BadConfig("random_unit beams need an rng")
        B = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        return B / np.linalg.norm(B, axis=0)
    raise BadConfig(f"unknown baseline beam kind {kind!r}")
