"""Geometry and channel synthesis for multipath MIMO links on uniform linear arrays.

The channel is parameterized by a flat real state vector holding, per
propagation path, a complex gain plus virtual position/velocity pairs for
the transmit and receive sides, placed by :class:`StateLayout`.  A path's
*virtual position* is its angle projected onto an imaginary plane one unit
from the array (``upsilon = tan(theta)``), which makes constant angular
motion linear in the state.  All functions here are pure.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import BadConfig, BeamtrackError, DimensionMismatch, SingularAngle

__all__ = [
    "ArrayGeometry",
    "StateLayout",
    "ChannelState",
    "virtual_to_spatial",
    "angle_to_virtual",
    "steering_vector",
    "steering_factors",
    "channel_matrix",
    "real_channel_vector",
    "real_channel_vectors",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """A uniform linear array: antenna count and spacing as a fraction of wavelength."""

    num_antennas: int
    d_over_lambda: float = 0.5

    def __post_init__(self):
        if self.num_antennas < 1:
            raise BadConfig(f"need at least one antenna, got {self.num_antennas}")
        if not self.d_over_lambda > 0:
            raise BadConfig(f"d_over_lambda must be positive, got {self.d_over_lambda}")


@dataclass(frozen=True)
class StateLayout:
    """Where each field of an L-path state sits; the one owner of the state layout.

    The state is a real vector of length ``size = 6L``, ``[gains (2L) |
    transmit side (2L) | receive side (2L)]``, interleaving (Re, Im) per path
    in the gain block and (position, velocity) per path on each side.  Every
    other attribute is a slice of one state, or of the last axis of a stack
    as ``X[..., s]``; ``positions`` and ``velocities`` span both sides.
    """

    size: int
    gain: slice
    gain_re: slice
    gain_im: slice
    tx_pos: slice
    tx_vel: slice
    rx_pos: slice
    rx_vel: slice
    positions: slice
    velocities: slice

    @staticmethod
    @cache
    def of(L: int) -> "StateLayout":
        """The layout for L paths, built once per L."""
        tx, rx, end = 2 * L, 4 * L, 6 * L
        return StateLayout(
            size=end,
            gain=slice(0, tx), gain_re=slice(0, tx, 2), gain_im=slice(1, tx, 2),
            tx_pos=slice(tx, rx, 2), tx_vel=slice(tx + 1, rx, 2),
            rx_pos=slice(rx, end, 2), rx_vel=slice(rx + 1, end, 2),
            positions=slice(tx, end, 2), velocities=slice(tx + 1, end, 2),
        )


@dataclass
class ChannelState:
    """Flat real state vector parameterizing an L-path channel.

    Attributes:
        L: number of propagation paths.
        x: real vector laid out as ``StateLayout.of(L)`` says.
    """

    L: int
    x: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        size = StateLayout.of(self.L).size
        if self.x.shape != (size,):
            raise DimensionMismatch(
                f"state for L={self.L} must have length {size}, got {self.x.shape}"
            )
        if not np.all(np.isfinite(self.x)):
            raise BeamtrackError("state vector contains non-finite entries")

    @classmethod
    def from_parts(cls, gains, tx_pos, tx_vel, rx_pos, rx_vel) -> "ChannelState":
        """Assemble a state from per-path components.

        ``gains`` is complex of length L; the four remaining arguments are
        real of length L.
        """
        gains = np.asarray(gains, dtype=complex)
        L = gains.shape[0]
        parts = [np.asarray(p, dtype=float) for p in (tx_pos, tx_vel, rx_pos, rx_vel)]
        if any(p.shape != (L,) for p in parts):
            raise DimensionMismatch("all per-path components must have length L")
        lay = StateLayout.of(L)
        x = np.empty(lay.size)
        x[lay.gain_re] = gains.real
        x[lay.gain_im] = gains.imag
        for where, part in zip((lay.tx_pos, lay.tx_vel, lay.rx_pos, lay.rx_vel), parts):
            x[where] = part
        return cls(L, x)

    @property
    def gains(self) -> np.ndarray:
        lay = StateLayout.of(self.L)
        return self.x[lay.gain_re] + 1j * self.x[lay.gain_im]

    tx_positions = property(lambda self: self.x[StateLayout.of(self.L).tx_pos])
    tx_velocities = property(lambda self: self.x[StateLayout.of(self.L).tx_vel])
    rx_positions = property(lambda self: self.x[StateLayout.of(self.L).rx_pos])
    rx_velocities = property(lambda self: self.x[StateLayout.of(self.L).rx_vel])


def virtual_to_spatial(upsilon, geom: ArrayGeometry):
    """Normalized spatial angle for a virtual position.

    ``nu = (d/lambda) * upsilon / sqrt(1 + upsilon^2)``, the composition of
    ``theta = arctan(upsilon)`` with ``nu = (d/lambda) sin(theta)``.  Odd and
    strictly increasing in ``upsilon``, saturating at ``+/- d/lambda``.
    Accepts scalars or arrays.
    """
    nu = _spatial_angle(np.asarray(upsilon, dtype=float), geom.d_over_lambda)
    return nu if nu.ndim else float(nu)


def _spatial_angle(upsilon: np.ndarray, d_over_lambda) -> np.ndarray:
    """:func:`virtual_to_spatial` at a spacing that broadcasts against ``upsilon``."""
    return d_over_lambda * upsilon / np.sqrt(1.0 + upsilon * upsilon)


def angle_to_virtual(theta: float) -> float:
    """Virtual position ``tan(theta)`` of a path at angle ``theta`` (radians).

    Raises:
        SingularAngle: ``theta`` within 1e-9 of an odd multiple of pi/2.
    """
    if abs(abs(theta) % np.pi - np.pi / 2) < 1e-9:
        raise SingularAngle(f"theta={theta} too close to an odd multiple of pi/2")
    return float(np.tan(theta))


def steering_vector(nu: float, M: int) -> np.ndarray:
    """ULA steering vector ``[exp(-2j pi m nu)]`` for m = 1..M."""
    m = np.arange(1, M + 1)
    return np.exp(-2j * np.pi * m * nu)


def steering_factors(
    X: np.ndarray, L: int, tx: ArrayGeometry, rx: ArrayGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Path gains and steering matrices for each row of a (P, 6L) state matrix.

    Returns ``(gains, a_t, a_r)`` of shapes (P, L), (P, M_T, L) and
    (P, M_R, L).  Row p's channel is ``a_r[p] @ diag(gains[p]) @ a_t[p]^H``,
    a rank-L factorization that callers can work with directly instead of
    forming the M_R x M_T matrix.  Both sides' 2L columns come from one
    :func:`_steering_columns` stack over max(M_T, M_R) antennas, so a_t and
    a_r are views into it with the antenna axis outermost in memory.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lay = StateLayout.of(L)
    if X.shape[1] != lay.size:
        raise DimensionMismatch(f"state rows must have length {lay.size}, got {X.shape[1]}")
    gains = X[:, lay.gain_re] + 1j * X[:, lay.gain_im]
    spacing = np.array((tx.d_over_lambda,) * L + (rx.d_over_lambda,) * L)
    M_T, M_R = tx.num_antennas, rx.num_antennas
    a = _steering_columns(_spatial_angle(X[:, lay.positions], spacing), max(M_T, M_R))
    return gains, a[:M_T, :, :L].transpose(1, 0, 2), a[:M_R, :, L:].transpose(1, 0, 2)


def _steering_columns(nu: np.ndarray, M: int) -> np.ndarray:
    """Steering vectors of (P, K) spatial angles as an (M, P, K) stack.

    Entry m is ``w**m`` with ``w = exp(-2j pi nu)``: one complex exp for all
    K columns, then one running product along the leading antenna axis,
    ``a[m] = a[m-1] * w``.  Each factor adds one rounding, so entry m is
    within about m ulps of ``exp(-2j pi m nu)``.  Every product is
    elementwise, so a column's values do not depend on the other columns
    or rows beside it, and a shorter array is a prefix of a longer one.
    """
    a = np.empty((M,) + nu.shape, dtype=complex)
    np.exp(-2j * np.pi * nu, out=a[0])
    for m in range(1, M):
        np.multiply(a[m - 1], a[0], out=a[m])
    return a


def channel_matrix(state: ChannelState, tx: ArrayGeometry, rx: ArrayGeometry) -> np.ndarray:
    """Complex M_R x M_T channel: sum over paths of gain * a_R(nu_R) a_T(nu_T)^H."""
    gains, a_t, a_r = steering_factors(state.x, state.L, tx, rx)
    return (a_r[0] * gains[0]) @ a_t[0].conj().T


def real_channel_vector(state: ChannelState, tx: ArrayGeometry, rx: ArrayGeometry) -> np.ndarray:
    """Stacked real channel ``[Re vec(H); Im vec(H)]`` (column-major vec)."""
    return real_channel_vectors(state.x[None, :], state.L, tx, rx)[0]


def real_channel_vectors(
    X: np.ndarray, L: int, tx: ArrayGeometry, rx: ArrayGeometry
) -> np.ndarray:
    """Batched :func:`real_channel_vector` over rows of a (P, 6L) state matrix.

    Used on sigma-point sets; one vectorized evaluation instead of P scalar
    calls.
    """
    gains, a_t, a_r = steering_factors(X, L, tx, rx)
    # H_p^T = conj(a_T) (diag(g) a_R^T) is M_T x M_R, so its row-major
    # flattening is the column-major vec of H_p.
    H_t = a_t.conj() @ np.swapaxes(a_r * gains[:, None, :], 1, 2)
    hv = H_t.reshape(H_t.shape[0], -1)
    return np.concatenate([hv.real, hv.imag], axis=1)
