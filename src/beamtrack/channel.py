"""Geometry and channel synthesis for multipath MIMO links on uniform linear arrays.

The channel is parameterized by a flat real state vector holding, per
propagation path, a complex gain plus virtual position/velocity pairs for
the transmit and receive sides.  A path's *virtual position* is its angle
projected onto an imaginary plane one unit from the array (``upsilon =
tan(theta)``), which makes constant angular motion linear in the state.
All functions here are pure.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadConfig, BeamtrackError, DimensionMismatch, SingularAngle

__all__ = [
    "ArrayGeometry",
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


# State vector layout, for L paths (length 6L):
#   [gain block (2L) | transmit block (2L) | receive block (2L)]
# gain block interleaves (Re gain_l, Im gain_l) per path; each side block
# interleaves (position_l, velocity_l) per path.
@dataclass
class ChannelState:
    """Flat real state vector parameterizing an L-path channel.

    Attributes:
        L: number of propagation paths.
        x: real vector of length 6L in the layout documented above.
    """

    L: int
    x: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.shape != (6 * self.L,):
            raise DimensionMismatch(
                f"state for L={self.L} must have length {6 * self.L}, got {self.x.shape}"
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
        x = np.empty(6 * L)
        x[0 : 2 * L : 2] = gains.real
        x[1 : 2 * L : 2] = gains.imag
        x[2 * L : 4 * L : 2] = parts[0]
        x[2 * L + 1 : 4 * L : 2] = parts[1]
        x[4 * L : 6 * L : 2] = parts[2]
        x[4 * L + 1 : 6 * L : 2] = parts[3]
        return cls(L, x)

    @property
    def gains(self) -> np.ndarray:
        return self.x[0 : 2 * self.L : 2] + 1j * self.x[1 : 2 * self.L : 2]

    @property
    def tx_positions(self) -> np.ndarray:
        return self.x[2 * self.L : 4 * self.L : 2]

    @property
    def tx_velocities(self) -> np.ndarray:
        return self.x[2 * self.L + 1 : 4 * self.L : 2]

    @property
    def rx_positions(self) -> np.ndarray:
        return self.x[4 * self.L : 6 * self.L : 2]

    @property
    def rx_velocities(self) -> np.ndarray:
        return self.x[4 * self.L + 1 : 6 * self.L : 2]


def virtual_to_spatial(upsilon, geom: ArrayGeometry):
    """Normalized spatial angle for a virtual position.

    ``nu = (d/lambda) * upsilon / sqrt(1 + upsilon^2)``, the composition of
    ``theta = arctan(upsilon)`` with ``nu = (d/lambda) sin(theta)``.  Odd and
    strictly increasing in ``upsilon``, saturating at ``+/- d/lambda``.
    Accepts scalars or arrays.
    """
    upsilon = np.asarray(upsilon, dtype=float)
    nu = geom.d_over_lambda * upsilon / np.sqrt(1.0 + upsilon * upsilon)
    return nu if nu.ndim else float(nu)


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
    forming the M_R x M_T matrix.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != 6 * L:
        raise DimensionMismatch(f"state rows must have length {6 * L}, got {X.shape[1]}")
    gains = X[:, 0 : 2 * L : 2] + 1j * X[:, 1 : 2 * L : 2]
    a_t = _steering_columns(virtual_to_spatial(X[:, 2 * L : 4 * L : 2], tx), tx.num_antennas)
    a_r = _steering_columns(virtual_to_spatial(X[:, 4 * L : 6 * L : 2], rx), rx.num_antennas)
    return gains, a_t, a_r


def _steering_columns(nu: np.ndarray, M: int) -> np.ndarray:
    """Steering vectors of (P, L) spatial angles as (P, M, L) columns.

    Entry m is ``w**m`` with ``w = exp(-2j pi nu)``: one complex exp per
    path, then a running product over the antennas.  Each factor adds one
    rounding, so entry m is within about m ulps of ``exp(-2j pi m nu)``.
    """
    w = np.exp(-2j * np.pi * nu)
    return np.cumprod(np.broadcast_to(w[:, None, :], (w.shape[0], M, w.shape[1])), axis=1)


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
    H = np.einsum("prl,pl,ptl->prt", a_r, gains, a_t.conj())  # (P, M_R, M_T)
    hv = H.transpose(0, 2, 1).reshape(H.shape[0], -1)  # column-major vec per row
    return np.concatenate([hv.real, hv.imag], axis=1)
