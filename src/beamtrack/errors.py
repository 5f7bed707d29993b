"""Exception types raised by the beamtrack library.

All beamtrack errors derive from :class:`BeamtrackError`, which itself is a
``ValueError`` so that generic callers can catch invalid-input failures
without importing this module.
"""


class BeamtrackError(ValueError):
    """Base class for all beamtrack errors."""


# --- linear algebra kernels ---

class DimensionMismatch(BeamtrackError):
    """Operands have incompatible shapes."""


class NotSymmetric(BeamtrackError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class IndefiniteMatrix(BeamtrackError):
    """A matrix required to be positive semi-definite has a negative eigenvalue."""


class SingularB(BeamtrackError):
    """The right-hand matrix of a symmetric-definite pencil is not positive definite."""


class ZeroMatrix(BeamtrackError):
    """A matrix required to be nonzero is identically zero."""


# --- channel geometry ---

class SingularAngle(BeamtrackError):
    """Angle too close to +/- pi/2 for the virtual-position projection."""


# --- dynamics ---

class NonpositiveStep(BeamtrackError):
    """Time step must be strictly positive."""


# --- sounding ---

class NotUnitNorm(BeamtrackError):
    """Beam columns deviate too far from unit 2-norm."""


class EmptyBeamSet(BeamtrackError):
    """A beam matrix has no columns."""


class NonpositiveSnr(BeamtrackError):
    """Linear SNR must be strictly positive."""


# --- tracker ---

class IndefiniteCovariance(BeamtrackError):
    """A covariance matrix is too indefinite to generate sigma points from."""


class BadScaling(BeamtrackError):
    """Invalid sigma scaling or partial-step count.

    The scaling gives n + lambda <= 0 or beta < 0, a sigma set is not the
    update's own, or the update's partial steps have no finite noise
    variances.
    """


# --- beam design ---

class BadBeamCount(BeamtrackError):
    """Requested number of beams is invalid for the baseline kind."""


# --- simulator / CLI ---

class ZeroChannel(BeamtrackError):
    """The true channel matrix is identically zero."""


class BadConfig(BeamtrackError):
    """A scenario or CLI configuration value is invalid."""


class EmptyInput(BeamtrackError):
    """An aggregation was requested over an empty collection."""
