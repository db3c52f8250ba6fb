"""Central numeric tolerance configuration."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance constants used across validation and phase computations.

    hermiticity is relative to max(1, ||.||_F); the rest are absolute.
    """

    hermiticity: float = 1e-10
    unit_trace: float = 1e-10
    psd: float = 1e-12            # eigenvalues >= -psd accepted
    support: float = 1e-14        # sets the state's support (Problem)
    weight: float = 1e-10         # component weights at or below this get sentinel reports
    overlap: float = 1e-12        # phase undefined when overlap magnitude <= this
    degeneracy_gap: float = 1e-9


DEFAULT_TOL = Tolerances()
