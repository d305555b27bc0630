"""Exception types raised by the library."""


class PTWalkError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(PTWalkError):
    """Input array has the wrong shape for the requested operation."""


class DegeneratePairing(PTWalkError):
    """Eigenvalue clusters too close to pair left/right eigenvectors unambiguously."""


class NotPositive(PTWalkError):
    """Matrix expected to be positive semidefinite has a significantly negative eigenvalue."""


class NoBreaking(PTWalkError):
    """The coin angles admit no symmetry-breaking threshold (acosh argument < 1)."""


class BrokenRegime(PTWalkError):
    """Walk parameters lie at or beyond the exceptional point; real-spectrum machinery refused."""


class LightConeViolation(PTWalkError):
    """Lattice too small to contain the walk light cone for the requested horizon."""


class SpectrumNotReal(PTWalkError):
    """Hamiltonian spectrum has a non-negligible imaginary part; no metric exists."""


class ConfigInvalid(PTWalkError):
    """Experiment configuration failed validation.

    Carries a list of (field, message) pairs in ``errors``.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"{field}: {msg}" for field, msg in self.errors)
        super().__init__(f"invalid configuration: {lines}")


class MissingArtifacts(PTWalkError):
    """Result directory does not contain the expected artifacts."""
