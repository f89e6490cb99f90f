"""Exception taxonomy.

Every domain error raised by the toolkit derives from LcqftError so the CLI
can map failures to exit codes without string matching.
"""


class LcqftError(Exception):
    """Base class for all toolkit errors."""


# -- lattice category ---------------------------------------------------------

class DomainMismatch(LcqftError):
    """Morphisms are not composable (codomain of g != domain of f)."""


class IntervalWrapsWholeCircle(LcqftError):
    """A diamond base covering every site is a Cauchy surface, not a diamond."""


class MassCollision(LcqftError):
    """Two distinct masses produce lattice mode frequencies closer than 1e-9."""


# -- classical field -----------------------------------------------------------

class SpacetimeMismatch(LcqftError):
    """Operands live on different lattice spacetimes."""


class SupportViolation(LcqftError):
    """Test function or perturbation support leaves its allowed time window."""


# -- CCR algebra ---------------------------------------------------------------

class SpaceMismatch(LcqftError):
    """Algebra elements built over different solution spaces."""


class NotSymplectic(LcqftError):
    """A map fails to preserve the symplectic form within tolerance."""


class NotReal(LcqftError):
    """A map fails to commute with complex conjugation."""


class DegreeCapExceeded(LcqftError):
    """Element degree exceeds the configured evaluation cap."""


# -- gauge group ---------------------------------------------------------------

class SpectrumMismatch(LcqftError):
    """Gauge element and operand carry different mass spectra."""


class NoMasslessSpecies(LcqftError):
    """Operation requires nu(0) > 0."""


class NotOrthogonal(LcqftError):
    """A gauge block fails R^T R = I within tolerance."""


# -- observables ---------------------------------------------------------------

class NotChargeZero(LcqftError):
    """Massless input has nonvanishing symplectic product with the unit solution."""


class MassNotInSpectrum(LcqftError):
    """Requested mass sector does not exist."""


# -- CLI -----------------------------------------------------------------------

class ConfigParse(LcqftError):
    """Invalid CLI configuration."""


class NonFiniteReport(LcqftError, ValueError):
    """A report holds a NaN or an infinity, which JSON cannot carry."""


# -- classifier ----------------------------------------------------------------

class BudgetExceeded(ConfigParse):
    """Problem size exceeds the dense linear algebra budget (a configuration
    error: the CLI exits 2)."""
