"""Exception types shared across the package."""


class RamcubeError(Exception):
    """Base class for all package errors."""


class ConfigError(RamcubeError):
    """Invalid or malformed run configuration."""


class ConstructionError(RamcubeError):
    """A complex or group could not be built as requested."""


class GeneratorCountError(ConstructionError):
    """Quaternion generator enumeration did not produce p + 1 elements."""


class LevelRejectedError(ConstructionError):
    """The level is too shallow: the built complex fails an axiom or parity check."""


class InvalidModulusError(ConstructionError):
    """The chosen level is incompatible with the prime set."""


class CentralConditionError(ConstructionError):
    """The requested weight is not admissible for this configuration."""


class VerificationError(RamcubeError):
    """A numerical certification (axioms, flatness, spectra) came out negative."""


class ResourceError(RamcubeError):
    """A run would not fit in memory (the dense star blocks, checked before
    the first solve); not a verdict."""
