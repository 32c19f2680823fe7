"""Exception hierarchy: every bad value raises a StrainforgeError, and the CLI maps
each to exit 1 with one line."""


class StrainforgeError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidRotation(StrainforgeError):
    """Rotation matrix is not orthonormal with determinant +1."""


class FrameMismatch(StrainforgeError):
    """Strain tensor carries a different frame tag than the operation expects."""


class InvalidGeometry(StrainforgeError):
    """Cross-section polygon is degenerate, mis-ordered, or lacks a film edge."""


class InvalidDomain(StrainforgeError):
    """Physical value out of range (a size, strain, temperature) or a depth off the substrate."""


class InvalidParameter(StrainforgeError):
    """Malformed argument (a shape, length or order) or one inconsistent with the data."""


class EmptyRequest(StrainforgeError):
    """Operation invoked on an empty collection or with n = 0."""


class Infeasible(StrainforgeError):
    """Calibration target cannot be reached by any parameter value."""


class DegenerateGeometry(StrainforgeError):
    """Position sampling failed substrate containment repeatedly."""


class ParseError(StrainforgeError):
    """Malformed input file; message carries the offending line number."""


class DuplicateAbscissa(StrainforgeError):
    """Spectrum contains repeated frequency values."""


class NoSingleEmitters(StrainforgeError):
    """No spectrum in the batch qualified as a single emitter."""


class ConfigError(StrainforgeError):
    """Configuration file failed schema validation."""
