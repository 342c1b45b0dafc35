"""Exception hierarchy shared across the package."""


class HsacError(Exception):
    """Base class for all package errors."""


# --- scene metadata / ingest ---

class MalformedXml(HsacError):
    """The metadata document could not be parsed as XML."""


class MissingField(HsacError):
    """A mandatory metadata element is absent; the message names it."""


class OutOfRange(HsacError):
    """A value violates its documented range invariant."""


class InvalidDate(HsacError):
    """Not a valid Gregorian calendar date."""


# --- raster I/O ---

class HeaderPayloadMismatch(HsacError):
    """A raster header disagrees with its payload, or with the scene metadata."""


class UnsupportedDataType(HsacError):
    """Raster data type outside the supported set."""


class UnsupportedInterleave(HsacError):
    """Raster interleave outside {bsq, bil}."""


class LengthMismatch(HsacError):
    """Per-band vector length does not match the band count."""


class IoFailure(HsacError):
    """Filesystem write failure during product export."""


# --- spectral grid / SRF ---

class InvalidRange(HsacError):
    """Grid bounds or step are inconsistent."""


class GridMismatch(HsacError):
    """SRF samples do not align with the simulation grid."""


class CoverageGap(HsacError):
    """Grid extends beyond the support of a reference spectrum."""


# --- atmospheric providers ---

class MissingBand(HsacError):
    """Parameter table lacks one or more band indices."""


class DuplicateBand(HsacError):
    """Parameter table repeats a band index."""


class SchemaViolation(HsacError):
    """A text input is not UTF-8, or a table's header or row shape is wrong."""


class InvariantViolation(HsacError):
    """Parameter value violates a physical invariant; names band and field."""


class MissingEntry(HsacError):
    """Neither the metadata nor the catalogue holds a value for a state key."""


# --- metrics ---

class ZeroVector(HsacError):
    """Spectral angle undefined for a zero-norm spectrum."""


class NoOverlap(HsacError):
    """Two spectra share no wavelength support in the window."""


class OutOfBounds(HsacError):
    """Pixel coordinates outside the raster."""


class NodataPixel(HsacError):
    """Requested pixel carries the nodata sentinel."""
