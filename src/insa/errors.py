"""Exception types shared by every module of the package."""


class AtmosphereError(Exception):
    """Base class for all errors raised by this package."""


class OutOfValidityRange(AtmosphereError):
    """An input falls outside the range the model is defined on."""


class NonPhysical(AtmosphereError):
    """An input would describe a physically impossible atmosphere."""


class NoConvergence(AtmosphereError):
    """A solve failed: budget exhausted, or its result left the domain or layer."""


class NotInTroposphere(AtmosphereError):
    """An observation resolves to a pressure altitude at or above the tropopause."""


class OutOfDomain(AtmosphereError):
    """A query point lies outside a field's coverage: a grid's axes or a waypoint field's times."""


class ParseError(AtmosphereError):
    """A data file is malformed (header, row shape, or field syntax)."""


class IncompleteGrid(AtmosphereError):
    """A grid file does not cover every node of its rectilinear axes."""


class NonMonotonicAxis(AtmosphereError):
    """A grid axis or a waypoint field's times: fewer than two, not finite, or not increasing."""
