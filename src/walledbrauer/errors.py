"""Shared exception types."""


class ResourceLimitError(RuntimeError):
    """Requested object exceeds the desk-scale guard rails."""


class ParameterError(ValueError):
    """The requested object is undefined at these parameters; a usage error."""


class ZeroMultiplicityError(ValueError):
    """A matrix unit was requested for an irrep that does not appear at this d."""
