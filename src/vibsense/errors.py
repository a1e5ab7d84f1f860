"""Exception types shared across the toolkit."""


class VibsenseError(Exception):
    """Base class for all toolkit errors."""


class InvalidSignalError(VibsenseError):
    """A signal holds samples its stage cannot take (non-finite, or out of range)."""


class InsufficientDataError(VibsenseError):
    """Window or dataset too short for the requested statistic."""


class ProfileRangeError(VibsenseError):
    """Requested signal level falls outside the ADC range."""


class UndefinedCorrelationError(VibsenseError):
    """Correlation undefined (constant sequence or single-class labels)."""


class DegenerateFitError(VibsenseError):
    """Least-squares fit has no unique solution (all x identical)."""


class DivergenceError(VibsenseError):
    """Training loss became non-finite."""


class SchemaError(VibsenseError):
    """Telemetry record violates the wire schema. Carries the field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class StoreError(VibsenseError):
    """Telemetry store could not be read or written."""


class DeliveryError(VibsenseError):
    """Node emulator gave up after exhausting retries.

    ``delivered`` counts the records durably acknowledged before the abort.
    """

    def __init__(self, delivered, message):
        self.delivered = delivered
        super().__init__(message)
