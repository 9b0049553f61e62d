"""Exception hierarchy shared across the pipeline."""


class JamcastError(Exception):
    """Base class for all jamcast errors."""


class ValidationError(JamcastError):
    """Data or argument violates a stated contract (range, shape, enum)."""


class ConfigError(JamcastError):
    """Configuration value outside its legal domain."""


class SchemaError(JamcastError):
    """Feature schema refers to something the data cannot provide."""


class DegenerateNodeError(JamcastError):
    """Tree-node statistics make a leaf/gain computation ill-defined."""


class UndefinedMetricError(JamcastError):
    """Metric has no defined value for the given inputs (e.g. single-class AUC)."""


class FileChangedError(ValidationError):
    """A data file was cut short or rewritten after it was opened and checked."""
