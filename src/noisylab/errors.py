"""Exception types shared across the package."""


class NoisyLabError(Exception):
    """Base of every error the package raises on purpose."""


class ConfigError(NoisyLabError):
    """A value the callee cannot accept: out of range, misshapen or too large."""


class ParseError(NoisyLabError):
    """A file that cannot be read as what it should hold."""


class NumericError(NoisyLabError):
    """Training produced a non-finite value."""


class DegenerateClassError(NoisyLabError):
    """A ROC is undefined: the labels are all clean or all wrong."""
