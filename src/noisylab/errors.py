"""Exception types shared across the package."""


class NoisyLabError(Exception):
    pass


class ParseError(NoisyLabError):
    pass


class DomainError(NoisyLabError):
    pass


class ConfigError(NoisyLabError):
    pass


class ShapeError(NoisyLabError):
    pass


class SizeError(NoisyLabError):
    pass


class NumericError(NoisyLabError):
    pass


class DegenerateClassError(NoisyLabError):
    pass

