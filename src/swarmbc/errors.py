"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 1,
numerical failures exit 2.
"""


class SwarmBCError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(SwarmBCError):
    """Array shapes are incompatible with the declared layer/action dims."""


class ConfigError(SwarmBCError):
    """Invalid configuration, CLI arguments, or file contents."""


def check_range(name, value, low, high=None, above=False):
    """``value`` if it is at least ``low`` (above it with ``above``) and, with
    ``high``, below ``high``; else a ConfigError naming ``name``, the range
    and the value. NaN lies in no range."""
    if (low < value if above else low <= value) and (high is None or value < high):
        return value
    if high is None:
        rule = f"{'>' if above else '>='} {low}"
    else:
        rule = f"in {'(' if above else '['}{low}, {high})"
    raise ConfigError(f"{name} must be {rule}, got {value}")


class EpisodeDoneError(SwarmBCError):
    """step() was called on an episode that already terminated."""


class TrainingDivergedError(SwarmBCError):
    """Training loss became non-finite.

    Carries the last ensemble whose loss was still finite so callers can
    inspect or salvage it.
    """

    def __init__(self, message, epoch, last_finite_ensemble=None):
        super().__init__(message)
        self.epoch = epoch
        self.last_finite_ensemble = last_finite_ensemble


class DegenerateBaselineError(SwarmBCError):
    """Expert and random baseline returns are too close to scale against."""


class TiedModeError(SwarmBCError):
    """Grid density has multiple global maxima; mode mass is undefined."""
