"""Exception types shared across the package."""


class SwarmwatchError(Exception):
    """Base class for all package-specific errors."""


class InputError(SwarmwatchError, ValueError):
    """An argument or input document outside the domain a function accepts;
    also a ``ValueError``, so callers that catch that keep working."""


class ConfigError(SwarmwatchError):
    """A simulation or CLI configuration is invalid or unrealizable."""


class TraceParseError(SwarmwatchError):
    """A trace or connection-event file could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DisjointSamplesError(SwarmwatchError):
    """Peer samples share no members, so the size estimate diverges."""


class DegenerateSampleError(SwarmwatchError):
    """The sample carries no usable signal (constant data, zero distances)."""


class UnknownGatewayError(SwarmwatchError):
    """The DNS name is not registered with any simulated gateway."""


class ProbeUnreachableError(SwarmwatchError):
    """The probe target cannot be reached (offline node)."""


class ConnEventOrderError(InputError):
    """A peer's connection events on a monitor do not alternate connect,
    disconnect in time order (a double connect, or a disconnect without one)."""
