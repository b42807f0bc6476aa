"""Exception types shared across the library."""


class GausstubeError(Exception):
    """Base class for library-specific failures."""


class SurfaceDegeneracyError(GausstubeError, RuntimeError):
    """Too many degenerate points for a surface Monte Carlo run to be trusted."""


class ProjectionError(GausstubeError, RuntimeError):
    """Projection solver failed to reach the requested KKT residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ConfigError(GausstubeError, ValueError):
    """Experiment configuration is malformed or inconsistent."""
