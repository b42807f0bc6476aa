"""Exception types shared across the library."""


class GausstubeError(Exception):
    """Base class for library-specific failures."""


class SurfaceDegeneracyError(GausstubeError, RuntimeError):
    """Too many degenerate points for a surface Monte Carlo run to be trusted."""


class ProjectionError(GausstubeError, RuntimeError):
    """Projection solver failed to reach the requested KKT residual."""


class ConfigError(GausstubeError, ValueError):
    """An experiment configuration or a saved result is malformed or inconsistent."""
