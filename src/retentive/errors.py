"""Exception taxonomy shared across the package."""


class ParameterError(ValueError):
    """Invalid argument value or shape."""


class GenerationError(RuntimeError):
    """Scene or dataset generation could not satisfy its constraints."""


class NumericError(ArithmeticError):
    """Non-finite or degenerate numeric input where finite values are required."""


class StateError(RuntimeError):
    """Operation invoked on an object in the wrong lifecycle stage."""


class TrainingError(RuntimeError):
    """Training diverged or otherwise failed."""


class CorruptArtifactError(RuntimeError):
    """On-disk artifact failed hash, magic, or version verification."""


class CorruptCheckpointError(CorruptArtifactError):
    """Checkpoint payload failed hash, magic, or version verification."""


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent."""


class StalenessError(RuntimeError):
    """On-disk artifact was produced by a different configuration digest."""
