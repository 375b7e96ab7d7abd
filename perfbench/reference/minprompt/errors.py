"""Exception types shared across the pipeline."""


class MinpromptError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MinpromptError):
    """Input data violates a documented invariant or contract."""


class ParseError(MinpromptError):
    """A file could not be parsed; the message carries the location."""


class PipelineError(MinpromptError):
    """A pipeline stage failed irrecoverably."""


class StageError(PipelineError):
    """Wraps a failure with the name of the stage it happened in."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage
