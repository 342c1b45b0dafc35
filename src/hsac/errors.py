"""The package's errors. The message is the error: it says what is wrong
and names the file at fault where there is one. Only an IoFailure is told
apart, because the pipeline reports it in the export stage."""


class HsacError(Exception):
    """An input or setting that hsac refuses, or a run that failed; `line`
    is the line (from 1) of the text at fault, which `parse_file` names."""

    def __init__(self, message: str = "", line: int | None = None):
        super().__init__(message)
        self.line = line


class IoFailure(HsacError):
    """Filesystem write failure during product export."""
