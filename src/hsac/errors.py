"""The package's errors. The message is the error: it says what is wrong
and names the file at fault where there is one. Only an IoFailure is told
apart, because the pipeline reports it in the export stage."""


class HsacError(Exception):
    """An input or setting that hsac refuses, or a run that failed."""


class IoFailure(HsacError):
    """Filesystem write failure during product export."""
