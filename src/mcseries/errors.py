"""Exception types shared across the package.

Every failure that bad input can cause raises MCSError, which the
command-line front end reports with exit code 2; any other exception is a
defect of the program.
"""


class MCSError(Exception):
    """Bad input, or input past a limit: the base class of this package's
    errors."""


class EnumerationLimitError(MCSError):
    """A stage's count of terms, elements or candidates passed the term cap.
    Every cap message is built here and names the stage, the count and the
    cap."""

    def __init__(self, stage: str, count: int, cap: int, unit: str = "terms"):
        super().__init__(f"{stage}: {count} {unit}, over the cap of {cap};"
                         " raise MCS_MAX_TERMS")


class WideCoefficientError(MCSError):
    """A coefficient too wide to print, met as series was written; the
    command line puts the stage of series in front of the message."""

    def __init__(self, series, message: str):
        super().__init__(message)
        self.series = series
