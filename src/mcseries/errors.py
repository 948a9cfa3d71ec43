"""Exception types shared across the package, and the one term cap.

Every failure that bad input can cause raises MCSError, which the
command-line front end reports with exit code 2; any other exception is a
defect of the program.  The term cap, MCS_MAX_TERMS, is read here and
nowhere else (term_cap), and check_cap is the one place that raises when a
stage's count passes it.
"""

import os

DEFAULT_MAX_TERMS = 10 ** 6


class MCSError(Exception):
    """Bad input, or input past a limit: the base class of this package's
    errors."""


class EnumerationLimitError(MCSError):
    """A stage's count of terms, elements or candidates passed the term cap.
    Raised by check_cap; every cap message is built here and names the
    stage, the count and the cap."""

    def __init__(self, stage: str, count: int, cap: int, unit: str = "terms"):
        super().__init__(f"{stage}: {count} {unit}, over the cap of {cap};"
                         " raise MCS_MAX_TERMS")


class WideCoefficientError(MCSError):
    """A coefficient too wide to print, met as series was written; the
    command line puts the stage of series in front of the message."""

    def __init__(self, series, message: str):
        super().__init__(message)
        self.series = series


def term_cap() -> int:
    """The term cap: MCS_MAX_TERMS when set, else DEFAULT_MAX_TERMS.

    Raises MCSError when the variable is not a positive integer.
    """
    raw = os.environ.get("MCS_MAX_TERMS", "").strip()
    if not raw:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(raw)
    except ValueError:
        raise MCSError(f"MCS_MAX_TERMS must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise MCSError("MCS_MAX_TERMS must be positive")
    return cap


def check_cap(stage: str, count: int, unit: str = "terms",
              cap: int | None = None) -> int:
    """The term cap, once count is within it; past it, EnumerationLimitError
    naming the stage, the count in its unit and the cap.  A loop that
    compares against the cap itself passes the cap it read, so the check
    raises on that cap."""
    if cap is None:
        cap = term_cap()
    if count > cap:
        raise EnumerationLimitError(stage, count, cap, unit)
    return cap
