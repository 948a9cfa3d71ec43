"""Exception types, the one term cap and the one reader of integer text.

Every failure that bad input can cause raises MCSError, which the
command-line front end reports with exit code 2; any other exception is a
defect of the program.  The term cap, MCS_MAX_TERMS, is read here and
nowhere else (term_cap), and check_cap is the one place that raises when a
stage's count passes it.
"""

import os

DEFAULT_MAX_TERMS = 10 ** 6
# the most decimal digits of an int that Python converts to text by default
MAX_COEFFICIENT_DIGITS = 4300
# a truncation below this has fewer than MAX_COEFFICIENT_DIGITS digits, so
# the degree of its O-term, one more, still prints
TRUNCATION_LIMIT = 10 ** (MAX_COEFFICIENT_DIGITS - 1)


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


def term_cap() -> int:
    """The term cap: MCS_MAX_TERMS when set, else DEFAULT_MAX_TERMS; an
    MCSError when the variable is not a positive integer."""
    raw = os.environ.get("MCS_MAX_TERMS", "").strip()
    if not raw:
        return DEFAULT_MAX_TERMS
    try:
        cap = read_integer(raw, "MCS_MAX_TERMS")
    except ValueError:
        raise MCSError(f"MCS_MAX_TERMS must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise MCSError("MCS_MAX_TERMS must be positive")
    return cap


def read_integer(text: str, what: str) -> int:
    """The int that text spells, else ValueError; its digits are counted
    first, and more than Python converts is bad input naming what it is."""
    if (digits := sum(map(str.isdecimal, text))) > MAX_COEFFICIENT_DIGITS:
        raise MCSError(f"{what} has {digits} digits, over the limit of"
                       f" {MAX_COEFFICIENT_DIGITS}")
    return int(text)


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
