"""Exception taxonomy shared by the whole toolkit, and the work cap."""

MAX_WORK = 10 ** 7      # most candidate points or terms one enumeration may visit


class InputError(ValueError):
    """Bad user input or violated precondition (CLI exit code 2)."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed; signals a formula or logic bug (CLI exit code 1)."""


def check_work(count, what: str) -> None:
    """Refuse an enumeration of count candidates before it starts."""
    if count > MAX_WORK:
        raise InputError(f"{what} would visit more than {MAX_WORK} candidates")
