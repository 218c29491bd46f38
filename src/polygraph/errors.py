"""The exception families of the CLI's exit codes 1, 2 and 3.  Every
exception class of the library subclasses exactly one of them (and keeps
its builtin base), so the CLI names no layer.  This module imports nothing."""


class InputError(Exception):
    """Malformed or unreadable input, or a bad flag: exit 1."""


class InvalidArgument(InputError, ValueError):
    """A library parameter out of its range or of the wrong length; the
    message names the value it got."""


class Rejected(Exception):
    """A mathematical rejection of well-formed input: exit 2."""


class Exhausted(Exception):
    """A named budget or a search bound ran out: exit 3."""
