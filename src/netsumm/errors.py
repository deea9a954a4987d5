"""Domain errors raised across the package.

Everything derives from NetsummError so callers can catch one base type.
Plain I/O failures (unreadable files) are left to the builtin OSError.
"""


class NetsummError(Exception):
    """Base class for all domain errors."""


class CorpusFormatError(NetsummError):
    """Corpus directory or manifest violates the documented layout."""


class ClusterTooSmall(NetsummError):
    """A cluster needs at least two documents."""


class EmptyCorpus(NetsummError):
    """Corpus directory contains no cluster subdirectories."""


class DegenerateCluster(NetsummError):
    """Every sentence normalized to an empty token list (or no sentences)."""


class EmptyGraph(NetsummError):
    """No sentence pair had positive similarity; the graph has no edges."""


class InvalidParameter(NetsummError):
    """A numeric parameter is outside its documented range."""


class InvalidInput(NetsummError):
    """An operation was called on inputs violating its precondition."""


class ConvergenceError(NetsummError):
    """Iterative solver failed to converge; carries the iteration count."""

    def __init__(self, message: str, iterations: int):
        super().__init__(f"{message} (after {iterations} iterations)")
        self.iterations = iterations


class SingularMatrix(NetsummError):
    """A linear system that should be solvable turned out singular."""


class EmptySummary(NetsummError):
    """No sentence fits the requested budget."""


class InvalidReference(NetsummError):
    """A reference summary is empty or tokenizes to nothing."""


def attempt(fn, *args):
    """fn(*args), or the NetsummError it raised."""
    try:
        return fn(*args)
    except NetsummError as exc:
        return exc
