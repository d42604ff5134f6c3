"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or degenerate input: loops, empty edges, zero vectors, ..."""


class CapExceededError(RuntimeError):
    """A size cap or a search budget was exceeded.

    Inputs above a cap are refused, and a search stops once it has spent
    its budget of nodes or ray pairs, instead of running unbounded.
    """


class DegenerateMinorError(InputError):
    """A clutter minor produced an empty edge (blocking clutter)."""


class NotPointedError(InputError):
    """The operation requires a pointed cone (trivial lineality space)."""


class NoGradingError(InputError):
    """No strictly positive grading functional exists for the generators."""


class InfeasibleError(InputError):
    """The polyhedron is empty where a feasible one is required."""
