"""Exception types shared across the package, and the one search budget."""

SEARCH_BUDGET = 1_000_000


class InputError(ValueError):
    """Malformed or degenerate input: loops, empty edges, zero vectors, ..."""


class CapExceededError(RuntimeError):
    """A size cap or the search budget was exceeded.

    Inputs above a cap are refused, and every search stops once its own
    count of work passes SEARCH_BUDGET, instead of running unbounded.
    """


def spend(spent, cost, what, unit):
    """spent + cost, or CapExceededError naming the search and its unit
    once that passes SEARCH_BUDGET, read at call time."""
    spent += cost
    if spent > SEARCH_BUDGET:
        raise CapExceededError(
            f"{what} exceeded its budget of {SEARCH_BUDGET} {unit}")
    return spent


class NotPointedError(InputError):
    """The operation requires a pointed cone (trivial lineality space)."""


class NoGradingError(InputError):
    """No strictly positive grading functional exists for the generators."""


class InfeasibleError(InputError):
    """The polyhedron is empty where a feasible one is required."""
