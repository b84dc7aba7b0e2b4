"""Exception hierarchy for the misspec package.

Validation problems (bad inputs, invalid models, improper priors) derive from
:class:`InputError`; breakdowns of the numerics themselves (a series that
does not converge, a result that overflows float64) derive from
:class:`NumericalError`.  The CLI exits 1 on the former and 2 on the latter.
"""


class MisspecError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MisspecError, ValueError):
    """Invalid argument values, shapes, or dimensions."""


class ModelValidationError(InputError):
    """A model instance violates one of its invariants (SPD weight, rank)."""


class DomainError(InputError):
    """Argument outside the mathematical domain of a special function."""


class ImproperPriorError(InputError):
    """Operation requires a proper (normalizable) radial prior."""


class DegenerateLimitError(InputError):
    """A closed-form limit posterior is undefined (requires a positive J)."""


class JustIdentifiedError(InputError):
    """Confidence interval requested for a just-identified model (k = p)."""


class ResampleRequiredError(InputError):
    """A simulated sample is degenerate (rank-deficient moments); redraw."""


class NumericalError(MisspecError):
    """A numerical routine failed to converge or produced inconsistent output."""
