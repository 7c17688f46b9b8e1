"""Exception types shared across the package."""


class ToricError(Exception):
    """Base class for all package-specific errors."""


class NotStronglyConvex(ToricError):
    """Generators span a cone containing a nonzero linear subspace."""


class ConeNotInFan(ToricError):
    """The given cone is not a face of any maximal cone of the fan."""


class NonSmoothCone(ToricError):
    """Cone generators do not extend to a basis of the lattice."""


class RayNotInFan(ToricError):
    """Referenced ray index or vector is not a ray of the fan."""


class RaysDoNotSpan(ToricError):
    """Fan rays do not span the ambient lattice rationally."""


class MaterializationTooLarge(ToricError):
    """Materialized fan construction requested beyond the size guard."""


class InvalidLabel(ToricError):
    """Ray label is not a valid singleton or composite label."""


class InvalidFlag(ToricError):
    """Flag data does not describe a maximal cone."""


class OutsideSupport(ToricError):
    """Point lies outside the support of the fan."""


class DimensionMismatch(ToricError):
    """Incidence data does not match the fan dimension (n = d + d' - 1)."""


class InvalidConditionSet(ToricError):
    """Atom list is contradictory, duplicated, or out of range."""


class InternalAudit(ToricError):
    """A structural assumption of the construction failed."""


class FourierMotzkinBlowup(ToricError, RuntimeError):
    """Fourier-Motzkin elimination produced more rows than its limit."""


class BudgetExceeded(ToricError):
    """Enumeration exceeded its node budget.

    Carries the partial results found so far for diagnostics.
    """

    def __init__(self, message, partial_count=0, nodes=0):
        super().__init__(message)
        self.partial_count = partial_count
        self.nodes = nodes

    def __reduce__(self):
        # keep the counts when a worker process sends the error back
        return type(self), (self.args[0], self.partial_count, self.nodes)
