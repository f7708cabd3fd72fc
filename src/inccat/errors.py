"""Exception types shared across the library."""


class IncCatError(Exception):
    """Base class for all errors raised by this package."""


class PosetError(IncCatError):
    """Invalid poset construction or use."""


class CycleError(PosetError):
    """The cover relation contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        chain = " < ".join(str(x) for x in self.cycle)
        super().__init__(f"cover relation contains a cycle: {chain} < {self.cycle[0]}")


class SizeCapError(PosetError):
    """A poset exceeds the fixed size cap of 32 elements."""


class NotAnIdealError(IncCatError):
    """A subset expected to be an order ideal is not one."""


class CompositionError(IncCatError):
    """Morphisms cannot be composed (mismatched objects or map modes)."""


class FamilyError(IncCatError):
    """A poset does not belong to the requested family."""


class TruncationError(FamilyError):
    """A computation needs iso-classes beyond the family's size cutoff."""


class VectorError(IncCatError):
    """A vector does not fit the generators it is read against."""


class CoefficientError(IncCatError):
    """A coefficient or scalar is not exact: neither an int nor a Fraction."""
