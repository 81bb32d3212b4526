"""Error types shared across the discrete and continuous machinery."""


class FriezeLabError(Exception):
    """Base class for all domain errors raised by this package."""


class NotClosed(FriezeLabError):
    """The quiddity row does not close up into a second row of ones."""


class ZeroEntryEncountered(FriezeLabError):
    """An interior frieze entry became zero; completion would divide by it."""


class DegeneratePoint(FriezeLabError):
    """Cross-ratio chart points are not pairwise distinct."""


class GaugeViolation(FriezeLabError):
    """A polygon tangent does not vanish at the distinguished vertex."""


class DerivativeVanishes(FriezeLabError):
    """f' hit (numerical) zero where a positive derivative is required."""


class GridTooCoarse(FriezeLabError):
    """Two sign changes inside neighbouring grid cells; zero count unreliable."""


class DegenerateF(FriezeLabError):
    """Continuous frieze value too close to zero to divide by."""


class NonPositiveF(FriezeLabError):
    """Curvature evaluation requires F > 0 on the region."""


class SecondComponentVanishes(FriezeLabError):
    """Lifted-curve second component vanished at a quadrature node."""
