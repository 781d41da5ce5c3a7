"""Exception types shared across the package."""


class RingError(Exception):
    """Base class of the errors this package raises about rings, tables and ring
    expressions.  A bad plain argument raises a bare ValueError instead: an
    unknown or repeated decomposition kind or check id, a side other than left
    or right, a bad range or numeric bound (a CLI range, n_max, p or k), or a
    WNC_SIZE_BUDGET that is not a positive integer."""


class TableFormatError(RingError):
    """Operation tables are malformed (wrong shape, out-of-range entries)."""


class CapacityError(RingError):
    """A construction would exceed the configured element-count budget."""


class InvalidDimensionError(RingError, ValueError):
    """A matrix size or truncation degree is below its constructor's least."""


class InvalidModuleError(RingError):
    """Module attached to an idealization is not well defined."""


class InvalidIdempotentError(RingError):
    """A corner construction was given a non-idempotent element."""


class InvalidEndomorphismError(RingError):
    """The twisting map of a skew polynomial quotient is not a unital ring endomorphism."""


class InvalidIdealError(RingError):
    """A quotient construction was given a subset that is not a two-sided ideal."""


class InvalidSubsetError(RingError):
    """An idempotent-subset argument is not contained in the ring's idempotents."""


class CrossRingError(RingError):
    """Element ids or subsets from different rings were mixed."""


class ExprSyntaxError(RingError):
    """Ring expression text could not be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
