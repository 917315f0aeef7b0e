"""Error types shared across the package, and the operand rule: an operation on two
forms or matrices, or on one and a vector, needs one semifield and one size."""


class PreconditionError(Exception):
    """An algebraic precondition was violated.

    `precondition` is a short stable label naming the violated requirement
    (used verbatim in CLI error output, exit code 2).
    """

    def __init__(self, precondition: str, message: str = ""):
        self.precondition = precondition
        super().__init__(message or precondition)


def check_operands(what: str, a, b, sizes: tuple[int, int] | None = None) -> None:
    """Raise unless a and b share a semifield and a size: ``.n``, or the pair ``sizes``."""
    na, nb = (a.n, b.n) if sizes is None else sizes
    if a.sf != b.sf or na != nb:
        raise PreconditionError("dimension match required", f"{what} live on different modules")


def check_vector(a, x) -> tuple:
    x = tuple(x)
    if len(x) != a.n:
        raise PreconditionError("dimension match required", f"vector length {len(x)} does not match dimension {a.n}")
    return x
