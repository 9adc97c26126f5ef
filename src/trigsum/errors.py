"""Shared exception types and the integer check every request runs."""


class ParameterError(ValueError):
    """Arguments violate a family's validity constraints (wrong parity,
    divisibility, coprimality, or range)."""


class CostGuardError(ParameterError):
    """An admissible request whose cost exceeds a documented guard."""


def check_int(name: str, value) -> None:
    # bool is an int subclass, but True as a parameter is a caller bug
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an int, not {type(value).__name__}")
