"""Shared exception types."""


class InputError(ValueError):
    """Caller handed us something malformed (bad alphabet, wrong fragment, ...)."""


class FragmentError(InputError):
    """A transformation was applied to a system outside its test fragment."""


class OracleInconclusive(Exception):
    """Backward saturation did not stabilize within its round budget."""


class ReplayError(RuntimeError):
    """Rebuilding a run from a rule word failed; carries the failing index."""

    def __init__(self, index, message):
        super().__init__(f"replay failed at position {index}: {message}")
        self.index = index
