"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: ContractError -> 2, BackendError -> 3,
NumericalGuardError -> 4.
"""


class ContractError(ValueError):
    """An input violated a documented precondition (bad data, bad flags)."""


class BackendError(RuntimeError):
    """A language-model backend failed (network, protocol, server error)."""


class NumericalGuardError(RuntimeError):
    """A runtime numerical guard tripped (e.g. diverging KL during tuning)."""
