"""Exception hierarchy. Exit-code mapping lives in cli.py."""


class MesoqedError(Exception):
    """Base class for all package errors."""


class ParameterError(MesoqedError):
    """Invalid or inconsistent input parameters."""


class ConvergenceError(MesoqedError):
    """An iterative routine or quadrature failed to reach its tolerance."""


class NoBoundModeError(MesoqedError):
    """The structure carries no bound guided mode, or its solve found none."""


class ExpansionInvalidError(MesoqedError):
    """The long-wavelength expansion parameter is not small."""


class OutOfDomainError(MesoqedError):
    """Argument outside the supported domain of a special function."""


class ContractViolationError(MesoqedError):
    """A computed quantity broke a physical invariant: gamma0 < 0, or a
    mode normalization integral that is not positive and finite."""
