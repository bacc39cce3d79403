"""Exception hierarchy shared across the toolkit."""


class FblabError(Exception):
    """Base class for all toolkit errors."""


class GridError(FblabError):
    """Invalid grid construction (non-square cells, too few nodes, bad box)."""


class FieldError(FblabError):
    """Malformed field data (wrong shape, non-finite values, grid mismatch)."""


class UnderResolvedError(FblabError):
    """A one-sided stencil or probe could not be built; the phase is thinner
    than the scheme can resolve at the requested location."""


class DegenerateInterfaceError(FblabError):
    """An operation requiring a two-signed level set received a single-signed
    one, or the extracted interface is empty."""


class SolverError(FblabError):
    """The linear solve did not meet its residual contract."""


class PhaseCollapseError(FblabError):
    """A phase lost all interior nodes during iteration."""
