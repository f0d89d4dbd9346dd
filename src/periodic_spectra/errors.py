"""Exception hierarchy shared across the package.

Input/validation errors, math-domain errors (a requested value is outside
the computable domain), and internal invariant violations are kept in
separate branches so the CLI can map them to distinct exit codes.
"""


class PeriodicSpectraError(Exception):
    """Base class for all package errors."""


class InputError(PeriodicSpectraError):
    """Malformed or inconsistent user input (files, graph descriptions)."""


class ParseError(InputError):
    """A graph or perturbation source could not be parsed."""


class DimensionMismatchError(InputError):
    """A lattice vector has the wrong number of components."""


class IsolatedVertexError(InputError):
    """A fundamental-domain label has degree zero."""


class VertexNotInGraphError(InputError):
    """A state assigns a value to a vertex the oracle does not contain."""


class VertexNotInCommonSubgraphError(InputError):
    """A vertex outside the shared subgraph was passed to a query that needs one."""


class EmptySupportError(InputError):
    """An operation that needs a nonempty vertex set received an empty one."""


class EmptyBoxError(InputError):
    """A truncation box contains no vertices."""


class MathDomainError(PeriodicSpectraError):
    """The requested computation has no answer for these inputs."""


class NotInSpectrumError(MathDomainError):
    """No band comes close enough to the requested spectral value."""


class NoClearBoxError(MathDomainError):
    """No box of the requested radius fits inside the unperturbed set."""


class BadEigenpairError(MathDomainError):
    """A cell vector fails the eigenpair check at its quasimomentum: its
    degree-weighted fiber residual ``||M xi - lambda xi||_deg``, with lambda
    its Rayleigh quotient, exceeds the tolerance."""


class InternalInvariantError(PeriodicSpectraError):
    """A structural invariant failed; indicates a corrupted description."""
