"""Exception hierarchy. Validation *verdicts* are data, not exceptions;
these classes cover genuine faults (bad arguments, broken preconditions,
exhausted iteration guards, infeasible constructions)."""


class CantorIFSError(Exception):
    """Base class for all library faults."""


class DomainError(CantorIFSError, ValueError):
    """Argument outside the map's domain [0, 1]."""


class RangeError(CantorIFSError, ValueError):
    """Target value outside a map's image; no preimage exists."""


class BracketError(CantorIFSError):
    """A one-dimensional solve's root falls outside its admissible range."""


class IterationCapError(CantorIFSError):
    """An iteration guard was exhausted before convergence/termination."""


class ResourceCapError(CantorIFSError):
    """A configured resource cap (e.g. orbit size) was exceeded."""


class SpecError(CantorIFSError, ValueError):
    """A MapSpec or IntervalSet violates its structural invariants."""


class NoContractionError(CantorIFSError):
    """The hole-finding hypothesis f∘g(seed) ⊂ int(seed) fails."""


class DegenerateHoleError(CantorIFSError):
    """The nested-image limit collapsed to (nearly) a point."""


class ClassificationError(CantorIFSError):
    """An interval fits none of the gap-finder case regions."""


class ConstructionError(CantorIFSError):
    """A construction stage cannot satisfy its target constraints."""


class CertificateError(CantorIFSError):
    """A gap certificate failed its own verification before being returned."""
