"""Exception hierarchy.

Every domain error raised by this package derives from ``HyperincError`` so
callers can catch one base class; the CLI maps them to non-zero exit codes.
"""


class HyperincError(Exception):
    """Base class for all errors raised by hyperinc."""


class InvalidParameters(HyperincError):
    pass


# -- hypergraph construction ------------------------------------------------

class EmptyVertexSet(HyperincError):
    pass


class EmptyEdge(HyperincError):
    pass


class UnknownVertexInEdge(HyperincError):
    pass


class DuplicateEdge(HyperincError):
    pass


class CycleTooShort(HyperincError):
    pass


class UnknownVertex(HyperincError):
    pass


class UnknownEdge(HyperincError):
    pass


class EmptySubset(HyperincError):
    pass


class IsolatedVertex(HyperincError):
    pass


class InstanceTooLarge(HyperincError):
    pass


# -- exact linear algebra ----------------------------------------------------

class NonIntegerEntries(HyperincError):
    pass


class DimensionMismatch(HyperincError):
    pass


class NonSquare(HyperincError):
    pass


# -- kernel certificates ------------------------------------------------------

class OverlappingSets(HyperincError):
    pass


class SubsetTooSmall(HyperincError):
    pass


# -- spectra -------------------------------------------------------------------

class GroundSetMismatch(HyperincError):
    pass


class PartitionNotFiner(HyperincError):
    pass


class SingletonEdgeWithBanerjeeWeight(HyperincError):
    pass


class BadWeightFile(HyperincError):
    pass


# -- file formats ----------------------------------------------------------------

class FileAccessError(HyperincError):
    """A file that cannot be opened, read, decoded as UTF-8 or written."""


class ParseError(HyperincError):
    """Malformed hypergraph/certificate/weight file.

    Carries the 1-based line number when the text format is being parsed.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
