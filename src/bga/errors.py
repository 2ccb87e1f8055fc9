"""Exception types shared across the package.

The command line frontend names the code of a machine readable error
report after the exception class (``cli._error_code``).
"""

from __future__ import annotations

# what reading a malformed JSON document as if it were well formed raises
DOCUMENT_ERRORS = (KeyError, IndexError, TypeError, ValueError,
                   ZeroDivisionError)


class BgaError(Exception):
    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = detail


class SchemaError(BgaError):
    pass


class InvalidInvolution(BgaError):
    pass


class InvalidRotation(BgaError):
    pass


class Disconnected(BgaError):
    pass


class NonBipartite(BgaError):
    def __init__(self, detail="", witness=None):
        super().__init__(detail)
        self.witness = witness or []


class InvalidBipartition(BgaError):
    pass


class NotBipartite(BgaError):
    pass


class NonTerminating(BgaError):
    pass


class InfiniteDimensional(BgaError):
    pass


class RequiresConfluentSystem(BgaError):
    pass


class NotASubspace(BgaError):
    pass


class NotApplicable(BgaError):
    pass


class NonParallelCochain(BgaError):
    pass


class NonAssociative(BgaError):
    pass
