"""Exception types shared across the package.

Every error carries a stable ``code`` used by the command line frontend
to build machine readable reports.
"""

from __future__ import annotations

# what reading a malformed JSON document as if it were well formed raises
DOCUMENT_ERRORS = (KeyError, IndexError, TypeError, ValueError,
                   ZeroDivisionError)


class BgaError(Exception):
    code = "error"

    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = detail


class SchemaError(BgaError):
    code = "SchemaError"


class InvalidInvolution(BgaError):
    code = "InvalidInvolution"


class InvalidRotation(BgaError):
    code = "InvalidRotation"


class Disconnected(BgaError):
    code = "Disconnected"


class NonBipartite(BgaError):
    code = "NonBipartite"

    def __init__(self, detail="", witness=None):
        super().__init__(detail)
        self.witness = witness or []


class InvalidBipartition(BgaError):
    code = "InvalidBipartition"


class NotBipartite(BgaError):
    code = "NotBipartite"


class NonTerminating(BgaError):
    code = "NonTerminating"


class InfiniteDimensional(BgaError):
    code = "InfiniteDimensional"


class RequiresConfluentSystem(BgaError):
    code = "RequiresConfluentSystem"


class NotASubspace(BgaError):
    code = "NotASubspace"


class NotApplicable(BgaError):
    code = "NotApplicable"


class NonParallelCochain(BgaError):
    code = "NonParallelCochain"


class NonAssociative(BgaError):
    code = "NonAssociative"
