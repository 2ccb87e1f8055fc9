"""Exception types shared across the package.

The command line frontend names the code of a machine readable error
report after the exception class (``cli._error_code``), and exits with 2
for an ``InputError`` (unusable input) and 1 for any other ``BgaError``.
"""

from __future__ import annotations

# what reading a malformed JSON document as if it were well formed raises
DOCUMENT_ERRORS = (KeyError, IndexError, TypeError, ValueError,
                   ZeroDivisionError)


class BgaError(Exception):
    """Any error the package raises on purpose; ``str`` gives its text."""


class InputError(BgaError):
    """Unusable input: a malformed document, graph, option or bipartition."""


class UsageError(InputError):
    pass


class JsonError(InputError):
    pass


class SchemaError(InputError):
    pass


class InvalidInvolution(InputError):
    pass


class InvalidRotation(InputError):
    pass


class Disconnected(InputError):
    pass


class NonBipartite(InputError):
    def __init__(self, detail="", witness=None):
        super().__init__(detail)
        self.witness = witness or []


class InvalidBipartition(InputError):
    pass


class NotBipartite(InputError):
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
