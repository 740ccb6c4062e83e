"""Exception taxonomy shared across the package.

Every domain error carries a stable machine-readable ``code`` so the CLI can
emit structured error records.
"""

from __future__ import annotations

from typing import Any


class CmonrwError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message: str, location: Any = None):
        super().__init__(message)
        self.message = message
        self.location = location

    def record(self) -> dict:
        """Machine-readable error record for structured output."""
        rec: dict = {"code": self.code, "message": self.message}
        if self.location is not None:
            rec["location"] = self.location
        return rec


class TermSyntaxError(CmonrwError):
    """Malformed term, signature, rule, or document text."""

    code = "syntax-error"


class UnknownGenerator(CmonrwError):
    code = "unknown-generator"


class TypeMismatch(CmonrwError):
    code = "type-mismatch"


class UnknownNode(CmonrwError):
    code = "unknown-node"


class NotASubhypergraph(CmonrwError):
    code = "not-a-subhypergraph"


class InterfaceMismatch(CmonrwError):
    code = "interface-mismatch"


class NotDiscrete(CmonrwError):
    code = "not-discrete"


class NotRightMonogamous(CmonrwError):
    code = "not-right-monogamous"


class Cyclic(CmonrwError):
    code = "cyclic"


class NotTerminal(CmonrwError):
    code = "not-terminal"


class PartitionMismatch(CmonrwError):
    code = "partition-mismatch"


class MissingCut(CmonrwError):
    code = "missing-cut"


class NotConvex(CmonrwError):
    code = "not-convex"


class InvalidSignature(CmonrwError):
    """An up-down signature that does not fit the cospan and sub-hypergraph."""

    code = "invalid-updown-signature"


class InvalidInOutSignature(CmonrwError):
    code = "invalid-inout-signature"


class IncompatibleGluing(CmonrwError):
    code = "incompatible-gluing"


class BadInterfaceOrder(CmonrwError):
    code = "bad-interface-order"


class DanglingEdge(CmonrwError):
    """A deleted interior node is still attached to surviving structure."""

    code = "dangling-edge"


class ResultNotRightMonogamous(CmonrwError):
    """Engine bug guard: a validated rewrite produced a bad result."""

    code = "result-not-right-monogamous"


class StepBudgetExhausted(CmonrwError):
    """Rewriting hit the step budget with reducible work remaining."""

    code = "step-budget-exhausted"

    def __init__(self, message: str, *, trace=(), frontier=(), normal_forms=()):
        super().__init__(message)
        self.trace = tuple(trace)
        self.frontier = tuple(frontier)
        self.normal_forms = tuple(normal_forms)


class BoundTooSmall(CmonrwError):
    code = "bound-too-small"


class OutOfMemory(CmonrwError):
    """The process ran out of memory; the CLI reports it in place of the
    MemoryError."""

    code = "out-of-memory"


class DocumentError(CmonrwError):
    """A cospan document of the wrong shape; location is its JSON path."""

    code = "document-error"


class IoFailure(CmonrwError):
    code = "io-failure"
