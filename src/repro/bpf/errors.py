"""Exceptions for the BPF substrate."""

from __future__ import annotations

__all__ = ["BPFError", "VerificationError", "RuntimeFault", "CompileError"]


class BPFError(Exception):
    """Base class for all BPF subsystem errors."""


class VerificationError(BPFError):
    """The verifier rejected a program.

    Carries the verifier log so callers (and the Concord "notify user"
    step) can show *why* the program was rejected.
    """

    def __init__(self, message: str, log=()) -> None:
        super().__init__(message)
        self.log = list(log)

    def full_report(self) -> str:
        return "\n".join([str(self)] + [f"  {line}" for line in self.log])


class RuntimeFault(BPFError):
    """A defense-in-depth runtime guard tripped while a program ran.

    The VM's guards are the instruction budget, the R0-scalar check at
    exit and the injectable ``bpf.vm.budget``/``bpf.helper`` fault
    points.  A verified program should never trip the first two; they
    exist so a verifier bug cannot corrupt the simulated kernel
    (mirroring the real kernel's belt-and-suspenders checks).
    """


class CompileError(BPFError):
    """The restricted-Python frontend rejected the policy source."""

    def __init__(self, message: str, node=None) -> None:
        if node is not None and hasattr(node, "lineno"):
            message = f"line {node.lineno}: {message}"
        super().__init__(message)
