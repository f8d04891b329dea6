"""Checker and lint diagnostics.

Codes starting with W- are warnings, E- are errors. Errors block the `run`
command; warnings never affect the exit code.
"""

from __future__ import annotations

from .ast import SourceLoc
from .records import Record

WARNING_CODES = {
    "W-UNCHECKED-CAST",
    "W-REDUNDANT-IS",
    "W-VARIANT-INHERITANCE",
    "W-PROVENANCE-UNCHECKED-CAST",
}
ERROR_CODES = {
    "E-VARIANCE-POSITION",
    "E-GENERIC-IS",
    "E-TYPE",
    "E-TABLE",
}


class Diagnostic(Record, frozen=True):
    __slots__ = ("code", "loc", "message")

    def __init__(self, code: str, loc: SourceLoc, message: str) -> None:
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "message", message)

    @property
    def severity(self) -> str:
        return "warning" if self.code.startswith("W-") else "error"

    def render(self) -> str:
        return f"{self.severity} {self.code} {self.loc}: {self.message}"


def warning(code: str, loc: SourceLoc, message: str) -> Diagnostic:
    if code not in WARNING_CODES:
        raise ValueError(f"unknown warning code {code}")
    return Diagnostic(code, loc, message)


def error(code: str, loc: SourceLoc, message: str) -> Diagnostic:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code}")
    return Diagnostic(code, loc, message)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=lambda d: (d.loc.file, d.loc.line, d.loc.col, d.code))


def render_diagnostics(diags: list[Diagnostic]) -> str:
    return "".join(d.render() + "\n" for d in sort_diagnostics(diags))


def has_errors(diags) -> bool:
    return any(d.severity == "error" for d in diags)
