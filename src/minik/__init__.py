"""miniK: a laboratory language for studying declaration-site variance and
erased-generics cast soundness.

The pipeline is parse -> build_class_table -> check_program, after which the
typed program can be linted (provenance cast lint), executed (erased or
reified mode), or inspected for checkcast sites.

Importing the package loads only the modules a build runs (`ast`,
`records`, `diagnostics`, `lexer`, `parser`, `typesys` and `checker`). The
printer, the lint (`provenance`) and the runtime load on the first use of
one of their names here or of the submodule itself, so `minik check` never
compiles them.
"""

from importlib import import_module

from .ast import Program, SourceLoc, TypeRef
from .checker import (
    ERASED,
    REIFIED,
    CastClassification,
    CheckedProgram,
    check_inheritance_variance,
    check_program,
    check_variance_positions,
    classify_cast_baseline,
    complete_cast_target,
    infer_call_type_args,
)
from .diagnostics import Diagnostic, render_diagnostics
from .parser import ParseError, parse
from .typesys import ClassTable, build_class_table, lub, subtype, supertype_instantiation

# Each name loaded on first use -> the submodule that defines it.
_LAZY = {
    "printer": "printer",
    "pretty_print": "printer",
    "provenance": "provenance",
    "ProvenanceMap": "provenance",
    "compute_provenance": "provenance",
    "lint_function": "provenance",
    "lint_program": "provenance",
    "runtime": "runtime",
    "CheckcastSite": "runtime",
    "ClassCastException": "runtime",
    "Completed": "runtime",
    "RunOutcome": "runtime",
    "RuntimeFault": "runtime",
    "checkcast_sites": "runtime",
    "erased_instance_check": "runtime",
    "run_program": "runtime",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{submodule}")
    return module if name == submodule else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [
    "CastClassification",
    "CheckcastSite",
    "CheckedProgram",
    "ClassCastException",
    "ClassTable",
    "Completed",
    "Diagnostic",
    "ERASED",
    "ParseError",
    "Program",
    "ProvenanceMap",
    "REIFIED",
    "RunOutcome",
    "RuntimeFault",
    "SourceLoc",
    "TypeRef",
    "build_class_table",
    "check_inheritance_variance",
    "check_program",
    "check_variance_positions",
    "checkcast_sites",
    "classify_cast_baseline",
    "complete_cast_target",
    "compute_provenance",
    "erased_instance_check",
    "infer_call_type_args",
    "lint_function",
    "lint_program",
    "lub",
    "parse",
    "pretty_print",
    "render_diagnostics",
    "run_program",
    "subtype",
    "supertype_instantiation",
]
