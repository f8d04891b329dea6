from __future__ import annotations

import minik


def test_public_api_is_pinned():
    assert minik.__all__ == [
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
    for name in minik.__all__:
        assert hasattr(minik, name), name
