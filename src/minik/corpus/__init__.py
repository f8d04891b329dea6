"""Bundled corpus programs with golden expected outcomes.

Each entry is a `.mk` source file plus a sectioned golden file recording the
expected output of every driver column (check, check --strict, lint,
run erased, run reified, sites). The matrix entries (P4.*) additionally
carry the expected checkcast placement for their distinguished context, so
tests can assert placement and crash behavior independently of the goldens.
"""

from __future__ import annotations

from pathlib import Path

from ..records import Record

CORPUS_DIR = Path(__file__).parent
GOLDEN_DIR = CORPUS_DIR / "golden"

COLUMNS = ("check", "check-strict", "lint", "run-erased", "run-reified", "sites")


class MatrixRow(Record, frozen=True):
    """Expected behavior of one checkcast-placement context."""

    __slots__ = ("description", "line", "site_reason", "crashes")

    def __init__(
        self,
        description: str,
        line: int,  # line of the context's statement in the source file
        site_reason: str | None,  # expected site reason at that line, None = no site
        crashes: bool,  # erased run ends in ClassCastException
    ) -> None:
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "site_reason", site_reason)
        object.__setattr__(self, "crashes", crashes)


class CorpusEntry(Record, frozen=True):
    __slots__ = ("id", "filename", "title", "matrix")

    def __init__(self, id: str, filename: str, title: str, matrix: MatrixRow | None = None) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "filename", filename)
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "matrix", matrix)

    @property
    def source_path(self) -> Path:
        return CORPUS_DIR / self.filename

    @property
    def golden_path(self) -> Path:
        return GOLDEN_DIR / (Path(self.filename).stem + ".golden")

    def source(self) -> str:
        return self.source_path.read_text(encoding="utf-8")


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry("P1", "P1.mk", "silent unsound downcast through a covariant upcast chain"),
    CorpusEntry("P2", "P2.mk", "same downcast without the covariance hop; the compiler warns"),
    CorpusEntry("P3a", "P3a.mk", "mutable property typed by an 'out' parameter, unannotated"),
    CorpusEntry("P3b", "P3b.mk", "mutable property typed by an 'out' parameter, @UnsafeVariance"),
    CorpusEntry(
        "P4.1", "P4_1.mk", "mis-tagged value in an expression statement",
        MatrixRow("expression statement", 20, None, False),
    ),
    CorpusEntry(
        "P4.2", "P4_2.mk", "mis-tagged value in an explicitly-typed declaration",
        MatrixRow("explicitly-typed declaration", 20, "explicit-decl", True),
    ),
    CorpusEntry(
        "P4.3", "P4_3.mk", "mis-tagged value in an implicitly-typed declaration",
        MatrixRow("implicitly-typed declaration", 20, "implicit-decl", True),
    ),
    CorpusEntry(
        "P4.4", "P4_4.mk", "mis-tagged value in an instance check",
        MatrixRow("instance check", 20, None, False),
    ),
    CorpusEntry(
        "P4.5", "P4_5.mk", "mis-tagged value passed to an Any?-typed parameter",
        MatrixRow("call accepting Any?", 20, None, False),
    ),
    CorpusEntry(
        "P4.6", "P4_6.mk", "mis-tagged value passed to a class-typed parameter",
        MatrixRow("call accepting the class", 24, "call-arg", True),
    ),
    CorpusEntry(
        "P4.7", "P4_7.mk", "method call declared on the static class itself",
        MatrixRow("method call on the class", 20, "receiver", True),
    ),
    CorpusEntry(
        "P4.8", "P4_8.mk", "method call inherited from the parent class",
        MatrixRow("method call from the parent", 20, "receiver", True),
    ),
    CorpusEntry(
        "P4.9", "P4_9.mk", "mis-tagged value returned where Any? is expected",
        MatrixRow("return expecting Any?", 21, None, False),
    ),
    CorpusEntry(
        "P4.10", "P4_10.mk", "mis-tagged value returned where the class is expected",
        MatrixRow("return expecting the class", 21, "return-value", True),
    ),
    CorpusEntry("P5", "P5.mk", "generic smart cast lets a String into a MutableList<Int>"),
)

BY_ID = {e.id: e for e in ENTRIES}


def select(filter_prefix: str | None = None) -> tuple[CorpusEntry, ...]:
    if filter_prefix is None:
        return ENTRIES
    return tuple(e for e in ENTRIES if e.id.startswith(filter_prefix))
