"""Seeded program generators for the `launder` and `calltree` workloads.

Each generator is a pure function of (seed, size). It returns the program
text and, computed from the generator's own choices and never from miniK,
the exact stdout and exit code of every driver command on that program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The one diagnostic `check --strict` reports on any program whose own
# classes are not generic: the prelude's `MutableList<T> : List<T>` weakens
# the covariant `List.T` (language definition, see the README).
PRELUDE_STRICT_WARNING = (
    "warning W-VARIANT-INHERITANCE <prelude>:6:28: parameter T of MutableList weakens "
    "the 'out' variance of List.T; acknowledge with @UnsafeVariance on the supertype reference"
)

# Driver commands, in the order a pass runs them, with the metric each one feeds.
COMMANDS = (
    ("check_ms", ("check",)),
    ("check_strict_ms", ("check", "--strict")),
    ("lint_ms", ("lint",)),
    ("sites_ms", ("sites",)),
    ("run_erased_ms", ("run", "--mode", "erased")),
    ("run_reified_ms", ("run", "--mode", "reified")),
)


@dataclass(frozen=True)
class Expected:
    """Reference outcome of one driver command: exact stdout and exit code."""

    stdout: str
    exit_code: int = 0


@dataclass(frozen=True)
class Generated:
    filename: str
    source: str
    expected: dict[str, Expected]  # keyed by metric name from COMMANDS


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, text: str = "") -> int:
        """Append one line; return its 1-based line number."""
        self.lines.append(text)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _site(file: str, line: int, col: int, cls: str, reason: str) -> tuple[int, int, str]:
    return (line, col, f"{file}:{line}:{col} CHECKCAST {cls} ({reason})")


def _render_sorted(items: list[tuple[int, int, str]]) -> str:
    return "".join(text + "\n" for _, _, text in sorted(items))


# ============================================================
# launder: P1's chain, once per function, over a 10-deep hierarchy
# ============================================================

DEPTH = 10  # classes C0 (root) .. C9 (deepest)


def launder(seed: int, functions: int = 500) -> Generated:
    """`functions` copies of P1's launder chain.

    Function i builds a `MutableList<Ck>`, widens it to `List<Ck>` and then
    covariantly to `List<Cj>` (j < k), silently casts it back to
    `MutableList<Cj>`, adds a `Cj`, and returns element 0 as a `Ck`. It
    also calls the generic `pick` (type argument inferred by lub) and
    branches on an `is` check of the result. The top level calls functions
    1..n-1, then calls function n and invokes `Ck`'s own method on its
    result, where the erased runtime finally notices the wrong class.
    """
    if functions < 1:
        raise ValueError("launder needs at least one function")
    rng = random.Random(f"launder:{seed}")
    file = "launder.mk"
    w = _Writer()
    sites: list[tuple[int, int, str]] = []
    lint: list[tuple[int, int, str]] = []

    for c in range(DEPTH):
        sup = f" : C{c - 1}()" if c else ""
        w.add(f"open class C{c}{sup} {{")
        w.add(f"    fun m{c}() {{")
        w.add("    }")
        w.add("}")
        w.add()
    w.add("fun pick<E>(a: E, b: E): E {")
    w.add("    return a")
    w.add("}")
    w.add()

    calls = []  # per function: (name, k, j, xa, xb, pa, pb, the line it prints)
    for i in range(1, functions + 1):
        k = rng.randint(1, DEPTH - 1)
        j = rng.randint(0, k - 1)
        pa, pb = rng.randint(0, DEPTH - 2), rng.randint(0, DEPTH - 2)
        low = min(pa, pb)  # lub(C_pa, C_pb)
        m = rng.randint(low + 1, DEPTH - 1)
        xa, xb = rng.randint(pa, DEPTH - 1), rng.randint(pb, DEPTH - 1)
        name = f"launder{i}"
        taken = "then" if xa >= m else "else"

        w.add(f"// chain {i}: MutableList<C{k}> seen as List<C{j}>")
        w.add(f"fun {name}(a: C{pa}, b: C{pb}): C{k} {{")
        ln = w.add(f"    val list = mutableListOf<C{k}>()")
        sites.append(_site(file, ln, 5, "MutableList", "implicit-decl"))
        ln = w.add(f"    val upcast: List<C{k}> = list")
        sites.append(_site(file, ln, 5, "List", "explicit-decl"))
        ln = w.add(f"    val covariance: List<C{j}> = upcast")
        sites.append(_site(file, ln, 5, "List", "explicit-decl"))
        text = f"    val downcast: MutableList<C{j}> = covariance as MutableList"
        ln = w.add(text)
        sites.append(_site(file, ln, 5, "MutableList", "explicit-decl"))
        cast_col = text.index(" as ") + 2
        lint.append((ln, cast_col,
                     f"warning W-PROVENANCE-UNCHECKED-CAST {file}:{ln}:{cast_col}: cast to MutableList<C{j}> "
                     f"is unchecked for a value whose implicit-cast history is "
                     f"{{MutableList<C{k}>, List<C{k}>, List<C{j}>}} (unchecked from MutableList<C{k}>)"))
        if i == 1:
            reified = (f"ClassCastException: MutableList<C{k}> cannot be cast to "
                       f"MutableList<C{j}> at {file}:{ln}:{cast_col}\n")
        ln = w.add(f"    downcast.add(C{j}())")
        sites.append(_site(file, ln, 5, "MutableList", "receiver"))
        ln = w.add("    val p = pick(a, b)")
        sites.append(_site(file, ln, 5, f"C{low}", "implicit-decl"))
        w.add(f"    if (p is C{m}) {{")
        w.add(f'        println("{name} then C{m}")')
        w.add("    } else {")
        w.add(f'        println("{name} else C{m}")')
        w.add("    }")
        ln = w.add("    return list[0]")
        sites.append(_site(file, ln, 12, "MutableList", "receiver"))
        w.add("}")
        w.add()
        calls.append((name, k, j, xa, xb, pa, pb, f"{name} {taken} C{m}\n"))

    stdout = ""
    for idx, (name, k, j, xa, xb, pa, pb, printed) in enumerate(calls):
        last = idx == len(calls) - 1
        call = f"{name}(C{xa}(), C{xb}())"
        ln = w.add(f"{call}.m{k}()" if last else call)
        first_arg = len(name) + 2
        second_arg = first_arg + len(f"C{xa}(), ")
        sites.append(_site(file, ln, first_arg, f"C{pa}", "call-arg"))
        sites.append(_site(file, ln, second_arg, f"C{pb}", "call-arg"))
        stdout += printed
        if last:
            sites.append(_site(file, ln, 1, f"C{k}", "receiver"))
            erased = stdout + f"ClassCastException: C{j} cannot be cast to C{k} at {file}:{ln}:1\n"

    expected = {
        "check_ms": Expected(""),
        "check_strict_ms": Expected(PRELUDE_STRICT_WARNING + "\n"),
        "lint_ms": Expected(_render_sorted(lint)),
        "sites_ms": Expected(_render_sorted(sites)),
        "run_erased_ms": Expected(erased),
        "run_reified_ms": Expected(reified),
    }
    return Generated(file, w.text(), expected)


# ============================================================
# calltree: a binary call tree, runtime bound
# ============================================================


def _names(rng: random.Random, count: int, first: str) -> list[str]:
    """`count` distinct five-letter identifiers; the first letter is drawn
    from `first`, so none of them is a keyword or a built-in type."""
    names: list[str] = []
    while len(names) < count:
        name = rng.choice(first) + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4))
        if name not in names:
            names.append(name)
    return names


def calltree(seed: int, levels: int = 14) -> Generated:
    """`levels` functions n0..n{levels-1}; each calls the next one twice,
    so 2^levels - 1 calls run.

    Every call casts its argument to the middle class, widens the result in
    a typed `val` (a val-decl coercion), narrows it back with an `is` check,
    passes it to a base-typed parameter (call-arg coercions) and returns it
    as the base class (a return coercion). The root object is of the leaf
    class, so every check passes and every call does the same work. The
    seed picks the identifiers only: a seed that changed the shape would
    change how much work a run does. One generic call at the top level
    gives the checker a single `lub`, and one uncalled function holds a
    laundered cast for the lint.
    """
    if levels < 1:
        raise ValueError("calltree needs at least one level")
    rng = random.Random(f"calltree:{seed}")
    base, mid, leaf = _names(rng, 3, "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    (method,) = _names(rng, 1, "t")
    file = "calltree.mk"
    w = _Writer()
    sites: list[tuple[int, int, str]] = []

    w.add(f"open class {base} {{")
    w.add(f"    fun {method}() {{")
    w.add("    }")
    w.add("}")
    w.add()
    w.add(f"open class {mid} : {base}()")
    w.add()
    w.add(f"class {leaf} : {mid}()")
    w.add()
    w.add("fun same<E>(a: E, b: E): E {")
    w.add("    return a")
    w.add("}")
    w.add()
    # One copy of P1's chain in a function nothing calls, so the lint has
    # one cast to report and the runs are unchanged.
    w.add("fun spare() {")
    ln = w.add(f"    val list = mutableListOf<{leaf}>()")
    sites.append(_site(file, ln, 5, "MutableList", "implicit-decl"))
    ln = w.add(f"    val upcast: List<{leaf}> = list")
    sites.append(_site(file, ln, 5, "List", "explicit-decl"))
    ln = w.add(f"    val covariance: List<{base}> = upcast")
    sites.append(_site(file, ln, 5, "List", "explicit-decl"))
    text = f"    val downcast: MutableList<{base}> = covariance as MutableList"
    ln = w.add(text)
    sites.append(_site(file, ln, 5, "MutableList", "explicit-decl"))
    cast_col = text.index(" as ") + 2
    lint = (f"warning W-PROVENANCE-UNCHECKED-CAST {file}:{ln}:{cast_col}: cast to MutableList<{base}> "
            f"is unchecked for a value whose implicit-cast history is "
            f"{{MutableList<{leaf}>, List<{leaf}>, List<{base}>}} (unchecked from MutableList<{leaf}>)\n")
    w.add("}")
    w.add()
    for i in range(levels):
        w.add(f"fun n{i}(x: {base}): {base} {{")
        ln = w.add(f"    val c = x as {mid}")
        sites.append(_site(file, ln, 5, mid, "implicit-decl"))
        ln = w.add(f"    val m: {base} = c")
        sites.append(_site(file, ln, 5, base, "explicit-decl"))
        w.add(f"    if (m is {mid}) {{")
        for arg in ("m", "c"):
            if i + 1 < levels:
                for _ in range(2):
                    ln = w.add(f"        n{i + 1}({arg})")
                    sites.append(_site(file, ln, 9 + len(f"n{i + 1}("), base, "call-arg"))
            else:
                ln = w.add(f"        {arg}.{method}()")
                sites.append(_site(file, ln, 9, mid, "receiver"))
            if arg == "m":
                w.add("    } else {")
        w.add("    }")
        ln = w.add("    return c")
        sites.append(_site(file, ln, 5, base, "return-value"))
        w.add("}")
        w.add()

    ln = w.add(f"val root = {leaf}()")
    sites.append(_site(file, ln, 1, leaf, "implicit-decl"))
    text = "val result = n0(root)"
    ln = w.add(text)
    sites.append(_site(file, ln, 1, base, "implicit-decl"))
    sites.append(_site(file, ln, text.index("root") + 1, base, "call-arg"))
    w.add("println(result)")
    w.add(f"println(same(result, root) is {leaf})")

    # The root is the only object allocated (oid 1); every call hands it on.
    run = Expected(f"<{leaf}@1>\ntrue\ncompleted\n")
    expected = {
        "check_ms": Expected(""),
        "check_strict_ms": Expected(PRELUDE_STRICT_WARNING + "\n"),
        "lint_ms": Expected(lint),
        "sites_ms": Expected(_render_sorted(sites)),
        "run_erased_ms": run,
        "run_reified_ms": run,
    }
    return Generated(file, w.text(), expected)


GENERATORS = {"launder": launder, "calltree": calltree}
