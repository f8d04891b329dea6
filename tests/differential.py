"""Differential runner: the same miniK texts through two source trees.

Usage:
    python tests/differential.py OLD_TREE NEW_TREE [--seed N] [--count N] [--out FILE]

Each tree is a checkout of this repository (its `src/minik` is imported). A
parent tree can be made without touching the repository's `.git`:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent

The texts are the corpus programs, one program built around index reads and
`get` calls, one that launders a list and calls methods on its element, one
that calls a generic method under two instantiations, one that copies,
returns, passes and tests a laundered element held in a variable, one
whose jumps land on returns and whose methods take a laundered receiver,
one with casts nested in a cast and in both a call's receiver and its
argument,
`--count` seeded character, line and identifier mutations of those, and
small `launder` and `calltree` programs from `minik_bench/gen.py` (loaded
by path, unchanged).
Each tree runs every text through the seven command forms in `FORMS`, in
one subprocess per tree. A Python exception escaping a command is a host
exception: its type and message become that result, and its innermost
frames are reported beside it. The JSON summary gives the texts, the
results, the host exceptions per side and the differing results grouped by
command form and by first differing line. The exit code is 0 when nothing
differs and neither side raised, 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, command, strict, mode, eager_checkcast)
FORMS = (
    ("check", "check", False, None, False),
    ("check --strict", "check", True, None, False),
    ("lint", "lint", False, None, False),
    ("sites", "sites", False, None, False),
    ("run --mode erased", "run", False, "erased", False),
    ("run --mode reified", "run", False, "reified", False),
    ("run --mode erased --eager-checkcast", "run", False, "erased", True),
)

HOST_EXCEPTION = "HOST-EXCEPTION "

# Reads through `[i]`, `get` and `size`, used as receivers, arguments and
# returns, and one laundering cast.
INDEX_PROGRAM = """\
open class B {
    fun m(): Int {
        return 1
    }
}

class A : B()

class R {
    fun get(i: Int): B {
        return A()
    }
}

fun first(list: List<B>): B {
    return list[0]
}

val list = mutableListOf<B>()
list.add(A())
list.add(B())
println(list.size)
println(list[0].m())
println(list.get(1).m())
val r = R()
println(r[3].m())
println(first(list).m())
val up: List<B> = list
val down = up as MutableList
println(down.get(0) is A)
println(down[1])
"""

# P1's laundering chain, then the laundered element as a receiver, read
# through `[i]` and `get`. Neither read is checked where it is made (a
# deferred read), so the erased run stops at the receiver's class check.
RECEIVER_PROGRAM = """\
open class B {
    fun name(): String {
        return "B"
    }
}

class A : B() {
    fun secret(): String {
        return "A"
    }
}

fun launder(list: MutableList<A>) {
    val upcast: List<A> = list
    val covariance: List<B> = upcast
    val downcast: MutableList<B> = covariance as MutableList
    downcast.add(B())
}

val list = mutableListOf<A>()
launder(list)
println(list.size)
println(list[0].name())
println(list.get(0).secret())
"""

# Two instantiations of one generic class whose method checks its argument
# against T, an `is`-guarded `if` that runs both arms, a 3-argument call, a
# method that a subclass overrides, one whose return type it narrows and one
# it inherits, each called through the superclass and on the subclass, and
# a cast on a variable that fails. The reified run stops where `Box<Leaf>`
# keeps a `Base`; the erased run goes on to the failing cast.
DISPATCH_PROGRAM = """\
open class Base {
    fun m(x: Int): Int {
        return x
    }
    fun n(x: Int, y: Int): Int {
        return y
    }
    fun me(): Base {
        return Base()
    }
}

class Leaf : Base() {
    fun m(x: Int): Int {
        return 7
    }
    fun me(): Leaf {
        return Leaf()
    }
}

class Box<T> {
    fun keep(x: Any): T {
        val t = x as T
        return t
    }
}

fun kind(x: Any): String {
    if (x is Leaf) {
        return "leaf"
    } else {
        return "other"
    }
}

fun middle(a: Base, b: Base, c: Base): Base {
    println(kind(a))
    println(kind(c))
    return b
}

fun pair(a: Int, b: Int): Int {
    println(a)
    return b
}

val base: Base = Leaf()
println(pair(10, base.m(1)))
println(pair(20, base.n(2, 3)))
println(Leaf().n(4, 5))
println(Base().m(6))
println(base.me())
val leaves = Box<Leaf>()
val bases = Box<Base>()
println(leaves.keep(Leaf()))
println(bases.keep(Base()))
println(middle(Leaf(), bases.keep(Leaf()), Base()))
println(leaves.keep(Base()))
val y: Any = Base()
val z = y as Leaf
println(z)
"""

# P1's chain launders a `B` into a `MutableList<A>`, and its element is then
# copied into a checked `val`, returned, passed as an argument and tested by
# `if (e as A is A)`: each a variable read that the operation consuming it
# makes itself, with the read's checks. Each form runs first on the honest
# element and then, after the chain, on the laundered one, so the erased run
# fails at the first form it reaches (mutations reorder or drop them); the
# reified run stops at the chain's downcast.
LAUNDERED_READS_PROGRAM = """\
open class B

class A : B() {
    fun name(): String {
        return "A"
    }
}

fun launder(list: MutableList<A>) {
    val upcast: List<A> = list
    val covariance: List<B> = upcast
    val downcast: MutableList<B> = covariance as MutableList
    downcast.add(B())
}

fun copy(list: MutableList<A>, i: Int) {
    val e = list[i]
    val c: A = e
    println(c.name())
}

fun back(list: MutableList<A>, i: Int): A {
    val e = list[i]
    return e
}

fun take(a: A) {
    println(a.name())
}

fun pass(list: MutableList<A>, i: Int) {
    val e = list[i]
    take(e)
}

fun branch(list: MutableList<A>, i: Int) {
    val e = list[i]
    if (e as A is A) {
        println("A")
    }
}

val list = mutableListOf<A>()
list.add(A())
copy(list, 0)
println(back(list, 0).name())
pass(list, 0)
branch(list, 0)
launder(list)
copy(list, 1)
println(back(list, 1).name())
pass(list, 1)
branch(list, 1)
"""

# Bodies whose jumps land on returns. In `pick`, both arms of the inner
# `if` end right before the outer then-branch's end, which ends right
# before `return e`: a chain of jumps to a return whose class check fails
# only on that path, once `e` is laundered; the else-path returns the
# honest `first`. `greet` is a Unit body whose last statement is an `if`,
# and each arm calls a method without arguments on the laundered `e`.
# Every call runs once on honest values first, so the reified run, which
# stops at the chain's downcast, takes every path.
THREADED_PROGRAM = """\
open class B

class A : B() {
    fun name(): String {
        return "A"
    }
}

fun launder(list: MutableList<A>) {
    val upcast: List<A> = list
    val covariance: List<B> = upcast
    val downcast: MutableList<B> = covariance as MutableList
    downcast.add(B())
}

fun pick(list: MutableList<A>, i: Int, x: Any): A {
    val e = list[i]
    val first = list[0]
    if (x is B) {
        if (x is A) {
            println("A")
        } else {
            println("B")
        }
    } else {
        println("other")
        return first
    }
    return e
}

fun greet(list: MutableList<A>, i: Int, x: Any) {
    val e = list[i]
    if (x is A) {
        println(e.name())
    } else {
        e.name()
    }
}

val list = mutableListOf<A>()
list.add(A())
println(pick(list, 0, A()).name())
println(pick(list, 0, B()).name())
println(pick(list, 0, "s").name())
greet(list, 0, A())
greet(list, 0, "s")
launder(list)
println(pick(list, 1, "s").name())
println(pick(list, 1, A()).name())
greet(list, 1, A())
greet(list, 1, "s")
"""

# Two casts in one top-level statement, twice: a cast in a call's receiver
# (`0 as Int`) and one in its argument, and a cast nested in a cast. The
# laundered list takes a `B`, so the erased run fails at the second read of
# an `A`, and the reified run at the laundering cast.
CASTS_PROGRAM = """\
open class B

class A : B() {
    fun name(): String {
        return "A"
    }
}

val m = mutableListOf<A>()
m.add(A())
val l: List<B> = m
val lists = mutableListOf<MutableList<B>>()
lists.add(l as MutableList)
val x: Any = B()
lists.get(0 as Int).add(x as B)
val n = l as List<A> as MutableList
println(n.size)
println(n.get(0).name())
println(n.get(1).name())
"""

_SNIPPETS = ("[0]", ".get(0)", ".size", ".m()", " as Any", " as MutableList", " is A", "<B>")
_CHARS = "abAB01 \n()[]<>{}.,:=\"?"
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_EXPR_END = re.compile(r"(?<=[\w)\]])$", re.MULTILINE)
_KEYWORDS = frozenset({"as", "class", "else", "fun", "if", "interface", "is", "open", "private", "return", "val", "var"})


def mutate(rng: random.Random, text: str) -> str:
    """One character, line or identifier mutation of `text`. Identifier
    mutations, which most often still parse, are the most frequent."""
    kind = rng.choices(("char", "line", "ident"), (1, 2, 4))[0]
    if kind == "char":
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            return text[:i] + text[i + 1:]
        return text[:i] + rng.choice(_CHARS) + text[i + op - 1:]
    if kind == "line":
        lines = text.split("\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        op = rng.randrange(3)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines)
    idents = [m for m in _IDENT.finditer(text) if m.group() not in _KEYWORDS]
    ends = [m.start() for m in _EXPR_END.finditer(text)]
    op = rng.randrange(3)
    if op == 0 and idents:  # rename to another identifier of the text
        m = rng.choice(idents)
        return text[:m.start()] + rng.choice(idents).group() + text[m.end():]
    # Append a snippet after an identifier, or after an expression that ends a line.
    at = rng.choice(ends) if op == 1 and ends else rng.choice(idents).end() if idents else len(text)
    return text[:at] + rng.choice(_SNIPPETS) + text[at:]


def _load_gen():
    spec = importlib.util.spec_from_file_location("_minik_bench_gen", ROOT / "minik_bench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(gen)
    return gen


def make_texts(seed: int, count: int) -> list[tuple[str, str]]:
    """(filename, source) of every text, deterministic in `seed` and `count`."""
    bases = [(p.name, p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src/minik/corpus").glob("*.mk"))]
    bases.append(("index.mk", INDEX_PROGRAM))
    bases.append(("receiver.mk", RECEIVER_PROGRAM))
    bases.append(("dispatch.mk", DISPATCH_PROGRAM))
    bases.append(("reads.mk", LAUNDERED_READS_PROGRAM))
    bases.append(("threaded.mk", THREADED_PROGRAM))
    bases.append(("casts.mk", CASTS_PROGRAM))
    texts = list(bases)
    rng = random.Random(f"differential:{seed}")
    for _ in range(count):
        filename, source = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            source = mutate(rng, source)
        texts.append((filename, source))
    gen = _load_gen()
    for s in (seed, seed + 1):
        for g in (gen.launder(s, functions=3), gen.calltree(s, levels=4)):
            texts.append((g.filename, g.source))
    return texts


# ============================================================
# THE WORKER: one per tree, in its own process
# ============================================================


def work(tree: Path, texts: list[tuple[str, str]]) -> dict:
    """Every text through every form with the `minik` of `tree`."""
    sys.path.insert(0, str(tree / "src"))
    import minik
    from minik.cli import build_or_error, run_command

    imported = Path(minik.__file__).resolve()
    if not imported.is_relative_to(tree):
        raise RuntimeError(f"imported {imported}, not the minik of {tree}")

    results, where = [], {}
    for i, (filename, source) in enumerate(texts):
        builds: dict[bool, object] = {}
        row = []
        for form, command, strict, mode, eager in FORMS:
            try:
                if strict not in builds:
                    builds[strict] = build_or_error(source, filename, strict)
                out, code = run_command(command, source, filename, strict=strict, mode=mode,
                                        eager_checkcast=eager, built=builds[strict])
                row.append(f"exit {code}\n{out}")
            except Exception as exc:  # a host exception is a finding: kept as the result, traced apart
                row.append(f"{HOST_EXCEPTION}{type(exc).__name__}: {exc}")
                frames = traceback.extract_tb(exc.__traceback__)[-3:]
                where[f"{i} {form}"] = [f"{Path(f.filename).name}:{f.lineno} {f.name}" for f in frames]
        results.append(row)
    return {"minik": str(imported.relative_to(tree)), "results": results, "where": where}


def _run_tree(tree: Path, inputs: Path, output: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), str(inputs), str(output)]
    return subprocess.Popen(cmd, env=env, cwd=tree)


# ============================================================
# COMPARISON
# ============================================================


def _first_difference(old: str, new: str) -> str:
    a, b = old.split("\n"), new.split("\n")
    for x, y in zip(a, b):
        if x != y:
            return f"{x!r} -> {y!r}"
    return f"{len(a)} lines -> {len(b)} lines"


def compare(old_tree: Path, new_tree: Path, seed: int = 0, count: int = 2000) -> dict:
    """The summary of running `make_texts(seed, count)` through both trees."""
    texts = make_texts(seed, count)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "texts.json"
        inputs.write_text(json.dumps(texts), encoding="utf-8")
        outs = [Path(tmp) / "old.json", Path(tmp) / "new.json"]
        procs = [_run_tree(Path(t).resolve(), inputs, o) for t, o in zip((old_tree, new_tree), outs)]
        for p in procs:
            p.wait()
        for p in procs:
            if p.returncode != 0:
                raise RuntimeError(f"worker {p.args} exited with {p.returncode}")
        old, new = (json.loads(o.read_text(encoding="utf-8")) for o in outs)

    host = {"old": [], "new": []}
    where = {"old": old["where"], "new": new["where"]}
    differences: dict[str, dict] = {}
    for i, (old_row, new_row) in enumerate(zip(old["results"], new["results"])):
        for (form, *_), a, b in zip(FORMS, old_row, new_row):
            for side, r in (("old", a), ("new", b)):
                if r.startswith(HOST_EXCEPTION):
                    host[side].append({"text": i, "form": form, "error": r[len(HOST_EXCEPTION):],
                                       "where": where[side][f"{i} {form}"]})
            if a == b:
                continue
            group = differences.setdefault(form, {"count": 0, "by_first_line": {}, "examples": []})
            group["count"] += 1
            key = _first_difference(a, b)
            group["by_first_line"][key] = group["by_first_line"].get(key, 0) + 1
            if len(group["examples"]) < 3:
                group["examples"].append({"text": i, "filename": texts[i][0], "source": texts[i][1],
                                          "old": a, "new": b})
    return {
        "old_tree": str(old_tree),
        "new_tree": str(new_tree),
        "old_minik": old["minik"],
        "new_minik": new["minik"],
        "seed": seed,
        "count": count,
        "forms": [f[0] for f in FORMS],
        "texts": len(texts),
        "results": len(texts) * len(FORMS),
        "host_exceptions": {side: len(found) for side, found in host.items()},
        "host_exception_examples": {side: found[:5] for side, found in host.items()},
        "differing_results": sum(g["count"] for g in differences.values()),
        "differences": differences,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        tree, inputs, output = argv[1:]
        texts = json.loads(Path(inputs).read_text(encoding="utf-8"))
        Path(output).write_text(json.dumps(work(Path(tree), texts)), encoding="utf-8")
        return 0
    ap = argparse.ArgumentParser(description="Compare two miniK source trees on the same texts.")
    ap.add_argument("old_tree", type=Path)
    ap.add_argument("new_tree", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=2000, help="mutated texts, besides the fixed ones")
    ap.add_argument("--out", type=Path, help="where to write the JSON summary (default: stdout)")
    args = ap.parse_args(argv)
    summary = compare(args.old_tree, args.new_tree, args.seed, args.count)
    text = json.dumps(summary, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
        print(f"texts={summary['texts']} results={summary['results']} "
              f"differing={summary['differing_results']} host_exceptions={summary['host_exceptions']}")
    return 0 if summary["differing_results"] == 0 and not any(summary["host_exceptions"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
