"""Steadiness check for the benchmark's end-to-end metrics.

    python3 minik_bench/steadiness.py run OUT.jsonl --seeds 1 10
    python3 minik_bench/steadiness.py report FIRST.jsonl [SECOND.jsonl]

`run` runs `run.py --trace 0` for `run_seconds`, once per seed and per
workload of BENCHMARK.json, one after another, appending each result line
to OUT.jsonl. `report` prints, per workload and metric, the median over the
runs, the spread (distance between the first and third quartile from
`statistics.quantiles(values, n=4)`, as a share of the median) and the
metric's bound from BENCHMARK.json. Given a second set,
it also prints how much worse the second median is than the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(out: Path, first: int, last: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    with open(out, "a", encoding="utf-8") as f:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in range(first, last + 1):
                start = time.monotonic()
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    capture_output=True, text=True, cwd=ROOT)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                    status = 1
                    continue
                row = json.loads(lines[-1])
                row.update(workload=workload, seed=seed, wall_s=time.monotonic() - start)
                f.write(json.dumps(row) + "\n")
                f.flush()
                print(f"{workload} seed {seed}: correct={row['correct']} wall {row['wall_s']:.1f}s", flush=True)
    return status


def _load(path: Path) -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        rows.setdefault(row["workload"], []).append(row)
    return rows


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(first: Path, second: Path | None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [_load(first)] + ([_load(second)] if second else [])
    header = "| workload | metric | bound | " + " | ".join(
        f"set {i + 1}: median, spread" for i in range(len(sets)))
    header += " | set 2 vs set 1 |" if second else " |"
    print(header)
    print("|" + "---|" * (header.count("|") - 1))
    for workload in sets[0]:
        for m in spec["end_to_end"]:
            name, cells = m["name"], []
            medians = []
            for rows in sets:
                values = [r["metrics"][name]["value"] for r in rows.get(workload, [])]
                medians.append(statistics.median(values))
                cells.append(f"{medians[-1]:.4g} {m['unit']}, {_spread(values):.1%} (n={len(values)})")
            line = f"| {workload} | {name} | {m['bound']:.0%} | " + " | ".join(cells)
            if second:
                line += f" | {medians[1] / medians[0] - 1:+.1%}"
            print(line + " |")
        correct = all(r["correct"] for rows in sets for r in rows.get(workload, []))
        print(f"| {workload} | all outputs correct | | {correct} |" + (" | |" if second else ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("out", type=Path)
    p.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    p = sub.add_parser("report")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path, nargs="?")
    args = ap.parse_args(argv)
    if args.command == "run":
        return run(args.out, args.seeds[0], args.seeds[1])
    return report(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
