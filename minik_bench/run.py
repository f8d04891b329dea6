"""miniK benchmark entry point.

    python3 minik_bench/run.py --workload corpus|launder|calltree --seed N --seconds S --trace 0|1

Run from the repository root. Builds nothing: miniK is pure Python and is
imported from `src/`. With `--trace 0` it measures set-up in fresh
interpreters, then runs the workload in this interpreter (`workload.py`),
which has not imported miniK before, and reports every end-to-end metric of
`BENCHMARK.json`, each time scaled to the reference host speed (see
`calibrate.py`). With
`--trace 1` it reports every per-layer metric from a traced run instead.
Human-readable lines come first; the last stdout line is one JSON object.
Exit code 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "launder", "calltree")
SETUP_PROBES = 30  # measured fresh interpreters per run, after one unmeasured
PROBE_TIMEOUT_S = 30


def tail(values: list[float]) -> tuple[str, float]:
    """The highest common percentile with at least ten samples beyond it,
    or the maximum when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            return f"p{q:g}", ordered[min(n - 1, math.ceil(n * q / 100) - 1)]
    return "max", ordered[-1]


def setup_samples() -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, each with the kernel time its
    interpreter measured right after."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    samples, kernels = [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if i:  # the first probe may also write bytecode caches
            elapsed, kernel = map(float, done.stdout.split())
            samples.append(elapsed)
            kernels.append(kernel)
    return samples, kernels


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="miniK benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "minik" / "cli.py").is_file():
        print(f"error: no miniK sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not args.trace:
        setup, setup_kernels = setup_samples()
    import workload  # imports miniK: only after the set-up probes

    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        values = result["layers"]
        print(f"traced passes: {result['traced_passes']}  (layer numbers are per pass, medians)")
    else:
        samples, kernels = result["samples"], result["kernels"]
        samples["setup_s"], kernels["setup_s"] = setup, setup_kernels
        print(f"  kernel median {statistics.median(result['calibrations']) * 1e3:.4g} ms over"
              f" {len(result['calibrations'])} calibrations (reference {calibrate.REFERENCE_S * 1e3:g} ms)")
        print("  metric             raw median, raw tail, samples -> scaled median")
        values = {}
        for name, v in samples.items():
            values[name] = statistics.median(x * calibrate.REFERENCE_S / k for x, k in zip(v, kernels[name]))
            label, value = tail(v)
            print(f"  {name:<18} median {statistics.median(v):.6g}  {label} {value:.6g}  n={len(v)}"
                  f"  -> {values[name]:.6g}")
        values["peak_rss_mb"] = result["peak_rss_mb"]
        print(f"  {'peak_rss_mb':<18} {values['peak_rss_mb']:.6g}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<18} {rate:.6g}  ({result['failed']} of {result['attempted']} invocations)")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
