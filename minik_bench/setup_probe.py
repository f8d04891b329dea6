"""Set-up cost as a user pays it: in a fresh interpreter, `import minik`
plus the first `cli.build` of a one-line program (which parses the
prelude). Prints the elapsed seconds, then the median time of five runs of
the calibration kernel taken right after, in the same process."""

import statistics
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import minik.cli  # noqa: E402

checked, diags = minik.cli.build("println(1)\n", "setup.mk")
elapsed = time.perf_counter() - start
if checked is None or diags:
    sys.exit(f"set-up build failed: {[d.render() for d in diags]}")

import calibrate  # noqa: E402

print(repr(elapsed), repr(statistics.median(calibrate.measure() for _ in range(5))))
