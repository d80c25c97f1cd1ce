"""Run one workload of the slimrnn benchmark.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Workloads: desk, paper, certify (see perfbench/core.py). With --trace 0 the
end-to-end metrics are measured; with --trace 1 the per-layer ones and the
tracing overhead. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every output check passed. The engine
is imported from the src/ directory next to perfbench/, never from an
installed copy.
"""

import os

# One BLAS thread, pinned before NumPy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slimrnn" / "__init__.py").is_file():
        print(f"run.py: no slimrnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import core

    if args.workload not in core.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(core.WORKLOADS)}")
    run = core.Run(core.WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace)).execute()
    for line in run.report():
        print(line)
    result = run.result()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
