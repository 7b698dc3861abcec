"""End-to-end benchmark of the reproduction; see NOTES.md beside this file.

Run from the repository root:

    python3 perfbench/run.py --workload warm_sharing_study --seed 7 \
        --seconds 10 --trace 0

Logs go to stderr. Stdout gets two JSON lines: the run's provenance (host
fingerprint, source revision, tier/backend counts), then the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import logging
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(
        "cold_record", "warm_policy_sweep", "warm_sharing_study"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one: the set-up child is
    # killed and reaped, and the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, __: sys.exit(128 + signum))
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(asctime)s %(name)s: %(message)s")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.bench import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": result.pop("provenance")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
