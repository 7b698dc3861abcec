"""Regenerate golden_seed42.json: the expected outcomes of every workload
at seed 42 and the default size, replayed on the object model
(``fastpath=False, native=False``) over streams recorded in memory.

Run from the repository root, only when a change is meant to alter
simulated statistics:

    python3 perfbench/make_golden.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import workloads
    from perfbench.bench import GOLDEN_PATH, GOLDEN_SEED, normalize
    from perfbench.spans import NO_TRACE

    config = workloads.DEFAULT_CONFIG
    __, recorded = workloads.load_artifacts(config, GOLDEN_SEED, None,
                                            NO_TRACE)
    payload = {
        "seed": GOLDEN_SEED,
        "accesses": config.accesses,
        "apps": list(config.apps),
        "workloads": {
            name: normalize(workloads.reference(name, config, GOLDEN_SEED,
                                                recorded))
            for name in workloads.WORKLOADS
        },
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
