"""Regenerate the paper-batch mapping digest table (``digests.json``).

    python3 perfbench/make_digests.py [--tasks N ...] [--seed S] [--seconds S]

For each |T| it maps every (scenario, heuristic) cell paper-batch maps
for the seed and run length and records the SHA-256 of the canonical mapping
bytes.  Mappings are byte-identical across kernel modes, processes and
``PYTHONHASHSEED`` values, so the table only changes when a change
alters mapping bytes on purpose.
"""

from __future__ import annotations

import argparse
import json

from common import default_path_env, ensure_src_on_path
from paper_batch import DIGESTS, generate, mapping_digest, n_ops_for


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_digests.py")
    parser.add_argument("--tasks", type=int, nargs="+", default=[1024, 32])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    opts = parser.parse_args()
    default_path_env()
    ensure_src_on_path()
    from repro.heuristics import HEURISTIC_NAMES, run_heuristic

    table = {}
    for n_tasks in opts.tasks:
        scenarios = generate(n_tasks, opts.seed, n_ops_for(opts.seconds))
        table[f"{n_tasks}:{opts.seed}"] = {
            f"{name}/{h}": mapping_digest(run_heuristic(h, scenario).schedule)
            for name, scenario in sorted(scenarios.items())
            for h in HEURISTIC_NAMES
        }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
