"""Record the reference table the output checks compare against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

It runs every workload command once, and every seeded command once per seed
in ``range(SEEDS)``, as ``python -m quadorbit.cli`` children against
``src/``, and writes exit codes and report digests to
``perfbench/reference.json``, with the simulate levels that miss three
sigma at each seed.  It prints what the cross-checks find, for review.
"""

from __future__ import annotations

import json
import sys

from checks import REFERENCE_PATH, OutputChecker, report_digest, sigma_misses
from run import run_child
from workloads import WORKLOADS, workload_commands

SEEDS = 512


def main() -> int:
    commands: dict[str, dict] = {}
    for workload in WORKLOADS:
        texts = {}
        for i, cmd in enumerate(workload_commands(workload, 0)):
            if cmd.seeded:
                by_seed, misses, exits = {}, {}, set()
                for seed in range(SEEDS):
                    child = run_child(("-m", "quadorbit.cli", *workload_commands(workload, seed)[i].argv))
                    text = child.stdout
                    exits.add(child.exit)
                    by_seed[str(seed)] = report_digest(text)
                    if cmd.key == "session.simulate" and sigma_misses(text):
                        misses[str(seed)] = sigma_misses(text)
                        print(f"{cmd.key} seed {seed}: levels {misses[str(seed)]} miss three sigma", file=sys.stderr)
                (rc,) = exits
                commands[cmd.key] = {"exit": rc, "sha256_by_seed": by_seed}
                if misses:
                    commands[cmd.key]["sigma_misses"] = misses
            else:
                child = run_child(("-m", "quadorbit.cli", *cmd.argv))
                rc, texts[cmd.key] = child.exit, child.stdout
                commands[cmd.key] = {"exit": rc, "sha256": report_digest(child.stdout)}
            print(f"{cmd.key}: exit {rc}", file=sys.stderr)
        for key, reason in OutputChecker({}, 0).cross_check(workload, texts):
            print(f"{key}: {reason}", file=sys.stderr)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"seeds": SEEDS, "commands": commands}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
