"""Record the reference normal forms of the `normalize` workload.

Usage (from the root of a checkout): python3 perfbench/record_normal_forms.py

Normalizes every definition of the files through level 0, each in its own
process under an 8 s limit and the workload's memory limit, and writes the length
and sha256 of each normal form (without the trailing newline) to
perfbench/expected/normal_forms.json. A definition that does not normalize
within the limit is recorded as null: ops on it count as failed.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

# Below the workload's op limit, so that every recorded definition has
# headroom when the workload runs on a contended host.
RECORD_LIMIT_S = 8.0


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    files, defs = run.normalize_inputs()
    recorded = {}
    for name in defs:
        argv = [sys.executable, "-m", "minihott", "normalize", *files, "--name", name]
        result = run.spawn(argv, RECORD_LIMIT_S)
        if result.code != 0:
            recorded[name] = None
        else:
            text = result.stdout[:-1] if result.stdout.endswith(b"\n") else result.stdout
            recorded[name] = {"bytes": len(text), "sha256": hashlib.sha256(text).hexdigest()}
        print(name, recorded[name], f"{result.wall_s:.2f} s", flush=True)
    run.EXPECTED_NORMAL_FORMS.parent.mkdir(exist_ok=True)
    run.write_json(run.EXPECTED_NORMAL_FORMS, recorded)
    return 0


if __name__ == "__main__":
    sys.exit(main())
