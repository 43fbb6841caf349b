"""Compare two per-point result files point by point.

    python3 perfbench/diff.py OLD.points.json NEW.points.json

The files are the ``perfbench/out/<workload>-seed<n>.points.json`` that
``run.py`` writes.  Every grid point's simulated cycles, load-interlock
cycles and output digest must be identical; the exit code is 1 if any
point differs or is missing from one side, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIELDS = ("cycles", "interlocks", "digest")


def diff(old: dict, new: dict) -> list[str]:
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in new or key not in old:
            side = "new" if key not in new else "old"
            lines.append(f"{key}: missing from {side}")
            continue
        for field in FIELDS:
            if old[key][field] != new[key][field]:
                lines.append(f"{key}: {field} {old[key][field]} -> "
                             f"{new[key][field]}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text())["points"]
                for path in argv)
    lines = diff(old, new)
    for line in lines:
        print(line)
    total = {side: sum(p["cycles"] for p in points.values())
             for side, points in (("old", old), ("new", new))}
    print(f"{len(set(old) | set(new))} points, {len(lines)} differences; "
          f"total cycles {total['old']} -> {total['new']}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
