"""Fixed stdlib-only work that measures how fast the machine is right now.

The benchmark runs this script in a fresh process next to every sample and
divides the sample's time by this script's time. It does what charbound's
runs do most: start an interpreter, build many small frozen dataclasses
holding big integers, and render them as indented JSON. It shares no code
with charbound, so a change to charbound cannot change its time.
"""

import json
from dataclasses import dataclass

ROWS = 25000


@dataclass(frozen=True)
class Row:
    index: int
    values: tuple


def main() -> int:
    rows, x = [], 1
    for i in range(ROWS):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        rows.append(Row(i, (x, x >> 7, x * x, i * i)))
    text = json.dumps([{"index": r.index, "values": list(r.values)} for r in rows], indent=2)
    return 0 if len(text) > ROWS else 1


if __name__ == "__main__":
    raise SystemExit(main())
