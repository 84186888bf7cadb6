"""Exit 0 if two `cliquex verify` JSON reports are equal once their
elapsed_ms fields are set to 0, else exit 1. When they differ, name the
first differing top-level key, or the first differing grid cell by its
lemma, n, m and s, on stderr.

Usage: python .github/scripts/same_report.py A.json B.json
"""

import json
import sys
from itertools import zip_longest

a, b = (dict(json.load(open(path)), elapsed_ms=0) for path in sys.argv[1:])
if a != b:
    key = next(k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k))
    where = f"top-level key {key!r}"
    if key == "grid" and isinstance(a.get(key), list) and isinstance(b.get(key), list):
        x, y = next((x, y) for x, y in zip_longest(a[key], b[key], fillvalue={}) if x != y)
        cell = x or y
        where = "grid cell " + ", ".join(
            f"{name}={cell[name]!r}" for name in ("lemma", "n", "m", "s") if name in cell
        )
    print(f"reports differ: first at {where}", file=sys.stderr)
sys.exit(a != b)
