"""Exit 0 if two cliquex outputs are the same, else exit 1.

Two `cliquex verify` JSON reports are the same when they are equal once
their elapsed_ms fields are set to 0; when they differ, the first
differing top-level key, or the first differing grid cell by its lemma,
n, m and s, is named on stderr. Any other output, such as the graph6
lines of `cliquex enumerate`, must match byte for byte, and the first
differing line is named.

Given a sha256 pin as well, both outputs must also hash to it. A report
is hashed with elapsed_ms set to 0, dumped with sorted keys and indent 2,
as `VerificationReport.to_json(timing=False)` writes it; any other output
is hashed as it is.

Usage: python .github/scripts/same_report.py A B [PIN]
"""

import hashlib
import json
import sys
from itertools import zip_longest


def load(path):
    """The report in path with elapsed_ms set to 0, or its raw bytes if it holds no report."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        report = json.loads(data)
    except ValueError:  # not JSON, or not text
        return data
    return dict(report, elapsed_ms=0) if isinstance(report, dict) else data


def digest(output):
    if isinstance(output, dict):
        output = json.dumps(output, sort_keys=True, indent=2).encode()
    return hashlib.sha256(output).hexdigest()


def first_difference(a, b):
    if type(a) is not type(b):
        return "the top: one is a report, the other is not"
    if isinstance(a, bytes):
        offset = next(i for i, (x, y) in enumerate(zip_longest(a, b)) if x != y)
        line = a.count(b"\n", 0, offset) + 1
        return f"line {line}"
    key = next(k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k))
    if key == "grid" and isinstance(a.get(key), list) and isinstance(b.get(key), list):
        x, y = next((x, y) for x, y in zip_longest(a[key], b[key], fillvalue={}) if x != y)
        cell = x or y
        return "grid cell " + ", ".join(
            f"{name}={cell[name]!r}" for name in ("lemma", "n", "m", "s") if name in cell
        )
    return f"top-level key {key!r}"


paths, pins = sys.argv[1:3], sys.argv[3:]
a, b = (load(path) for path in paths)
failed = a != b
if failed:
    print(f"outputs differ: first at {first_difference(a, b)}", file=sys.stderr)
for pin in pins:
    for path, output in zip(paths, (a, b)):
        if digest(output) != pin:
            failed = True
            print(f"{path} hashes to {digest(output)}, not to the pin {pin}", file=sys.stderr)
sys.exit(failed)
