"""Exit 0 if two `cliquex verify` JSON reports are equal once their
elapsed_ms fields are set to 0, else exit 1.

Usage: python .github/scripts/same_report.py A.json B.json
"""

import json
import sys

a, b = (dict(json.load(open(path)), elapsed_ms=0) for path in sys.argv[1:])
sys.exit(a != b)
