#!/usr/bin/env bash
# No output byte may depend on the worker count or the string hash seed.
# Each row runs one cliquex command from a fresh interpreter (the pool is
# imported only when a command asks for workers) twice: serially under
# PYTHONHASHSEED=1, and on the row's worker count under PYTHONHASHSEED=2.
# same_report.py compares the two outputs and holds both to the row's pin,
# if any; the pins are perfbench's ENUM_PINS and REPORT_PINS. The pooled
# runs peel kernels and run the cut test in forked workers (extremal-kernels
# --nmax 7 on a walk that starts above order 3), carry clique counts there
# at s = 5 and at clique orders up to and beyond the order (max-cliques
# --s 3..8 at n <= 7), fold n = 8 from the first child of each class among
# its leaves, fold orders 7 and 8 from one walk of the order-8 tree, at
# clique orders up to 8 (max-cliques --nmax 8 --s 3..8), bound each task's
# top order before its parent tests, so that a task drops the cells none of
# its accepted children attain (every theorem row; the pinned
# max-cliques --nmax 8 --s 3,4 and s-order --nmax 8), and run the lemma
# checks and pickle their pendant-star families, those of order 7 from the
# order-8 tasks too (lemmas --nmax 8).
#
# Usage: RUNNER_TEMP=$(mktemp -d) PYTHONPATH=src bash .github/scripts/cold_start.sh
set -euo pipefail
row='enumerate --n 6 prints 112 classes'
trap 'echo "cold_start.sh: failed at row: $row" >&2' ERR
test "$(python -m cliquex enumerate --n 6 --workers 2 | wc -l)" -eq 112
while read -r workers pin args; do
  row="$args, pooled on $workers"
  PYTHONHASHSEED=1 python -m cliquex $args > "$RUNNER_TEMP/serial"
  PYTHONHASHSEED=2 python -m cliquex $args --workers "$workers" > "$RUNNER_TEMP/pooled"
  python "$(dirname "$0")/same_report.py" "$RUNNER_TEMP/serial" "$RUNNER_TEMP/pooled" ${pin#-}
done <<'ROWS'
3 - enumerate --n 7
2 - enumerate --n 8 --m 14
2 8e7075e223c1a2727f8de7b26c35d98364a8c70bcffefd84594ff010a420c738 enumerate --n 8
2 - verify max-cliques --nmax 5 --s 3
2 - verify max-cliques --nmax 7 --s 3,4,5
2 - verify max-cliques --nmax 7 --s 3,4,5,6,7,8
2 ccf7e2b8788d914915e5025b027cdb96b4ffd7596e24861904d3fc66d1a6b4d9 verify max-cliques --nmax 8 --s 3,4
2 - verify max-cliques --nmax 8 --s 3,4,5,6,7,8
2 - verify extremal-kernels --nmax 6 --s 3,4
2 - verify extremal-kernels --nmax 7 --s 4,5
1 - verify s-order --nmax 6
2 - verify s-order --nmax 6
2 c25723f54e552afa7255a5ffa75e0e2b1f087641a0f31c61fa0e5d93217b20f6 verify s-order --nmax 8
2 787374cee939431a8825771f276fba885272702844b37dde42343637af30ee56 verify lemmas --nmax 7 --seed 0
2 - verify lemmas --nmax 6 --seed 5 --iterations 200
2 - verify lemmas --nmax 8 --seed 0 --iterations 200
ROWS
