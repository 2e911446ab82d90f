"""Compare two ``tailtilt bench --table all`` sweeps cell by cell.

Run from the repository root:

    python3 tools/sweep_diff.py before.csv after.csv --reps 40

Rows are paired by method, family, params and p. A pair is identical when
every column but ``seconds`` and ``wnrv`` matches; otherwise it has moved,
by |Δu_hat| / √((sd₁² + sd₂²) / reps) combined standard errors. The script
prints the two counts, the largest move, and the largest relative move
|Δu_hat| / u_hat among the moved rows, which tells a move in the last digits
from a redraw; it exits 1 when the two files hold different cells or any
move exceeds 4. With ``--exact`` it also exits 1 when any row moved at all,
so that a change meant to keep every estimate's bits shows it by the exit
code.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

KEY = ("method", "family", "params", "p")
TIMING = ("seconds", "wnrv")
BOUND = 4.0  # largest move accepted, in combined standard errors


def read(path: str) -> dict[tuple, dict]:
    """The rows of a sweep CSV keyed by cell; ``csv`` keeps the commas inside
    the 4-d ``params`` field in one column."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = {tuple(r[k] for k in KEY): r for r in rows}
    if len(cells) != len(rows):
        raise SystemExit(f"{path}: {len(rows) - len(cells)} duplicate cells")
    return cells


def moved_by(a: dict, b: dict, reps: int) -> float:
    """|Δu_hat| in combined standard errors of the two means."""
    du = abs(float(a["u_hat"]) - float(b["u_hat"]))
    se = math.sqrt((float(a["sd"]) ** 2 + float(b["sd"]) ** 2) / reps)
    return du / se if se > 0.0 else (0.0 if du == 0.0 else math.inf)


def moved_rel(a: dict, b: dict) -> float:
    """|Δu_hat| relative to the first file's u_hat."""
    du = abs(float(a["u_hat"]) - float(b["u_hat"]))
    u = abs(float(a["u_hat"]))
    return du / u if u > 0.0 else (0.0 if du == 0.0 else math.inf)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--reps", type=int, required=True, help="replications per cell (--reps)")
    ap.add_argument("--exact", action="store_true", help="fail on any moved row")
    opt = ap.parse_args(argv)
    before, after = read(opt.before), read(opt.after)

    ok = True
    for cell in sorted(before.keys() ^ after.keys()):
        print(f"only in {'before' if cell in before else 'after'}: {cell}")
        ok = False

    identical, moves = 0, []
    for cell in sorted(before.keys() & after.keys()):
        a, b = before[cell], after[cell]
        if all(a[k] == b[k] for k in a if k not in TIMING):
            identical += 1
        else:
            moves.append((moved_by(a, b, opt.reps), moved_rel(a, b), cell))
    worst = max(moves, default=(0.0, 0.0, None))
    worst_rel = max(moves, key=lambda m: m[1], default=(0.0, 0.0, None))
    print(f"identical rows: {identical}")
    print(f"moved rows: {len(moves)}")
    print(f"largest move: {worst[0]:.4g} combined standard errors"
          + (f" at {worst[2]}" if worst[2] is not None else ""))
    print(f"largest relative move: {worst_rel[1]:.4g}"
          + (f" at {worst_rel[2]}" if worst_rel[2] is not None else ""))
    for z, _, cell in moves:
        if z > BOUND:
            print(f"beyond {BOUND:g}: {z:.4g} at {cell}")
            ok = False
    if opt.exact and moves:
        print(f"--exact: {len(moves)} rows moved")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
