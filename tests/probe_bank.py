"""How far the acceptance bank's single runs move when every reading is
scaled by (1 + 1e-13).

Reruns the bank's 100 actsense and random directional runs (10 worlds x
5 folds, L=3, lambda=100) on the generated readings and on the nudged
ones, then prints how many year RMSEs moved by more than 1e-9 relative
and the largest move, and exits 1 if any did.  A fit whose result hangs
on float summation order shows up here.  The file is not a test module,
so pytest does not collect it; it takes one to two minutes:

    PYTHONPATH=src python3 tests/probe_bank.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_acceptance import BANK_SEEDS, _bank_run, _bank_world, _nudged  # noqa: E402

THRESHOLD = 1e-9


def main():
    moves = []
    for seed in BANK_SEEDS:
        tensor, splits = _bank_world(seed)
        nudged = _nudged(tensor)
        for f in range(5):
            for strategy in ("random", "actsense"):
                base = _bank_run(tensor, splits[f], strategy, seed * 100 + f)
                moved = _bank_run(nudged, splits[f], strategy, seed * 100 + f)
                moves.append(abs(moved - base) / base)
    over = sum(m > THRESHOLD for m in moves)
    print(f"{over}/{len(moves)} runs moved by more than {THRESHOLD:g} relative "
          f"(max {max(moves):.3g})")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
