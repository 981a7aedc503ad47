"""Compare two CLI grid directories number by number.

Usage: python tools/grid_diff.py A B

For every file that differs between the two directories (as written by
tools/cli_grid.py), print the largest relative change among its numbers,
|a - b| / max(|a|, |b|). Exit 1 when any non-numeric text differs (a file
present on one side only counts as such), or when any number moves by more
than TOLERANCE relative; exit 0 otherwise, also when nothing differs.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

TOLERANCE = 1e-12
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between the numbers, and the numbers."""
    return NUMBER.split(text), [float(x) for x in NUMBER.findall(text)]


def relative_change(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare(a: str, b: str) -> float | None:
    """Largest relative change between the numbers of two texts, or None
    when their non-numeric text differs."""
    text_a, nums_a = split_numbers(a)
    text_b, nums_b = split_numbers(b)
    if text_a != text_b:
        return None
    return max(map(relative_change, nums_a, nums_b), default=0.0)


def main(a_dir: Path, b_dir: Path) -> int:
    names = sorted({p.name for p in a_dir.iterdir()} | {p.name for p in b_dir.iterdir()})
    failed = False
    for name in names:
        a_path, b_path = a_dir / name, b_dir / name
        if not (a_path.is_file() and b_path.is_file()):
            print(f"{name}: only in {a_dir if a_path.is_file() else b_dir}")
            failed = True
            continue
        a, b = a_path.read_text(encoding="utf-8"), b_path.read_text(encoding="utf-8")
        if a == b:
            continue
        change = compare(a, b)
        if change is None:
            print(f"{name}: non-numeric text differs")
            failed = True
        else:
            print(f"{name}: largest relative change {change:.3g}")
            failed |= change > TOLERANCE
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print("usage: python tools/grid_diff.py A B", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(Path(sys.argv[1]), Path(sys.argv[2])))
