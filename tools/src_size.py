"""Report the size of ``src/repro``: lines per top-level package, the
total, and the argument count of ``HybridStorageSystem.__init__``.

Lines are counted as ``wc -l`` counts them (newline characters), so the
total equals ``find src/repro -name '*.py' | xargs cat | wc -l``.  The
modules directly under ``src/repro`` are reported together as
``(top level)``.  Standard library only::

    python tools/src_size.py
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
TOP_LEVEL = "(top level)"


def lines_per_package(root: Path) -> Counter:
    """``.py`` line counts under ``root``, keyed by top-level package."""
    counts: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else TOP_LEVEL
        counts[package] += path.read_bytes().count(b"\n")
    return counts


def constructor_arguments(root: Path) -> int:
    """Parameters of ``HybridStorageSystem.__init__``, ``self`` excluded."""
    tree = ast.parse((root / "core" / "system.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "HybridStorageSystem":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    named = args.posonlyargs + args.args + args.kwonlyargs
                    starred = [a for a in (args.vararg, args.kwarg) if a]
                    return len(named) + len(starred) - 1
    raise SystemExit("HybridStorageSystem.__init__ not found")


def main() -> int:
    counts = lines_per_package(SRC)
    width = max(len(name) for name in counts)
    for name in sorted(counts):
        print(f"{name:<{width}}  {counts[name]:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")
    print(f"HybridStorageSystem.__init__ arguments: {constructor_arguments(SRC)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
