"""``tools/src_size.py``: the plain report and ``--json`` count the same."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "src_size.py"


def run(*args: str) -> str:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, check=True
    ).stdout


def test_json_holds_the_reported_size():
    size = json.loads(run("--json"))
    report = dict(line.rsplit(None, 1) for line in run().splitlines()[:-1])
    assert size["src_lines"] == sum(size["packages"].values()) == int(report["total"])
    assert {name: str(lines) for name, lines in size["packages"].items()} == {
        name: lines for name, lines in report.items() if name != "total"
    }
    assert run().splitlines()[-1].endswith(f": {size['constructor_args']}")
