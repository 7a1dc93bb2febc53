"""Write the reference outputs the benchmark compares against.

Run from the repository root on the commit whose outputs are the
reference:

    python3 perfbench/make_goldens.py

It writes ``perfbench/goldens/``: the ``table2 --full`` CSV and the
``errata`` text as the CLI produces them, and the final state of every
``integrate_system`` run of the ``systems`` workload as float hex strings.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nsfd import cli  # noqa: E402
from nsfd.systems import get_system, integrate_system, second_order_config  # noqa: E402

from workloads import GOLDEN_DIR, SYSTEMS_PLAN, _hex_state  # noqa: E402


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with redirect_stdout(io.StringIO()):
        rc = cli.main(["table2", "--full", "--out", str(GOLDEN_DIR / "table2_full.csv")])
        rc |= cli.main(["errata", "--out", str(GOLDEN_DIR / "errata.txt")])
    finals = {}
    for name, (start, t_end, grid, _) in SYSTEMS_PLAN.items():
        system = get_system(name)
        cfg = second_order_config(system)
        finals[name] = {repr(h): _hex_state(integrate_system(system, cfg, start, h, t_end).final_state)
                        for h in grid}
    (GOLDEN_DIR / "systems.json").write_text(json.dumps(finals, indent=1) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
