"""Record the pinned Table 2 rows: ``python3 perfbench/record_expected.py``.

Writes two files under ``expected/``, both with the default seed and exact
float reprs:

* ``paper_table2_rows.json`` — each entry's ETR / ECS row of pass A of the
  ``paper_table2`` workload, which every default-seed run is checked against;
* ``table2_quick_rows.json`` — the ``generate_table2`` rows of the quick
  Table 2 schedule, which ``tests/test_table2_quick.py`` is checked against.

Rerun this only when a change is meant to move those numbers, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from harness import DEFAULT_SEED  # noqa: E402
from repro.analysis.comparison import compare_models  # noqa: E402
from repro.analysis.tables import generate_table2  # noqa: E402
from repro.workloads.suite import table1_suite  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED,
    QUICK_TABLE2_CONFIG,
    TABLE2_CONFIG,
    TABLE2_SCHEDULE,
    PaperTable2,
    quick_table2_rows,
    table2_row,
)


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        workload = PaperTable2(seed=DEFAULT_SEED, work_dir=Path(scratch))
        workload.setup()
        rows = {}
        for (entry, cdcg, platform), seed in zip(workload.apps, workload.passes()[0][1]):
            rows[entry.name] = table2_row(compare_models(cdcg, platform, TABLE2_CONFIG, seed=seed))
    payload = {
        "seed": DEFAULT_SEED,
        "schedule": {
            "cooling_factor": TABLE2_SCHEDULE.cooling_factor,
            "moves_per_temperature": TABLE2_SCHEDULE.moves_per_temperature,
            "max_evaluations": TABLE2_SCHEDULE.max_evaluations,
        },
        "columns": ["etr", "ecs_035", "ecs_007"],
        "rows": rows,
    }
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / "paper_table2_rows.json").write_text(json.dumps(payload, indent=1) + "\n")
    rows, _ = generate_table2(table1_suite(groups=("small",)), config=QUICK_TABLE2_CONFIG, seed=DEFAULT_SEED)
    quick = {"seed": DEFAULT_SEED, "rows": quick_table2_rows(rows)}
    (EXPECTED / "table2_quick_rows.json").write_text(json.dumps(quick, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
