"""The quick-schedule Table 2 rows, pinned character for character.

``paper_table2`` times a fixed-budget variant of the Table 2 experiment (see
``perfbench/README.md``); this test keeps the quick-schedule rows of the
repository's Table 2 bench pinned to the ones recorded with the benchmark.
Takes about half a minute.
"""

import json

from repro.analysis.tables import generate_table2
from repro.workloads.suite import table1_suite

from harness import DEFAULT_SEED
from workloads import EXPECTED, QUICK_TABLE2_CONFIG, quick_table2_rows


def test_quick_table2_rows_are_unchanged():
    rows, _ = generate_table2(table1_suite(groups=("small",)), config=QUICK_TABLE2_CONFIG, seed=DEFAULT_SEED)
    pinned = json.loads((EXPECTED / "table2_quick_rows.json").read_text())["rows"]
    assert quick_table2_rows(rows) == pinned
