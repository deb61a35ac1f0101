"""Table 1: the baseline out-of-order core configuration."""

from repro.config import CoreConfig, DvrConfig
from repro.core.hw_cost import total_bytes
from repro.harness.experiments import run_figure

from conftest import run_and_print


def test_table1_configuration(benchmark):
    result = run_and_print(benchmark, run_figure, "table1")
    rows = dict((k, v) for k, v in result.rows)
    assert rows["ROB size"] == "350"


def test_dvr_hardware_overhead(benchmark):
    """Section 4.4: DVR's structures cost exactly 1139 bytes."""
    total = benchmark(total_bytes, DvrConfig(), CoreConfig())
    print(f"\nDVR hardware overhead: {total} bytes (paper: 1139)")
    assert total == 1139
