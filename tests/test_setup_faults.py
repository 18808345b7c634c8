"""The set-up fault tool's summary line, on canned numbers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "setup_faults.py"
_spec = importlib.util.spec_from_file_location("setup_faults", _PATH)
setup_faults = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(setup_faults)


def test_the_summary_counts_fast_set_ups_after_the_warm_up():
    # The first four are left out of the fast count, slow or not; of the
    # four after them, two stay under 1000 faults (999 does, 1000 not).
    # Set-ups 0 and 2 build slowly; set-up 6 mounts slowly.
    setups = [(8420, 0.040, 0.020), (0, 0.010, 0.020), (8300, 0.038, 0.020),
              (12, 0.011, 0.020), (999, 0.015, 0.025), (1000, 0.016, 0.025),
              (8400, 0.010, 0.049), (0, 0.012, 0.017)]
    assert setup_faults.summary(setups) == (
        "summary: 8 set-ups, 2 of 4 after the first 4 under 1000 faults; "
        "faults min 0 median 999.5 max 8420; median 0.040500 s "
        "(build 0.013500 s, mount 0.020000 s)")


def test_a_fixed_fault_count_reads_as_one_value():
    setups = [(4137, 0.007, 0.020), (4137, 0.006, 0.020), (4137, 0.006, 0.022)]
    assert setup_faults.summary(setups) == (
        "summary: 3 set-ups, 0 of 0 after the first 4 under 1000 faults; "
        "faults min 4137 median 4137 max 4137; median 0.027000 s "
        "(build 0.006000 s, mount 0.020000 s)")


def test_no_set_up_is_said_plainly():
    assert setup_faults.summary([]) == "summary: no set-up ran"
