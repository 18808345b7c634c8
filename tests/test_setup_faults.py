"""The set-up fault tool's summary line, on canned numbers."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "setup_faults.py"
_spec = importlib.util.spec_from_file_location("setup_faults", _PATH)
setup_faults = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(setup_faults)


def test_the_summary_counts_fast_set_ups_after_the_warm_up():
    # The first four are left out of the fast count, slow or not; of the
    # four after them, two stay under 1000 faults (999 does, 1000 not).
    # Set-ups 0 and 2 build slowly; set-up 6 mounts slowly.
    setups = [(8420, 0, 0.040, 0.020), (0, 0, 0.010, 0.020), (8300, 0, 0.038, 0.020),
              (12, 0, 0.011, 0.020), (999, 0, 0.015, 0.025), (1000, 0, 0.016, 0.025),
              (8400, 0, 0.010, 0.049), (0, 0, 0.012, 0.017)]
    assert setup_faults.summary(setups) == (
        "summary: 8 set-ups, 2 of 4 after the first 4 under 1000 faults; "
        "faults min 0 median 999.5 max 8420 (build median 999.5, mount median 0); "
        "median 0.040500 s (build 0.013500 s, mount 0.020000 s)")


def test_the_summary_splits_faults_into_build_and_mount():
    # The whole set-up's faults are the build's plus the mount's; each
    # side has its own median, which need not add up to the whole's.
    setups = [(560, 0, 0.020, 0.005), (552, 8, 0.021, 0.005),
              (300, 4096, 0.030, 0.009), (560, 1, 0.020, 0.006)]
    assert setup_faults.summary(setups) == (
        "summary: 4 set-ups, 0 of 0 after the first 4 under 1000 faults; "
        "faults min 560 median 560.5 max 4396 (build median 556, mount median 4.5); "
        "median 0.026000 s (build 0.020500 s, mount 0.005500 s)")


def test_a_fixed_fault_count_reads_as_one_value():
    setups = [(560, 0, 0.007, 0.020), (560, 0, 0.006, 0.020), (560, 0, 0.006, 0.022)]
    assert setup_faults.summary(setups) == (
        "summary: 3 set-ups, 0 of 0 after the first 4 under 1000 faults; "
        "faults min 560 median 560 max 560 (build median 560, mount median 0); "
        "median 0.027000 s (build 0.006000 s, mount 0.020000 s)")


def test_no_set_up_is_said_plainly():
    assert setup_faults.summary([]) == "summary: no set-up ran"


def test_the_summary_adds_the_median_calibration():
    # Kernel ns before and after each set-up, and the scale 2 * 125 000 /
    # (before + after) that setup_s applies: the slow middle set-up has a
    # slow kernel on both sides, so its scale is small.
    setups = [(560, 0, 0.018, 0.004), (560, 0, 0.026, 0.006), (560, 0, 0.018, 0.004)]
    calibration = [(120_000, 130_000, 1.0), (160_000, 170_000, 250 / 330),
                   (125_000, 125_000, 1.0)]
    assert setup_faults.summary(setups, calibration) == (
        "summary: 3 set-ups, 0 of 0 after the first 4 under 1000 faults; "
        "faults min 560 median 560 max 560 (build median 560, mount median 0); "
        "median 0.022000 s (build 0.018000 s, mount 0.004000 s); median kernel "
        "125.0 us before, 130.0 us after, scale 1.0000")
    assert setup_faults.calibration_text(160_000, 170_000, 250 / 330) == (
        "kernel 160.0 us before, 170.0 us after, scale 0.7576")


_FAKE_HARNESS = '''
CAL_REF_NS = 125_000
_POINTS = iter([100_000, 150_000, 125_000, 90_000])


def calibration_point():
    return next(_POINTS)


def scale(p0, p1):
    return 2 * CAL_REF_NS / (p0 + p1)


def run_pass(workload, setups):
    calibration_point()
    for _ in range(setups):
        workload.mount(workload.build())
        calibration_point()
    calibration_point()  # a point after the ops belongs to no set-up
'''

_FAKE_WORKLOADS = '''
class Fake:
    def build(self):
        return bytearray(1 << 16)

    def mount(self, image):
        return bytes(image)


WORKLOADS = {"fake": Fake}
'''

_FAKE_RUN = '''
import harness
from workloads import WORKLOADS


def main(argv):
    harness.run_pass(WORKLOADS["fake"](), setups=2)
    print('{"correct": true}')
    return 0
'''


def test_each_set_up_gets_the_points_on_either_side_of_it(tmp_path, capsys):
    # A stand-in checkout whose harness takes a point, two set-ups with a
    # point after each, then one after the ops, as run_pass does.
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name, text in (("harness", _FAKE_HARNESS), ("workloads", _FAKE_WORKLOADS),
                       ("run", _FAKE_RUN)):
        (bench / f"{name}.py").write_text(text)
    modules = {name: sys.modules.pop(name, None) for name in ("harness", "run", "workloads")}
    path = list(sys.path)
    try:
        assert setup_faults.main([str(tmp_path), "fake", "1"]) == 0
    finally:
        sys.path[:] = path
        for name, module in modules.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("setup 0: ")
    assert " minor faults (build " in lines[0] and ", mount " in lines[0]
    assert lines[0].endswith("; kernel 100.0 us before, 150.0 us after, scale 1.0000")
    assert lines[1].endswith("; kernel 150.0 us before, 125.0 us after, scale 0.9091")
    assert lines[2].endswith("; median kernel 125.0 us before, 137.5 us after, "
                             "scale 0.9545")
    assert lines[3] == '{"correct": true}'
