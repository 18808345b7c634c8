"""What the benchmark measures: workloads and metrics, by name.

``BENCHMARK.json`` at the repository root is the one list of workloads,
metrics, units, directions and bounds; this module only reads it, so
the names a run prints are the names declared there.

Every end-to-end metric says whether it is host time (what running the
simulator costs) or simulated time (what the modelled enclave would
take); see the README for the full table.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
