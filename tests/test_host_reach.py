"""Host-reach census: every place the trusted modules touch the host
other than through the seven calls.

The enclave is meant to reach the host only through ``HostInterface``'s
seven calls: ``disk_read``, ``disk_write``, ``net_write``, ``net_read``,
``net_poll``, ``time_read`` and ``forward_signal``. The census walks the
trusted modules with ``ast`` and lists, by enclosing class and function,
every reference to ``Host``, ``SimClock`` or ``HostTrace``, every
attribute named ``host``, ``clock`` or ``trace``, and every attribute of
an ``iface`` that is not one of the seven calls. The trusted modules are
the enclave's: the store, the filesystem, the cache, the scheduler, the
shuffle, the channel and shaper, the DRBG, the workloads and the engine.
The host (``hostiface``), its record (``trace``), the offline analyzer
(``adversary``), the front end (``cli``) and ``errors`` are not.

``REACHES`` is the reviewed table: each site, how often it occurs, and
the ROADMAP item that removes it. A new reach fails this test until it
gets a row, and a row whose reach is gone fails it too.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import oblivsim

SEVEN_CALLS = {"disk_read", "disk_write", "net_write", "net_read", "net_poll",
               "time_read", "forward_signal"}
TRUSTED = ("blockcrypto", "blockfs", "channel", "engine", "pagecache", "rng", "sched",
           "shaper", "shuffle", "workload")
_NAMES = {"Host", "SimClock", "HostTrace"}
_ATTRS = {"host", "clock", "trace"}

_DRIVER = "item 3: moves to the environment-side driver"
REACHES = {
    "engine.DirectIo.__init__: SimClock": (1, f"{_DRIVER}, which ticks the passthrough path"),
    "engine.DirectIo.__init__: .clock": (1, f"{_DRIVER}, which ticks the passthrough path"),
    "engine.DirectIo._tick: .clock": (1, f"{_DRIVER}, which ticks the passthrough path"),
    "engine.EchoPeer.__init__: .host": (1, f"{_DRIVER} with EchoPeer"),
    "engine.EchoPeer.__init__: .clock": (1, f"{_DRIVER} with EchoPeer"),
    "engine.EchoPeer.pump: .host": (1, f"{_DRIVER} with EchoPeer"),
    "engine.Engine.__init__: .clock": (
        3, f"{_DRIVER}, the one owner of the SimClock (self.clock, DirectIo's clock)"),
    "engine.Engine.__init__: .host": (1, f"{_DRIVER}, the one owner of the SimClock"),
    "engine.Engine.__init__: .trace": (
        1, f"{_DRIVER}: mount records the resolved shelter size in the trace metadata"),
    "engine.Engine.start_observation: .trace": (1, f"{_DRIVER} with start_observation"),
    "engine.Engine.start_observation: .host": (1, f"{_DRIVER} with start_observation"),
    "engine.Engine.elapsed_ns: .clock": (1, f"{_DRIVER}: the passthrough path's time"),
    "engine.Engine.shuffle_round: .clock": (
        1, f"{_DRIVER}, which moves the clock to each round's instant"),
    "engine.Engine.add_link: .clock": (
        1, "item 3: a link's grid starts at a round the engine counts, or at a "
           "time_read (item 11)"),
    "engine.Engine._schedule: .clock": (2, f"{_DRIVER} with the net heap"),
    "engine.Engine._run_net_until: .clock": (1, f"{_DRIVER} with the net heap"),
    "engine.Mounted: Host": (1, f"{_DRIVER} with mount"),
    "engine.Mounted: HostTrace": (1, f"{_DRIVER} with mount"),
    "engine.mount: Host": (1, f"{_DRIVER} with mount"),
    "engine.mount: SimClock": (1, f"{_DRIVER} with mount"),
    "engine.mount: HostTrace": (1, f"{_DRIVER} with mount"),
}


def census(package: Path = Path(oblivsim.__file__).parent,
           modules=TRUSTED) -> Counter:
    found = Counter()

    def visit(node, module: str, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        what = None
        if isinstance(node, ast.Name) and node.id in _NAMES:
            what = node.id
        elif isinstance(node, ast.Attribute):
            base = node.value
            of_iface = (isinstance(base, ast.Name) and base.id == "iface"
                        or isinstance(base, ast.Attribute) and base.attr == "iface")
            if node.attr in _ATTRS or of_iface and node.attr not in SEVEN_CALLS:
                what = f".{node.attr}"
        if what is not None:
            found[f"{module}.{'.'.join(scope) or '<module>'}: {what}"] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module in modules:
        visit(ast.parse((package / f"{module}.py").read_text()), module, ())
    return found


def test_every_reach_past_the_seven_calls_has_a_reviewed_row():
    assert census() == {site: count for site, (count, _item) in REACHES.items()}
    assert sum(count for count, _item in REACHES.values()) == 24


def test_the_census_sees_names_attributes_and_iface_reaches(tmp_path):
    (tmp_path / "m.py").write_text(
        "from .hostiface import Host\n"
        "x = Host\n"
        "class E:\n"
        "    def f(self, iface):\n"
        "        iface.disk_read(0)\n"
        "        self.iface.net_poll()\n"
        "        iface.pop_egress()\n"
        "        self.iface.trace.meta\n"
        "        return self.clock.now()\n"
        "def g(m):\n"
        "    return m.host, m.store\n")
    assert census(tmp_path, ("m",)) == {
        "m.<module>: Host": 1, "m.E.f: .pop_egress": 1, "m.E.f: .trace": 1,
        "m.E.f: .clock": 1, "m.g: .host": 1}
