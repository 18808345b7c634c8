"""Settings census: every defaulted parameter of the package's public
API, each justified by a caller outside the tests.

The census walks every module of ``oblivsim`` with ``ast`` and lists
each parameter that has a default, positional or keyword-only, of a
public module-level function or of a public method of a public class.
Dunder methods count (``__init__`` most of all); a function, method or
class whose name starts with one underscore does not. Dataclass fields
are out of scope: the census reads ``def`` signatures only, and a
dataclass's ``__init__`` is generated, not written in the source.

``SETTINGS`` is the reviewed table. Each entry names the one non-test
caller that sets the value (a CLI option, a benchmark workload or an
engine path), or, for the two kept for tests alone, why it stays. A new
defaulted parameter fails this test until it gets a row, and a row whose
parameter is gone fails it too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import oblivsim

SETTINGS = {
    "blockcrypto.BlockStore.mount(key)": "engine.mount passes --key",
    "blockcrypto.BlockStore.mount(trusted_root)": "engine.mount passes --verity-root",
    "blockfs.BlockFs.format(max_files)": "build_image passes create-image --max-files",
    "blockfs.BlockFs.format(max_file_blocks)":
        "build_image passes create-image --max-file-blocks",
    "channel.max_payload(mtu)": "the netecho workload sizes its chunks by DEFAULT_MTU",
    "cli.main(argv)": "python -m oblivsim calls main(), which reads sys.argv",
    "engine.Engine.__init__(config)": "engine.mount and the benchmark's mount pass it",
    "engine.Engine.__init__(oblivious)": "engine.mount passes run --mode passthrough",
    "engine.Engine.shuffle_round(read)": "Engine._pass_round passes a pass step's read",
    "engine.Engine.shuffle_round(land)": "Engine._pass_round passes a pass step's land",
    "engine.Engine.add_link(shaping)": "run --peer RATE_BPS and the netecho workload",
    "engine.build_image(files)": "create-image --add and --blank",
    "engine.build_image(seed)": "create-image --seed",
    "engine.build_image(key)": "create-image --key",
    "engine.build_image(max_files)": "create-image --max-files",
    "engine.build_image(max_file_blocks)": "create-image --max-file-blocks",
    "engine.mount(key)": "--key of run, shuffle and fsck",
    "engine.mount(verity_root)": "--verity-root of run, shuffle and fsck",
    "engine.mount(seed)": "--seed of run, shuffle and fsck",
    "engine.mount(config)": "run --cache-k",
    "engine.mount(oblivious)": "run --mode passthrough",
    "engine.run_workload(target_rounds)": "run --rounds",
    "hostiface.Host.__init__(clock)": "engine.mount passes a SimClock",
    "hostiface.HostInterface.__init__(trace)":
        "engine.mount passes the trace that records the fingerprint",
    "sched.RoundScheduler.run_round(read)": "Engine.shuffle_round passes its read",
    "sched.RoundScheduler.run_round(land)": "Engine.shuffle_round passes its land",
    "shaper.PeerShaper.__init__(start_ns)":
        "Engine.add_link and EchoPeer pass the simulated clock",
    "shuffle.shuffle_pass(fds)":
        "test-only: the shuffle tests walk a chosen subset of the files; the "
        "engine walks every data file",
    "trace.parse_trace(meta)":
        "test-only: gives a parsed export its recording metadata; the CLI "
        "parses no trace",
}


def census(package: Path = Path(oblivsim.__file__).parent) -> list[str]:
    found = []

    def walk(body, prefix: str, module: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    walk(node.body, f"{prefix}{node.name}.", module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                found.extend(f"{module}.{prefix}{name}({a.arg})" for a in defaulted)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text()).body, "", path.stem)
    return found


def test_every_defaulted_parameter_has_a_reviewed_caller():
    assert sorted(census()) == sorted(SETTINGS)
    assert len(SETTINGS) == 29


def test_the_census_sees_keyword_only_and_method_defaults(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, *, c=2, d): pass\n"
        "def _hidden(x=1): pass\n"
        "class C:\n"
        "    def __init__(self, y=0): pass\n"
        "    def _private(self, z=0): pass\n"
        "class _D:\n"
        "    def g(self, w=0): pass\n")
    assert census(tmp_path) == ["m.f(b)", "m.f(c)", "m.C.__init__(y)"]
