"""Run orchestration: one engine owns the clock, the disk cadence, the
page cache, the shuffle and the shaped network links.

Two I/O personalities implement the filesystem's block interface:

* ``CachedIo`` is the protected path. Reads and writes go through the
  page cache. A miss, and a whole-block write over a page whose block
  this epoch has not fetched, hand the block to the next batched round
  (``Engine.shuffle_round``), which reads it, one round per read.
  Before either, a pass that is due or running is finished
  (``Engine.shuffle_now``), since the pass holds a snapshot of the
  cache. Nothing is queued: the pass lands every page of every file,
  dirty ones included, and the cache's ``end_epoch`` checks that it did.
  ``PageCache.flush`` lands the dirty pages the same way, through
  ``shuffle_now``.
* ``DirectIo`` is the passthrough path. Every block operation is a
  single immediate host call with a small fixed latency, no padding,
  no batching. It exists as the unprotected baseline. It holds the
  store, the filesystem and the clock, not an engine.

Epochs run on a fixed cadence. An epoch is exactly C rounds outside
passes, where C is the page cache's capacity, and the round after the
C-th is the first round of a shuffle pass over every data file, which
takes L rounds for L file blocks, each a real read and a real write. So
every pass starts at a round index fixed by C and L alone, whatever the
workload does, and an idle disk shuffles too, except where
``shuffle_now`` (or ``PageCache.flush``, which calls it) runs a pass
early. One method, ``Engine._pass_round``, builds (by
``shuffle_pass`` over the page cache's ``peek``), steps, ends and cuts
every pass; each call runs one round, a ``shuffle_round`` carrying the
step's read and its ``land``, which lands the same block in the same
round. ``run_one_round`` calls it once when a pass is running or due, so
a closed loop that runs rounds one at a time keeps its turn during a
pass, and ``shuffle_now`` calls it until the pass ends.

Nothing the engine owns refers back to it: the page cache is handed
its fetch per call and holds ``shuffle_now`` weakly, and a ``CachedIo``
is built per file call. So a dropped mount, with its image copy, is
freed by reference counting alone, without waiting for the cyclic
collector.

``build_image``, the owner's offline build, makes no host call: the
filesystem lays out the files and its metadata as plaintext by block,
and ``seal_new_image`` writes every record in one sweep.

Time is the simulated clock, and the engine alone moves it. Round k
runs at k x 0.1 ms (``shuffle_round``, which every round goes
through): the engine first processes every network
emission instant due by then, each at its own due time, then moves the
clock to the round's instant and fires the disk round, which takes no
time of its own. Network instants live on each link's own exact grid,
so the round interval and a link's rate need not divide each other.

The net loop is event-driven. Every link and every external pump sits
in one heap keyed by (due time, pumps before links, insertion order).
At each instant the loop pops everything due then, in that order: the
pumps (peers pick up what the enclave sent them and deliver their own
frames), then the links (each emits its due frames through
``net_write``). Each actor goes back on the heap at its new due time,
and if any link emitted, ingress is drained once. Actors that are not
due are never polled; with many links an instant costs a heap operation
more, not a scan of every link.

The pump contract: a pump has ``pump(now_ns)`` and ``next_due_ns()``.
``next_due_ns()`` is read once after ``add_external_pump`` and once
after each ``pump``, never in between, so it must already be current
then. It only moves forward: it is not before the simulated clock when
the pump is added, after ``pump(t)`` it is later than ``t`` (both are
refused with ``ParameterError``), or None, which retires the pump.
Links follow the same rule through ``PeerShaper``, whose ``tick`` also
refuses any instant but its due one. A link's grid, and an
``EchoPeer``'s, starts at the simulated clock when it is built, so
either can join after rounds have run.

``EchoPeer`` models the remote end of a link: it is environment code,
touches the untrusted ``Host`` directly (it drains its own endpoint's
egress queue), emits on the same constant grid as the enclave side,
and echoes real payloads back. Runs that compare trace shapes attach
the same peers to both runs; the peer's cadence, like ours, is
workload-independent.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar

from .blockcrypto import (
    BlockStore,
    ProtectionMode,
    layout_for,
    seal_new_image,
)
from .blockfs import FLAG_REGULAR, BlockFs
from .channel import PeerSession
from .errors import (
    BackpressureError,
    DescriptorError,
    IntegrityError,
    ModeError,
    ParameterError,
    ReplayError,
    RoundBudgetExhausted,
    ShuffleImpossibleError,
    SizeError,
    SpaceError,
    StaleCounterError,
    WouldBlock,
)
from .hostiface import Host, HostInterface, SimClock
from .pagecache import PageCache, default_capacity
from .rng import RngTree
from .sched import DEFAULT_ROUND_INTERVAL_NS, RoundConfig, RoundScheduler
from .shaper import PeerShaper, ShapingClass
from .shuffle import ShuffleStats, oblivious_shuffle, shuffle_pass
from .trace import HostTrace

DEFAULT_PASSTHROUGH_LATENCY_NS = 10_000
_PUMP, _LINK = 0, 1  # at one instant pumps run before links


def trace_fingerprint(round_cfg: RoundConfig, mtu: int) -> dict:
    """Recording configuration stored in trace metadata; traces with
    different fingerprints are never shape-compared."""
    return {
        "interval_ns": round_cfg.interval_ns,
        "reads_per_round": round_cfg.reads_per_round,
        "writes_per_round": round_cfg.writes_per_round,
        "mtu": mtu,
    }


@dataclass(frozen=True)
class EngineConfig:
    # Fixed (0.1 ms, one read, one write); kept for the trace metadata.
    round: ClassVar[RoundConfig] = RoundConfig()
    # The one setting: pages, and rounds per epoch, resolved into the trace
    # metadata. None: default_capacity, the block count, at most BUDGET_PAGES.
    cache_capacity: int | None = None


class CachedIo:
    """Block path through the page cache and the batched rounds. Built
    per file call; kept on the engine, it would refer back to it."""

    def __init__(self, engine: "Engine"):
        self.engine = engine

    def read_block(self, fd: int, lblk: int) -> bytes:
        engine = self.engine
        if engine.sched.rounds >= engine.pass_due:
            engine.shuffle_now()
        return engine.cache.get_block(fd, lblk, engine.shuffle_round)

    def write_block(self, fd: int, lblk: int, data: bytes) -> None:
        # Whole-page install; never needs the old content, but spends a
        # read slot unless this epoch fetched the block.
        engine = self.engine
        if engine.sched.rounds >= engine.pass_due:
            engine.shuffle_now()
        engine.cache.put_block(fd, lblk, data, engine.shuffle_round)


class DirectIo:
    """Unprotected baseline: immediate host calls, fixed latency each,
    counted as ``real_reads`` and ``real_writes``."""

    def __init__(self, store: BlockStore, fs: BlockFs, clock: SimClock):
        self.store = store
        self.fs = fs
        self.clock = clock
        self.real_reads = 0
        self.real_writes = 0

    def _tick(self) -> None:
        clock = self.clock
        clock.advance_to(clock.now() + DEFAULT_PASSTHROUGH_LATENCY_NS)

    def read_block(self, fd: int, lblk: int) -> bytes:
        self._tick()
        phys = self.fs.phys_of(fd, lblk)
        self.real_reads += 1  # a read that fails to open was still made
        return self.store.read_block(phys)

    def write_block(self, fd: int, lblk: int, data: bytes) -> None:
        self._tick()
        self.store.write_block(self.fs.phys_of(fd, lblk), data)
        self.real_writes += 1


class _Pages(list):
    """A new image's plaintext by block, None where it is zeros;
    ``BlockFs.persist`` writes the metadata pages here."""

    write_block = list.__setitem__


@dataclass
class _BuildIo:
    """The builder's block io: each file page is kept as its block's
    plaintext, a ``memoryview`` slice of the file's bytes where it is
    whole. Files are written once from offset 0, so no page is ever
    read back."""

    fs: BlockFs
    pages: _Pages

    def write_block(self, fd: int, lblk: int, page) -> None:
        self.pages[self.fs.phys_of(fd, lblk)] = page


@dataclass
class NetLink:
    """Enclave-side state for one peer link."""

    endpoint: int
    session: PeerSession
    shaper: PeerShaper
    inbox: deque = field(default_factory=deque)
    rx_errors: int = 0


class EchoPeer:
    """Environment-side remote service for tests and self-contained
    runs. Shaped exactly like an enclave link; echoes real payloads."""

    def __init__(self, host, endpoint: int, session: PeerSession, shaping: ShapingClass):
        self.host = host
        self.endpoint = endpoint
        self.session = session
        self.shaper = PeerShaper(shaping, session, host.clock.now())
        self._egress = host.egress[endpoint]  # what the enclave sent this peer
        self.rx_errors = 0
        self.dropped = 0

    def next_due_ns(self) -> int:
        return self.shaper.next_due_ns()

    def pump(self, now_ns: int) -> None:
        """Open what the enclave sent this peer, queue the echoes, then
        emit the slot due at ``now_ns``."""
        queue = self._egress
        while queue:
            try:
                payload = self.session.open_packet(queue.popleft())
            except (IntegrityError, ReplayError, StaleCounterError, SizeError):
                self.rx_errors += 1
                continue
            if not payload:
                continue
            try:
                self.shaper.enqueue(payload)
            except BackpressureError:
                # A real network would drop under overload; so do we.
                self.dropped += 1
        self.host.deliver_frame(self.endpoint, self.shaper.tick(now_ns))


class Engine:
    """One mounted image, one workload run."""

    def __init__(self, iface: HostInterface, store: BlockStore, fs: BlockFs,
                 rng: RngTree, config: EngineConfig | None = None,
                 oblivious: bool = True):
        self.iface = iface
        self.store = store
        self.fs = fs
        self.rng = rng
        self.config = config if config is not None else EngineConfig()
        self.oblivious = oblivious
        self.clock = iface.host.clock
        self.round_target: int | None = None
        self.shuffles = 0
        # The running pass, (its steps, the next step, not yet run), and
        # the round from which the next pass is due; while one runs, it is due.
        self._pass = None
        self.pass_due = 0
        self.payload_bytes = 0
        self.links: list[NetLink] = []
        self._links_by_endpoint: dict[int, NetLink] = {}
        self.unknown_frames = 0
        # Emission instants: (due_ns, _PUMP or _LINK, insertion order, actor).
        self._net_due: list = []
        self._net_order = itertools.count()

        if oblivious:
            if not store.mode.encrypted:
                raise ModeError("the protected path re-encrypts every block it moves or "
                                f"pads; the image must be crypt-integrity, not "
                                f"{store.mode.name.lower()}")
            if not fs.free_blocks:
                raise ShuffleImpossibleError(
                    "0 free blocks; a protected mount keeps 1 for its shuffle passes")
            self.sched = RoundScheduler(store, fs.dummy_blocks(), rng.stream("dummy"))
            capacity = self.config.cache_capacity
            if capacity is None:
                capacity = default_capacity(store.n_blocks)
            iface.trace.meta["cache_capacity"] = capacity
            self.cache = PageCache(capacity, phys_of=fs.phys_of,
                                   shuffle_now=self.shuffle_now)
            self.pass_due = capacity
        else:
            self.sched = None
            self.cache = None
            self._direct_io = DirectIo(store, fs, self.clock)

    # Observation window ----------------------------------------------

    def start_observation(self) -> None:
        """Drop setup traffic; trace and mutation counts restart
        together so completeness stays checkable."""
        self.iface.trace.reset()
        self.iface.host.boundary_mutations = 0

    @property
    def rounds_done(self) -> int:
        return self.sched.rounds if self.sched is not None else 0

    @property
    def elapsed_ns(self) -> int:
        if self.oblivious:
            return self.rounds_done * DEFAULT_ROUND_INTERVAL_NS
        return self.clock.now()

    # Rounds -------------------------------------------------------------

    def shuffle_round(self, read: int | None = None, land=None) -> bytes | None:
        """The net instants due by the next round's time, then the round
        at that time, with ``read`` as its read and what ``land`` gives as
        its write (``RoundScheduler.run_round``);
        returns ``read``'s plaintext, or None. Each step of a pass, and
        every other round too. A round past the budget raises
        ``RoundBudgetExhausted`` and runs nothing: it reads nothing and
        calls no ``land``."""
        sched = self.sched
        if sched is None:
            raise ModeError("batched rounds exist only on the protected path")
        done = sched.rounds
        if self.round_target is not None and done >= self.round_target:
            raise RoundBudgetExhausted(f"round budget of {self.round_target} spent")
        t = done * DEFAULT_ROUND_INTERVAL_NS
        heap = self._net_due
        if heap and heap[0][0] <= t:
            self._run_net_until(t)
        self.clock.advance_to(t)
        return sched.run_round(read, land)

    def run_one_round(self) -> None:
        """Exactly one round: the next round of a pass that is running or
        due (``_pass_round``), and otherwise padding."""
        sched = self.sched
        if sched is None:
            raise ModeError("batched rounds exist only on the protected path")
        if self._pass is not None or sched.rounds >= self.pass_due:
            stats = self._pass_round()
            if stats is None or stats.swaps:  # a pass round ran
                return
        self.shuffle_round()

    def run_rounds(self, n: int) -> None:
        for _ in range(n):
            self.run_one_round()

    # Shuffle ------------------------------------------------------------

    def shuffle_now(self) -> ShuffleStats:
        """Finish the running pass, or else run a whole one, whether it is
        due or not, through ``_pass_round``.

        The pass writes every page of every file it walks at the page's
        new home, from the cache where the page is resident: it is the
        one way a dirty page reaches the host. ``end_epoch`` refuses,
        changing nothing, if a dirty page lies outside what the pass
        walked.
        """
        if not self.oblivious:
            raise ModeError("the passthrough path never shuffles")
        return oblivious_shuffle(self._pass_round)

    def _pass_round(self) -> ShuffleStats | None:
        """The next round of the running pass, or the first of a new pass
        over every data file. The pass looks one step ahead, so it ends in
        the call that runs its last round (at once for a pass over no
        block): that call ends the cache epoch, makes the next pass due C
        rounds on and returns the pass's stats; every other call returns
        None. A round that raises closes the pass, which frees its
        vacated homes, and the next pass is due at once."""
        steps, step = self._pass or (
            shuffle_pass(self.fs, self.cache.peek, self.rng.stream("shuffle")), None)
        try:
            self.shuffle_round(*(step or next(steps)))
            self._pass = steps, next(steps)
            return None
        except StopIteration as done:
            stats = done.value
        except BaseException:
            steps.close()
            self._pass = None
            self.pass_due = min(self.pass_due, self.sched.rounds)
            raise
        self._pass = None
        walked, file_blocks = stats.plan.fds, self.fs.file_blocks
        self.cache.end_epoch(lambda fd, lblk: fd in walked and lblk < file_blocks(fd))
        self.shuffles += 1
        self.pass_due = self.sched.rounds + self.cache.capacity
        return stats

    # Network ------------------------------------------------------------

    def add_link(self, endpoint: int, session: PeerSession,
                 shaping: ShapingClass | None = None) -> NetLink:
        """Link ``endpoint``; its emission grid starts at the simulated clock."""
        if endpoint in self._links_by_endpoint:
            raise ParameterError(f"endpoint {endpoint} already linked")
        shaping = shaping if shaping is not None else ShapingClass()
        link = NetLink(endpoint, session, PeerShaper(shaping, session, self.clock.now()))
        self._schedule(link.shaper.next_due_ns(), _LINK, link)
        self.links.append(link)
        self._links_by_endpoint[endpoint] = link
        return link

    def add_external_pump(self, pump) -> None:
        """Environment actors (peers) advanced on their own grid; see the
        pump contract in the module docstring."""
        self._schedule(pump.next_due_ns(), _PUMP, pump)

    def _schedule(self, due_ns: int | None, kind: int, actor) -> None:
        """Put a new actor on the heap; a pump due before the simulated
        clock could never run, so it is refused, and so is every actor of
        the passthrough path, which has no net loop."""
        if not self.oblivious:
            raise ModeError("the passthrough path has no net loop")
        if due_ns is None:
            return
        if due_ns < self.clock.now():
            raise ParameterError(
                f"net actor due at {due_ns} ns, before the clock at {self.clock.now()} ns")
        heapq.heappush(self._net_due, (due_ns, kind, next(self._net_order), actor))

    def net_send(self, endpoint: int, payload: bytes) -> None:
        self.link(endpoint).shaper.enqueue(payload)

    def link(self, endpoint: int) -> NetLink:
        try:
            return self._links_by_endpoint[endpoint]
        except KeyError:
            raise ParameterError(f"no link at endpoint {endpoint}") from None

    def _run_net_until(self, t_ns: int) -> None:
        """Run every emission instant due by ``t_ns``, in time order. At
        one instant the pumps due run first, then the links due, each in
        the order they were added, each link sending one frame; ingress
        is drained once if a link emitted. Each actor goes back on the
        heap at its next due time."""
        heap = self._net_due
        advance_to, net_write = self.clock.advance_to, self.iface.net_write
        while heap and heap[0][0] <= t_ns:
            due = heap[0][0]
            advance_to(due)
            emitted = False
            while heap and heap[0][0] == due:
                _due, kind, order, actor = heap[0]
                if kind == _LINK:
                    net_write(actor.endpoint, actor.shaper.tick(due))
                    emitted = True
                    next_due = actor.shaper.next_due_ns()
                else:
                    actor.pump(due)
                    next_due = actor.next_due_ns()
                if next_due is None:
                    heapq.heappop(heap)
                elif next_due > due:
                    heapq.heapreplace(heap, (next_due, kind, order, actor))
                else:
                    raise ParameterError(
                        f"net actor due again at {next_due} ns after running at {due} ns")
            if emitted:
                self._service_ingress()

    def _service_ingress(self) -> None:
        iface, links = self.iface, self._links_by_endpoint
        while True:
            readable, _writable = iface.net_poll()
            if not readable:
                return
            try:
                endpoint, frame = iface.net_read()
            except WouldBlock:
                return
            link = links.get(endpoint)
            if link is None:
                self.unknown_frames += 1
                continue
            try:
                payload = link.session.open_packet(frame)
            except (IntegrityError, ReplayError, StaleCounterError, SizeError):
                link.rx_errors += 1
                continue
            if payload:
                link.inbox.append(payload)

    # File-level helpers ---------------------------------------------------

    def regular_fd(self, index: int) -> int:
        """The descriptor of the ``index``-th data file, counting used
        inodes in table order; workloads address files this way."""
        fds = self.fs.files_with_flag(FLAG_REGULAR)
        if not 0 <= index < len(fds):
            raise DescriptorError(
                f"data file {index} does not exist ({len(fds)} present)")
        return fds[index]

    def _io(self) -> CachedIo | DirectIo:
        return CachedIo(self) if self.oblivious else self._direct_io

    def read_file(self, fd: int, offset: int, length: int) -> bytes:
        data = self.fs.file_read(self._io(), fd, offset, length)
        self.payload_bytes += len(data)
        return data

    def write_file(self, fd: int, offset: int, data: bytes) -> None:
        """A protected write that ``BlockFs.check_write`` refuses, or that
        would take the last free block, which every pass needs, is refused
        before it allocates or runs a round; a running pass holds blocks
        back until it ends, so it ends first."""
        fs = self.fs
        if self.oblivious:
            grow = fs.check_write(fd, offset, len(data))
            if grow:
                if self._pass is not None:
                    self.shuffle_now()
                if grow >= fs.free_blocks:
                    raise SpaceError(f"{grow} new blocks would leave none of {fs.free_blocks} "
                                     "free; a protected mount keeps 1 for its shuffle passes")
        fs.file_write(self._io(), fd, offset, data)
        self.payload_bytes += len(data)

    # Reporting -------------------------------------------------------------

    def counters(self) -> dict:
        # The passthrough path's DirectIo counts real calls and pads none.
        io = self.sched if self.oblivious else self._direct_io
        return {
            "rounds": self.rounds_done,
            **{name: getattr(io, name, 0)
               for name in ("real_reads", "dummy_reads", "real_writes", "dummy_writes")},
            "shuffles": self.shuffles,
            "cache_hits": self.cache.hits if self.cache is not None else 0,
            "net_real": sum(l.session.sent_real for l in self.links),
            "net_dummy": sum(l.session.sent_dummy for l in self.links),
        }


@dataclass(frozen=True)
class ImageBundle:
    """A freshly built image plus everything needed to mount it.

    ``build_image`` hands over its image buffer uncopied, as a read-only
    view: whoever holds the bundle can copy or hash it, not change it."""

    image: bytes | memoryview
    key: bytes | None
    verity_root: bytes | None
    data_fds: tuple[int, ...]


def build_image(n_blocks: int, mode: ProtectionMode, files=(), *,
                seed: int = 0, key: bytes | None = None,
                max_files: int | None = None,
                max_file_blocks: int | None = None) -> ImageBundle:
    """Format a new image in memory and store ``files`` (one bytes
    object each) as data files.

    No host holds the image yet, and the build makes no host call. The
    filesystem draws its layout and takes each file page, a
    ``memoryview`` slice of the file's bytes, then encodes its metadata
    (``BlockFs.persist``); ``seal_new_image`` then seals every block at
    version 1, in one sweep straight into a new mapping: its file page,
    its metadata page or zeros. Under a fresh nonce sealed zeros cannot
    be told from sealed data, while an image whose content distinguished
    data blocks from padding would leak the layout before the first
    mount. An encrypted image gets its trusted root in ``verity_root``. A
    plain image holds its pages as they are, gets None, and refuses a
    key, which would protect nothing. The image comes back as a
    read-only view of the mapping it was built in, not a copy. Nothing
    left behind refers to that mapping, so it is unmapped the moment the
    bundle is dropped.
    """
    # Format first: it refuses a block count below 8 before a buffer is sized.
    fs = BlockFs.format(n_blocks, RngTree(seed).stream("layout"),
                        max_files=max_files, max_file_blocks=max_file_blocks)
    pages = _Pages([None] * n_blocks)
    io = _BuildIo(fs, pages)
    fds = []
    for data in files:
        fd = fs.create_file()
        if data:
            fs.file_write(io, fd, 0, memoryview(data))
        fds.append(fd)
    fs.persist(pages)
    if mode.encrypted and key is None:
        key = os.urandom(32)
    image, root = seal_new_image(layout_for(n_blocks, mode), key, pages)
    return ImageBundle(memoryview(image).toreadonly(), key, root, tuple(fds))


@dataclass
class Mounted:
    """One mounted image, every layer of the stack within reach."""

    host: Host
    iface: HostInterface
    trace: HostTrace
    store: BlockStore
    fs: BlockFs
    engine: Engine


def mount(image: bytes, *, key: bytes | None = None,
          verity_root: bytes | None = None, seed: int = 0,
          config: EngineConfig | None = None, oblivious: bool = True) -> Mounted:
    """Host -> HostInterface -> BlockStore -> BlockFs -> Engine over an
    in-memory copy of ``image``, with the trace fingerprint of ``config``."""
    config = config if config is not None else EngineConfig()
    host = Host(bytearray(image), SimClock())
    trace = HostTrace(meta=trace_fingerprint(config.round, host.mtu))
    iface = HostInterface(host, trace)
    store = BlockStore.mount(iface, key=key, trusted_root=verity_root)
    rng = RngTree(seed)
    fs = BlockFs.load(store, rng.stream("layout"))
    engine = Engine(iface, store, fs, rng, config, oblivious=oblivious)
    return Mounted(host, iface, trace, store, fs, engine)


def run_workload(engine: Engine, workload, target_rounds: int | None = None) -> bool:
    """Drive a workload, truncating at the round budget and padding an
    early finish with idle rounds, so runs with the same target produce
    the same number of rounds no matter what the workload did.

    Returns True when the workload ran to completion.
    """
    engine.round_target = target_rounds
    completed = True
    try:
        try:
            workload.run(engine)
        except RoundBudgetExhausted:
            completed = False
        if engine.oblivious and target_rounds is not None:
            while engine.rounds_done < target_rounds:
                engine.run_one_round()
    finally:
        engine.round_target = None
    return completed
