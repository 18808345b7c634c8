"""Run orchestration: one engine owns the clock, the disk cadence, the
page cache, the shuffle and the shaped network links.

Two I/O personalities implement the filesystem's block interface:

* ``CachedIo`` is the protected path. Reads and writes go through the
  page cache. A miss calls ``Engine.read_phys``: a block still in the
  write queue is served from there, and otherwise it is handed to the
  next batched round, which reads it in its first read slot, one round
  per read. Dirty pages the cache evicts go straight to the scheduler's
  write queue.
  When the cache reports that a block would need a repeat host read
  this epoch, the engine runs a layout shuffle and retries. The shuffle
  lands the dirty pages itself: its pass writes every resident page to
  the page's new home, so no flush precedes it (see
  ``Engine.shuffle_now``).
* ``DirectIo`` is the passthrough path. Every block operation is a
  single immediate host call with a small fixed latency, no padding,
  no batching. It exists as the unprotected baseline, and
  ``build_image`` writes files through it. It holds the store, the
  filesystem and the clock, not an engine.

The engine itself implements the shuffle's ``ShuffleIo`` protocol and
passes itself to ``oblivious_shuffle`` for the length of one shuffle:
each step of the pass is one ``shuffle_round`` carrying the step's read
and the previous step's write, with no trip through the write queue.
Nothing the engine owns refers back to it: the page cache is handed
its fetch per call, and a ``CachedIo`` is built per file call. So a
dropped mount, with its image copy, is freed by reference counting
alone, without waiting for the cyclic collector.

Time is the simulated clock. Each round (``shuffle_round``, which
``run_one_round`` calls with nothing handed over) first processes every
network emission instant due by the round's scheduled time, then fires
the disk round itself. Network instants live on each link's own exact
grid derived from the token bucket, so round interval and link rate
need not divide each other.

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
Links follow the same rule through ``PeerShaper``.

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

from .blockcrypto import (
    BlockStore,
    ProtectionMode,
    layout_for,
    new_image,
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
    SizeError,
    StaleCounterError,
    WouldBlock,
)
from .hostiface import Host, HostInterface, SimClock
from .pagecache import Outcome, PageCache, default_capacity
from .rng import RngTree
from .sched import RoundConfig, RoundScheduler
from .shaper import PeerShaper, ShapingClass
from .shuffle import ShuffleStats, oblivious_shuffle
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
    round: RoundConfig = field(default_factory=RoundConfig)
    cache_capacity: int | None = None  # None: ceil(sqrt(data blocks))


class CachedIo:
    """Block path through the page cache and the batched rounds. Built
    per file call; kept on the engine, it would refer back to it."""

    def __init__(self, engine: "Engine"):
        self.engine = engine

    def read_block(self, fd: int, lblk: int) -> bytes:
        engine = self.engine
        while True:
            data, outcome = engine.cache.get_block(fd, lblk, engine.read_phys)
            if outcome is not Outcome.SHUFFLE_REQUIRED:
                return data
            engine.shuffle_now()

    def write_block(self, fd: int, lblk: int, data: bytes) -> None:
        # Whole-page install; never needs the old content.
        self.engine.cache.put_block(fd, lblk, data)


class DirectIo:
    """Unprotected baseline: immediate host calls, fixed latency each."""

    def __init__(self, store: BlockStore, fs: BlockFs, clock: SimClock):
        self.store = store
        self.fs = fs
        self.clock = clock

    def _tick(self) -> None:
        clock = self.clock
        clock.advance_to(clock.now() + DEFAULT_PASSTHROUGH_LATENCY_NS)

    def read_block(self, fd: int, lblk: int) -> bytes:
        self._tick()
        return self.store.read_block(self.fs.phys_of(fd, lblk))

    def write_block(self, fd: int, lblk: int, data: bytes) -> None:
        self._tick()
        self.store.write_block(self.fs.phys_of(fd, lblk), data)


@dataclass
class NetLink:
    """Enclave-side state for one peer link."""

    endpoint: int
    session: PeerSession
    shaper: PeerShaper
    inbox: deque = field(default_factory=deque)
    rx_payload_bytes: int = 0
    rx_errors: int = 0


class EchoPeer:
    """Environment-side remote service for tests and self-contained
    runs. Shaped exactly like an enclave link; echoes real payloads."""

    def __init__(self, host, endpoint: int, session: PeerSession,
                 shaping: ShapingClass, start_ns: int = 0):
        self.host = host
        self.endpoint = endpoint
        self.session = session
        self.shaper = PeerShaper(shaping, session, start_ns)
        self._egress = host.egress[endpoint]  # what the enclave sent this peer
        self.rx_errors = 0
        self.dropped = 0

    def next_due_ns(self) -> int:
        return self.shaper.next_due_ns()

    def pump(self, now_ns: int) -> None:
        """Open what the enclave sent this peer, queue the echoes, then
        emit whatever slots are due."""
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
        for frame in self.shaper.tick(now_ns):
            self.host.deliver_frame(self.endpoint, frame)


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
        self.payload_bytes = 0
        self.links: list[NetLink] = []
        self._links_by_endpoint: dict[int, NetLink] = {}
        self.unknown_frames = 0
        # Emission instants: (due_ns, _PUMP or _LINK, insertion order, actor).
        self._net_due: list = []
        self._net_order = itertools.count()

        if oblivious:
            self.sched = RoundScheduler(
                store, fs.dummy_blocks(), rng.stream("dummy"), self.config.round)
            capacity = self.config.cache_capacity
            if capacity is None:
                capacity = default_capacity(store.n_blocks)
            self.cache = PageCache(capacity, phys_of=fs.phys_of,
                                   writeback=self.sched.submit_write)
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
            return self.rounds_done * self.config.round.interval_ns
        return self.clock.now()

    # The protected disk path: cache misses and the shuffle's rounds -----

    def read_phys(self, phys: int) -> bytes:
        """A cache miss's fetch of block ``phys``: one round reads it."""
        queued = self.sched.pending_write_for(phys)
        if queued is not None:
            # The freshest content is still in the write queue; rounds
            # run reads before writes, so a host read now would return
            # stale bytes. Serve from the queue and spend no read.
            return queued
        return self.shuffle_round(phys)

    def peek_cache(self, fd: int, lblk: int) -> bytes | None:
        return self.cache.peek(fd, lblk)

    # Rounds -------------------------------------------------------------

    def shuffle_round(self, read: int | None = None,
                      write: tuple[int, bytes] | None = None) -> bytes | None:
        """The net instants due by the next round's time, then the round,
        with ``read`` and ``write`` in its first slots; returns ``read``'s
        plaintext, or None. The shuffle's ``ShuffleIo`` step, and every
        other round too. A round past the budget raises
        ``RoundBudgetExhausted`` and reads nothing, but ``write`` is queued
        first, so the next round that runs still lands it."""
        sched = self.sched
        if sched is None:
            raise ModeError("batched rounds exist only on the protected path")
        done = sched.rounds
        if self.round_target is not None and done >= self.round_target:
            if write is not None:
                sched.submit_write(*write)
            raise RoundBudgetExhausted(f"round budget of {self.round_target} spent")
        t = done * sched.config.interval_ns
        heap = self._net_due
        if heap and heap[0][0] <= t:
            self._run_net_until(t)
        return sched.run_round(t, read, write)

    def run_one_round(self) -> None:
        """One round with nothing handed to it: queued writes or padding."""
        self.shuffle_round()

    def run_rounds(self, n: int) -> None:
        for _ in range(n):
            self.run_one_round()

    def _drain(self) -> None:
        while self.sched.pending_writes:
            self.run_one_round()

    # Shuffle ------------------------------------------------------------

    def shuffle_now(self) -> ShuffleStats:
        """Re-home every data block and start a new cache epoch.

        Dirty pages are not flushed first: the pass writes every resident
        page of the files it re-homes from the cache, at the page's new
        home, so once the pass has run those pages are on disk and are
        marked clean. Evictions queued before the pass land first. A
        page still dirty after that is flushed, and ``end_epoch`` refuses
        any left over, so none is dropped unwritten.

        On the file paths here none is left over. Every dirty page lies
        inside its file's extent, which the pass walks: ``file_write``
        reads (and so can trigger a shuffle) only blocks below the file's
        old end, and it allocates blocks past that end only after its
        reads, so no page beyond the extent is dirty when a shuffle runs.
        """
        if not self.oblivious:
            raise ModeError("the passthrough path never shuffles")
        self._drain()
        stats = oblivious_shuffle(self.fs, self, self.rng.stream("shuffle"))
        extent = {fd: self.fs.file_blocks(fd) for fd in stats.plan.fds}
        self.cache.mark_clean(lambda fd, lblk: lblk < extent.get(fd, 0))
        self.cache.flush()
        self._drain()
        self.cache.end_epoch()
        self.shuffles += 1
        return stats

    # Network ------------------------------------------------------------

    def add_link(self, endpoint: int, session: PeerSession,
                 shaping: ShapingClass | None = None,
                 start_ns: int | None = None) -> NetLink:
        """Link ``endpoint``; its emission grid starts at ``start_ns``,
        by default the current simulated time."""
        if endpoint in self._links_by_endpoint:
            raise ParameterError(f"endpoint {endpoint} already linked")
        shaping = shaping if shaping is not None else ShapingClass()
        start_ns = self.clock.now() if start_ns is None else start_ns
        link = NetLink(endpoint, session, PeerShaper(shaping, session, start_ns))
        self._schedule(link.shaper.next_due_ns(), _LINK, link)
        self.links.append(link)
        self._links_by_endpoint[endpoint] = link
        return link

    def add_external_pump(self, pump) -> None:
        """Environment actors (peers) advanced on their own grid; see the
        pump contract in the module docstring."""
        self._schedule(pump.next_due_ns(), _PUMP, pump)

    def _schedule(self, due_ns: int | None, kind: int, actor) -> None:
        """Put a new actor on the heap; one due before the simulated
        clock could never run, so it is refused."""
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
        the order they were added; ingress is drained once if a link
        emitted. Each actor goes back on the heap at its next due time."""
        heap = self._net_due
        advance_to, net_write = self.clock.advance_to, self.iface.net_write
        while heap and heap[0][0] <= t_ns:
            due = heap[0][0]
            advance_to(due)
            emitted = False
            while heap and heap[0][0] == due:
                _due, kind, order, actor = heap[0]
                if kind == _LINK:
                    for frame in actor.shaper.tick(due):
                        net_write(actor.endpoint, frame)
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
                link.rx_payload_bytes += len(payload)

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
        self.fs.file_write(self._io(), fd, offset, data)
        self.payload_bytes += len(data)

    # Reporting -------------------------------------------------------------

    def counters(self) -> dict:
        sched = self.sched
        return {
            "rounds": self.rounds_done,
            **{name: getattr(sched, name) if sched is not None else 0
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

    On encrypted images every block left untouched by the files gets a
    sealed zero block, a slot and a version, as padding writes do: under
    a fresh nonce it cannot be told from sealed data, while an image
    whose content distinguished data blocks from padding would leak the
    layout before the first mount. Verity images are sealed read-only
    instead. Both integrity modes get their trusted root in
    ``verity_root``; others get None. The image comes back as a
    read-only view of the buffer it was built in, not a copy. No engine
    is built, so nothing left behind refers to that buffer once the
    bundle is dropped.
    """
    # Format first: it refuses a block count below 8 before a buffer is sized.
    fs = BlockFs.format(n_blocks, RngTree(seed).stream("layout"),
                        max_files=max_files, max_file_blocks=max_file_blocks)
    layout = layout_for(n_blocks, mode)
    host = Host(new_image(n_blocks, mode), SimClock())
    iface = HostInterface(host)
    if mode.encrypted and key is None:
        key = os.urandom(32)
    store = BlockStore(iface, layout, key if mode.encrypted else None)
    io = DirectIo(store, fs, host.clock)
    fds = []
    for data in files:
        fd = fs.create_file()
        if data:
            fs.file_write(io, fd, 0, data)
        fds.append(fd)
    fs.persist(store)
    root = None
    if mode is ProtectionMode.VERITY:
        root = store.seal_readonly()
    elif mode.encrypted:
        for phys in range(n_blocks):
            if store.slots[phys] is None:
                store.dummy_write(phys)
        root = store.persist_metadata()
        if mode is not ProtectionMode.CRYPT_INTEGRITY:
            root = None
    return ImageBundle(memoryview(host.image).toreadonly(), key, root, tuple(fds))


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
        workload.run(engine)
    except RoundBudgetExhausted:
        completed = False
    if engine.oblivious and target_rounds is not None:
        while engine.rounds_done < target_rounds:
            engine.run_one_round()
    engine.round_target = None
    return completed
