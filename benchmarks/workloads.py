"""The three benchmark workloads.

Each workload is a closed loop with one simulated client: the next op
is issued only after the previous one has completed. Every input (file
bytes, keys, values, chunks, link keys, disk key) comes from the seed,
and the engine's own streams are seeded with it too, so one seed gives
one simulated run, bit for bit. All images are crypt-integrity and use
the default ``EngineConfig`` (1 read + 1 write per 0.1 ms round, cache
of ceil(sqrt(n_blocks)) pages).

A workload has four steps the harness times or checks:

* ``build`` and ``mount`` are set-up (``setup_s``);
* ``op(m, item)`` runs one op and returns whether its output was right;
* ``finish(m)`` runs the rounds that still belong to the run (timed);
* ``gate(m, audit)`` checks run-level properties after the loop.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field

from oblivsim import engine as oe
from oblivsim.blockcrypto import BlockStore, ProtectionMode
from oblivsim.blockfs import BlockFs
from oblivsim.channel import PeerIdentity, StaticIdentity, establish, max_payload
from oblivsim.engine import EchoPeer, Engine, EngineConfig, trace_fingerprint
from oblivsim.hostiface import BLOCK_SIZE, DEFAULT_MTU, Host, HostInterface, SimClock
from oblivsim.rng import RngTree
from oblivsim.shaper import NS_PER_S, ShapingClass
from oblivsim.trace import HostTrace
from oblivsim.workload import KvStore

MODE = ProtectionMode.CRYPT_INTEGRITY


@dataclass
class Mounted:
    """One mounted image and the workload state that lives with it."""

    host: Host
    trace: HostTrace
    engine: Engine
    fd: int = -1
    kv: KvStore | None = None
    model: dict = field(default_factory=dict)
    link: oe.NetLink | None = None
    peer: EchoPeer | None = None
    echoed: int = 0


def mount_engine(bundle: oe.ImageBundle, seed: int) -> Mounted:
    """Host -> HostInterface -> BlockStore -> BlockFs -> Engine, with the
    trace fingerprint the CLI records."""
    config = EngineConfig()
    host = Host(bytearray(bundle.image), SimClock())
    trace = HostTrace(meta=trace_fingerprint(config.round, host.mtu))
    iface = HostInterface(host, trace)
    store = BlockStore.mount(iface, key=bundle.key, trusted_root=bundle.verity_root)
    rng = RngTree(seed)
    fs = BlockFs.load(store, rng.stream("layout"))
    return Mounted(host, trace, Engine(iface, store, fs, rng, config))


class Workload:
    name = ""
    # Sizing only: a run does max(MIN_OPS, seconds * ops_per_s) ops, so the
    # op count, and with it every simulated figure, depends on the seed
    # and --seconds alone and never on how fast the host is.
    ops_per_s = 1000

    def __init__(self, seed: int):
        self.seed = seed
        self.key = self.rand("key").randbytes(32)

    def rand(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{purpose}")

    def build(self) -> oe.ImageBundle:
        raise NotImplementedError

    def mount(self, bundle: oe.ImageBundle) -> Mounted:
        m = mount_engine(bundle, self.seed)
        self.attach(m)
        m.engine.start_observation()
        return m

    def attach(self, m: Mounted) -> None:
        m.fd = m.engine.regular_fd(0)

    def ops(self, n: int):
        raise NotImplementedError

    def op(self, m: Mounted, item) -> bool:
        raise NotImplementedError

    def finish(self, m: Mounted) -> None:
        pass

    def payload_bytes(self, m: Mounted) -> int:
        return m.engine.payload_bytes

    def gate(self, m: Mounted, audit) -> tuple[list[str], int]:
        """Run-level violations, and failures to add to the op count."""
        return [], 0


class RandReadShuffle(Workload):
    """Uniform random 4 KiB reads of one data file 16x the cache."""

    name = "randread_shuffle"
    ops_per_s = 1500

    def __init__(self, seed: int, n_blocks: int = 4096, file_blocks: int = 1024):
        super().__init__(seed)
        self.n_blocks = n_blocks
        self.file_blocks = file_blocks
        self.data = self.rand("data").randbytes(file_blocks * BLOCK_SIZE)

    def build(self):
        return oe.build_image(self.n_blocks, MODE, [self.data], seed=self.seed,
                              key=self.key, max_file_blocks=self.file_blocks)

    def ops(self, n):
        rnd = self.rand("ops")
        for _ in range(n):
            yield rnd.randrange(self.file_blocks)

    def op(self, m, lblk):
        off = lblk * BLOCK_SIZE
        return m.engine.read_file(m.fd, off, BLOCK_SIZE) == self.data[off:off + BLOCK_SIZE]


class KvMixed(Workload):
    """50 % put / 50 % get on ``workload.KvStore``, Zipf-popular keys,
    every get checked against a dict model."""

    name = "kv_mixed"
    ops_per_s = 700

    def __init__(self, seed: int, n_blocks: int = 32768, file_blocks: int = 1024,
                 n_keys: int = 20_000, zipf_s: float = 0.8):
        super().__init__(seed)
        self.n_blocks = n_blocks
        self.file_blocks = file_blocks
        weights = (1.0 / (rank + 1) ** zipf_s for rank in range(n_keys))
        self.cdf = list(itertools.accumulate(weights))
        order = list(range(n_keys))
        self.rand("keys").shuffle(order)
        self.keys = [b"key%06d" % k for k in order]

    def build(self):
        empty_store = bytes(self.file_blocks * BLOCK_SIZE)
        return oe.build_image(self.n_blocks, MODE, [empty_store], seed=self.seed,
                              key=self.key, max_file_blocks=self.file_blocks)

    def attach(self, m):
        super().attach(m)
        m.kv = KvStore(m.engine, m.fd)

    def ops(self, n):
        rnd = self.rand("ops")
        total = self.cdf[-1]
        for _ in range(n):
            key = self.keys[bisect.bisect_left(self.cdf, rnd.random() * total)]
            if rnd.random() < 0.5:
                yield key, rnd.randbytes(16)
            else:
                yield key, None

    def op(self, m, item):
        key, value = item
        if value is not None:
            m.kv.put(key, value)
            m.model[key] = value
            return True
        return m.kv.get(key) == m.model.get(key)

    def finish(self, m):
        # The run owns the write-back of what it dirtied: flush, then run
        # rounds until the write queue is empty.
        engine = m.engine
        engine.cache.flush()
        while engine.sched.pending_writes or engine.sched.pending_reads:
            engine.run_one_round()


class NetEcho(Workload):
    """One shaped link to an ``EchoPeer``; an op is one MTU-payload chunk,
    timed from enqueue until it is back in ``link.inbox``."""

    name = "netecho"
    ops_per_s = 3500
    rate_bps = 200_000_000
    endpoint = 0
    # A chunk not back after this many rounds counts as never echoed
    # (a round trip takes 1-2 rounds at the default rate).
    echo_deadline_rounds = 1000

    def __init__(self, seed: int, n_blocks: int = 4096, data_blocks: int = 16):
        super().__init__(seed)
        self.n_blocks = n_blocks
        self.data = self.rand("data").randbytes(data_blocks * BLOCK_SIZE)
        ids = self.rand("identities")
        self.local_private = ids.randbytes(32)
        self.remote_private = ids.randbytes(32)

    def build(self):
        return oe.build_image(self.n_blocks, MODE, [self.data], seed=self.seed,
                              key=self.key)

    def attach(self, m):
        super().attach(m)
        local = StaticIdentity.from_private_bytes(self.local_private)
        remote = StaticIdentity.from_private_bytes(self.remote_private)
        shaping = ShapingClass(rate_bps=self.rate_bps)
        m.link = m.engine.add_link(
            self.endpoint, establish(local, PeerIdentity(remote.public_bytes)), shaping)
        m.peer = EchoPeer(m.host, self.endpoint,
                          establish(remote, PeerIdentity(local.public_bytes)), shaping)
        m.engine.add_external_pump(m.peer)

    def ops(self, n):
        rnd = self.rand("ops")
        chunk = max_payload(DEFAULT_MTU)
        for _ in range(n):
            yield rnd.randbytes(chunk)

    def op(self, m, chunk):
        engine, inbox = m.engine, m.link.inbox
        engine.net_send(self.endpoint, chunk)
        for _ in range(self.echo_deadline_rounds):
            engine.run_one_round()
            if inbox:
                break
        else:
            return False
        back = inbox.popleft()
        m.echoed += len(back)
        return back == chunk

    def payload_bytes(self, m):
        return m.echoed

    def gate(self, m, audit):
        # Both directions emit on the same exact grid: frame k leaves at
        # ceil(k * frame_cost / rate), and the engine runs every instant up
        # to the last round's time before that round.
        rounds = m.engine.rounds_done
        problems = []
        if rounds:
            last_ns = (rounds - 1) * m.engine.config.round.interval_ns
            frame_cost = DEFAULT_MTU * 8 * NS_PER_S
            expected = last_ns * self.rate_bps // frame_cost + 1
            for what, got in (("sent", audit.net_writes), ("received", audit.net_reads)):
                if abs(got - expected) > 1:
                    problems.append(f"rate: {got} frames {what} on the link, "
                                    f"{expected} expected at {self.rate_bps} bit/s")
        lost = m.link.rx_errors + m.peer.rx_errors + m.peer.dropped
        return problems, lost


WORKLOADS = {cls.name: cls for cls in (RandReadShuffle, KvMixed, NetEcho)}
