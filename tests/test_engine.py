"""Engine behavior: image building, the cached protected path, shuffle
triggers, the shaped net loop, and whole-run determinism."""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DEFAULT_KEY, mount
from oblivsim import (
    BLOCK_SIZE,
    BUDGET_PAGES,
    DEFAULT_MTU,
    RECORD_SIZE,
    CallKind,
    DescriptorError,
    EchoPeer,
    EngineConfig,
    HostInterface,
    IntegrityError,
    ModeError,
    ParameterError,
    PeerIdentity,
    ProtectionMode,
    RangeError,
    RoundBudgetExhausted,
    RoundConfig,
    ShapingClass,
    ShuffleImpossibleError,
    SizeError,
    SpaceError,
    StaticIdentity,
    TraceConfigMismatch,
    build_image,
    compare_traces,
    establish,
    parse_workload,
    run_workload,
    trace_fingerprint,
)
import oblivsim.engine as engine_module
from oblivsim.blockcrypto import SEALED_SIZE
from oblivsim.blockfs import FLAG_REGULAR
from oblivsim.shaper import SEND_QUEUE_FRAMES
from oblivsim.shuffle import shuffle_pass

FILE_A = bytes(range(256)) * 16 * 8
FILE_B = b"\xab" * 4096 * 3


# An 8-page shelter for small_bundle's 64-block disk, far below the
# default, which is the whole disk: an epoch is 8 rounds and a pass over
# the L = 11 file blocks 11, so the cadence tests below see passes within
# a few dozen rounds.
EIGHT_PAGES = EngineConfig(cache_capacity=8)


def net_pair():
    """Enclave-side and remote-side sessions over the same link."""
    a = StaticIdentity.from_private_bytes(bytes(range(32)))
    b = StaticIdentity.from_private_bytes(bytes(range(32, 64)))
    enclave = establish(a, PeerIdentity(b.public_bytes))
    remote = establish(b, PeerIdentity(a.public_bytes))
    return enclave, remote


# --- build_image -----------------------------------------------------------


def test_files_read_back_on_the_protected_path(small_bundle):
    eng = mount(small_bundle).engine
    assert eng.read_file(eng.regular_fd(0), 0, len(FILE_A)) == FILE_A
    assert eng.read_file(eng.regular_fd(1), 0, len(FILE_B)) == FILE_B


def test_files_read_back_on_the_passthrough_path(small_bundle):
    eng = mount(small_bundle, oblivious=False).engine
    assert eng.read_file(eng.regular_fd(0), 0, len(FILE_A)) == FILE_A
    assert eng.read_file(eng.regular_fd(1), 0, len(FILE_B)) == FILE_B


def test_key_generated_when_encrypted_and_absent():
    bundle = build_image(32, ProtectionMode.CRYPT_INTEGRITY, [b"x" * 100])
    assert isinstance(bundle.key, bytes) and len(bundle.key) == 32
    eng = mount(bundle, oblivious=False).engine
    assert eng.read_file(eng.regular_fd(0), 0, 100) == b"x" * 100


def test_plain_image_has_no_key_and_builds_identically():
    kw = dict(files=[b"p" * 5000], seed=3)
    one = build_image(32, ProtectionMode.PLAIN, **kw)
    two = build_image(32, ProtectionMode.PLAIN, **kw)
    assert one.key is None and one.verity_root is None
    assert one.image == two.image
    # A key would protect nothing, so a plain image refuses one.
    with pytest.raises(ParameterError, match="a plain image takes no key"):
        build_image(32, ProtectionMode.PLAIN, key=DEFAULT_KEY, **kw)


def test_encrypted_image_leaves_no_unsealed_blocks(small_bundle):
    # Blocks never touched by a file must look to the host like every
    # other block, not zeroes it could use to map the layout offline:
    # the raw image holds distinct ciphertext in every data block and a
    # distinct nonce in every record. Inside, the padding is sealed zeros.
    m = mount(small_bundle, oblivious=False)
    pages = [m.store.read_block(p) for p in range(64)]
    assert all(len(p) == BLOCK_SIZE for p in pages)

    image, layout = small_bundle.image, m.store.layout
    records = [bytes(image[layout.data_offset(p):layout.data_offset(p) + RECORD_SIZE])
               for p in range(64)]
    assert bytes(BLOCK_SIZE) not in [r[:BLOCK_SIZE] for r in records]
    assert len({r[:BLOCK_SIZE] for r in records}) == 64
    assert len({r[SEALED_SIZE:] for r in records}) == 64

    used = set(range(m.fs.metadata_blocks))
    for fd in small_bundle.data_fds:
        used.update(m.fs.phys_of(fd, i) for i in range(m.fs.file_blocks(fd)))
    padding = set(range(64)) - used
    assert padding and all(pages[p] == bytes(BLOCK_SIZE) for p in padding)
    # Each block was sealed exactly once at build, padding included.
    assert list(m.store.versions) == [1] * 64


def _file_pages(fs, fds, files) -> dict[int, bytes]:
    """Each file block's physical block and its page: the file's bytes,
    the last block's tail zero-padded."""
    pages = {}
    for fd, data in zip(fds, files):
        padded = data + bytes(-len(data) % BLOCK_SIZE)
        for i in range(fs.file_blocks(fd)):
            pages[fs.phys_of(fd, i)] = padded[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE]
    return pages


PARTIAL = [bytes(range(251)) * 70, b"\x5a" * 100, b""]  # 5 blocks, the last partial; 1; 0


def test_a_crypt_image_opens_every_block_at_version_one_as_built():
    bundle = build_image(64, ProtectionMode.CRYPT_INTEGRITY, PARTIAL, seed=5,
                         key=DEFAULT_KEY)
    m = mount(bundle, oblivious=False)
    pages = _file_pages(m.fs, bundle.data_fds, PARTIAL)
    assert len(pages) == 6
    assert list(m.store.versions) == [1] * 64
    for phys in range(m.fs.metadata_blocks, 64):
        assert m.store.read_block(phys) == pages.get(phys, bytes(BLOCK_SIZE))


def test_build_image_writes_no_file_block_through_the_host_interface(monkeypatch):
    # Only the filesystem metadata and the counter region cross the host
    # interface; file blocks are sealed straight into the new image.
    written = []
    disk_write = HostInterface.disk_write

    def counting(self, offset, data):
        written.append(offset)
        return disk_write(self, offset, data)

    monkeypatch.setattr(HostInterface, "disk_write", counting)
    bundle = build_image(64, ProtectionMode.CRYPT_INTEGRITY, PARTIAL, seed=5,
                         key=DEFAULT_KEY)
    monkeypatch.undo()
    m = mount(bundle, oblivious=False)
    layout = m.store.layout
    files = {layout.data_offset(p) for p in _file_pages(m.fs, bundle.data_fds, PARTIAL)}
    assert len(files) == 6 and not files & set(written)
    assert sorted(written) == sorted(
        [layout.data_offset(p) for p in range(m.fs.metadata_blocks)]
        + [(1 + i) * RECORD_SIZE for i in range(layout.counter_records)])


def test_a_plain_image_built_with_files_reads_back_through_a_passthrough_mount():
    bundle = build_image(64, ProtectionMode.PLAIN, PARTIAL, seed=5)
    eng = mount(bundle, oblivious=False).engine
    for fd, data in zip(bundle.data_fds, PARTIAL):
        assert eng.read_file(fd, 0, len(data)) == data
    # A plain image holds each file page as it is.
    layout = eng.store.layout
    for phys, page in _file_pages(eng.fs, bundle.data_fds, PARTIAL).items():
        off = layout.data_offset(phys)
        assert bundle.image[off:off + BLOCK_SIZE] == page


def test_built_image_cannot_be_written_through(small_bundle):
    with pytest.raises(TypeError):
        small_bundle.image[0] = 0


def test_dropping_a_bundle_frees_the_image_at_once():
    # Nothing build_image leaves behind may sit in a reference cycle with
    # the image mapping: with the cyclic collector off, the mapping must
    # go the moment the bundle does. tracemalloc cannot see a mapping, so
    # a weak reference watches it; tracemalloc bounds what the build
    # leaves in the Python heap.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        bundle = build_image(4096, ProtectionMode.CRYPT_INTEGRITY,
                             [b"x" * BLOCK_SIZE], seed=1, key=DEFAULT_KEY)
        assert len(bundle.image) > 4096 * BLOCK_SIZE
        mapping = weakref.ref(bundle.image.obj)
        del bundle
        unmapped = mapping() is None
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert unmapped
    assert left < 64 * BLOCK_SIZE


def test_dropping_an_oblivious_mount_frees_the_image_at_once():
    # Nothing the engine owns may refer back to it, whatever the mount
    # did: with the cyclic collector off, its image copy must go the
    # moment the mount does.
    bundle = build_image(4096, ProtectionMode.CRYPT_INTEGRITY,
                         [b"x" * 3 * BLOCK_SIZE], seed=1, key=DEFAULT_KEY)
    # Built before tracing starts: the first handshake imports crypto
    # modules that stay loaded and are not the engine's to free.
    enclave, remote = net_pair()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        m = mount(bundle)
        eng = m.engine
        assert eng.read_file(eng.regular_fd(0), 0, 8) == b"x" * 8
        eng.shuffle_now()
        eng.add_link(3, enclave)
        eng.add_external_pump(EchoPeer(m.host, 3, remote, ShapingClass()))
        eng.run_rounds(2)
        held = tracemalloc.get_traced_memory()[0]
        del m, eng
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held > 4096 * BLOCK_SIZE
    assert left < 64 * BLOCK_SIZE


def test_a_mount_holds_under_24_bytes_of_trusted_heap_per_block():
    # The trusted state a mount keeps per block: an 8-byte write counter,
    # a 4-byte entry for each free or padding block and the file's block
    # map. A block's seal travels in its record, so none is held. The
    # geometry is kv_mixed's: 32 768 blocks and one 1024-block file.
    n = 32768
    bundle = build_image(n, ProtectionMode.CRYPT_INTEGRITY, [bytes(1024 * BLOCK_SIZE)],
                         seed=1, key=DEFAULT_KEY, max_file_blocks=1024)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = mount(bundle, seed=1)
        held = tracemalloc.get_traced_memory()[0] - before - len(m.host.image)
    finally:
        tracemalloc.stop()
    assert 8 * n < held < 24 * n


def test_same_seed_same_layout_fresh_ciphertext():
    kw = dict(files=[b"d" * 9000], seed=11, key=DEFAULT_KEY)
    one = build_image(32, ProtectionMode.CRYPT_INTEGRITY, **kw)
    two = build_image(32, ProtectionMode.CRYPT_INTEGRITY, **kw)
    fs1, fs2 = mount(one).fs, mount(two).fs
    assert [fs1.phys_of(one.data_fds[0], i) for i in range(3)] == \
           [fs2.phys_of(two.data_fds[0], i) for i in range(3)]
    assert fs1.dummy_blocks() == fs2.dummy_blocks()
    assert one.image != two.image
    assert one.verity_root != two.verity_root  # each image has its own id


def test_regular_fd_skips_internal_files(small_bundle):
    eng = mount(small_bundle).engine
    assert (eng.regular_fd(0), eng.regular_fd(1)) == small_bundle.data_fds
    with pytest.raises(DescriptorError):
        eng.regular_fd(2)
    with pytest.raises(DescriptorError):
        eng.regular_fd(-1)


# --- rounds and the cache --------------------------------------------------


def test_idle_rounds_sit_on_the_interval_grid(small_bundle):
    m = mount(small_bundle, config=EIGHT_PAGES)
    m.engine.start_observation()
    m.engine.run_rounds(10)
    disk = m.trace.of_kind(CallKind.DISK_READ, CallKind.DISK_WRITE)
    assert len(disk) == 20
    # The epoch's 8 rounds are padding; the pass's first two rounds each
    # read a file block and land it at its new home.
    assert m.engine.cache.capacity == 8
    padding = {m.store.layout.data_offset(p) for p in m.fs.dummy_blocks()}
    assert {e.offset for e in disk[:16]} <= padding
    assert not {e.offset for e in disk[16:]} & padding
    sched = m.engine.sched
    assert (sched.dummy_reads, sched.real_reads) == (8, 2)
    assert (sched.dummy_writes, sched.real_writes) == (8, 2)
    for i in range(10):
        read, write = disk[2 * i], disk[2 * i + 1]
        assert read.kind is CallKind.DISK_READ
        assert write.kind is CallKind.DISK_WRITE
        assert read.ts == write.ts == i * 100_000
    # The engine moved the clock to each round's instant, and no further.
    assert m.engine.clock.now() == 9 * 100_000


def test_a_flushed_page_serves_a_later_read_from_the_cache(small_bundle):
    m = mount(small_bundle, config=EngineConfig(cache_capacity=4))
    eng = m.engine
    fd = eng.regular_fd(0)
    eng.write_file(fd, 0, b"Q" * BLOCK_SIZE)
    eng.write_file(fd, BLOCK_SIZE, b"R" * BLOCK_SIZE)
    assert eng.sched.real_reads == 2  # each write spent its read slot
    assert eng.cache.flush() == 2 and eng.sched.pending_writes == 2

    # The flushed pages stay resident until the epoch ends, so reading
    # them back touches no disk, which still holds the stale bytes.
    assert eng.read_file(fd, 0, 16) == b"Q" * 16
    assert eng.read_file(fd, BLOCK_SIZE, 16) == b"R" * 16
    assert eng.sched.real_reads == 2

    while eng.sched.pending_writes:
        eng.run_one_round()
    assert m.store.read_block(m.fs.phys_of(fd, 0)) == b"Q" * BLOCK_SIZE
    assert m.store.read_block(m.fs.phys_of(fd, 1)) == b"R" * BLOCK_SIZE


def test_a_forced_pass_lands_the_queued_writes_first(small_bundle):
    # shuffle_now drains the write queue before the pass starts: the
    # flushed page takes the next round's write, at the home it has now,
    # and then the pass runs its L = 11 rounds.
    m = mount(small_bundle, config=EngineConfig(cache_capacity=16))
    eng = m.engine
    fd = eng.regular_fd(0)
    page = b"Z" * BLOCK_SIZE
    eng.write_file(fd, 2 * BLOCK_SIZE, page)
    home = m.store.layout.data_offset(m.fs.phys_of(fd, 2))
    assert eng.cache.flush() == 1 and eng.sched.pending_writes == 1
    eng.start_observation()
    before = eng.counters()
    stats = eng.shuffle_now()
    ran = {k: v - before[k] for k, v in eng.counters().items()}
    assert stats.plan.num_shuff_blk == 11
    assert ran["rounds"] == 1 + 11 and ran["shuffles"] == 1
    assert (ran["real_reads"], ran["dummy_reads"]) == (11, 1)
    assert (ran["real_writes"], ran["dummy_writes"]) == (1 + 11, 0)
    read, write, *rest = m.trace.of_kind(CallKind.DISK_READ, CallKind.DISK_WRITE)
    padding = {m.store.layout.data_offset(p) for p in m.fs.dummy_blocks()}
    assert read.offset in padding and write.offset == home
    assert not {e.offset for e in rest} & padding
    assert eng.sched.pending_writes == 0
    assert m.store.read_block(m.fs.phys_of(fd, 2)) == page
    assert eng.read_file(fd, 2 * BLOCK_SIZE, BLOCK_SIZE) == page


def test_a_write_run_longer_than_the_cache_loses_no_page():
    # A whole-block write run far longer than the cache: the cache holds
    # at most an epoch's 128 dirty pages, each pass lands them, and after
    # a last pass the disk holds every page.
    n = 1100
    bundle = build_image(2048, ProtectionMode.CRYPT_INTEGRITY, [bytes(n * BLOCK_SIZE)],
                         seed=5, key=DEFAULT_KEY, max_file_blocks=n)
    m = mount(bundle, config=EngineConfig(cache_capacity=128))
    eng = m.engine
    assert eng.cache.capacity == 128
    fd = eng.regular_fd(0)
    pages = [blk.to_bytes(2, "big") * (BLOCK_SIZE // 2) for blk in range(n)]
    for blk, page in enumerate(pages):
        eng.write_file(fd, blk * BLOCK_SIZE, page)
    eng.run_rounds(n)
    for blk, page in enumerate(pages):
        assert eng.read_file(fd, blk * BLOCK_SIZE, BLOCK_SIZE) == page
    eng.shuffle_now()
    for blk, page in enumerate(pages):
        assert m.store.read_block(m.fs.phys_of(fd, blk)) == page
    assert eng.sched.pending_writes == 0
    assert m.fs.fsck() == []


def test_refetch_after_evict_forces_a_shuffle(small_bundle):
    m = mount(small_bundle, config=EngineConfig(cache_capacity=1))
    eng = m.engine
    fd = eng.regular_fd(0)
    before = m.fs.phys_of(fd, 0)
    assert eng.read_file(fd, 0, 1) == b"\x00"
    assert eng.shuffles == 0
    # The epoch's one read slot is spent: a pass runs before block 1 is
    # fetched, and block 1 evicts block 0, carried over from before it.
    eng.read_file(fd, BLOCK_SIZE, 1)
    assert eng.shuffles == 1 and eng.cache.peek(fd, 0) is None
    assert eng.read_file(fd, 0, 1) == b"\x00"
    assert eng.shuffles == 2
    assert m.fs.phys_of(fd, 0) != before


def test_shuffle_lands_dirty_pages_without_a_flush(small_bundle):
    m = mount(small_bundle, config=EngineConfig(cache_capacity=4))
    eng = m.engine
    fd = eng.regular_fd(0)
    pages = {blk: bytes([0x40 + blk]) * BLOCK_SIZE for blk in (1, 4, 6)}
    for blk, page in pages.items():
        eng.write_file(fd, blk * BLOCK_SIZE, page)
    eng.write_file(fd, 2 * BLOCK_SIZE + 9, b"partial")  # fetched, then dirtied
    old = FILE_A[2 * BLOCK_SIZE:3 * BLOCK_SIZE]
    pages[2] = old[:9] + b"partial" + old[16:]
    assert eng.sched.pending_writes == 0  # all four pages are resident
    homes = [m.store.layout.data_offset(m.fs.phys_of(fd, blk)) for blk in pages]
    eng.start_observation()
    before = eng.rounds_done
    stats = eng.shuffle_now()
    # No flush: one round per step of the pass.
    assert eng.rounds_done - before == stats.plan.num_shuff_blk
    # No block took another's old home, so a write at one is a flush.
    assert stats.donor_reuses == 0
    written = {e.offset for e in m.trace.of_kind(CallKind.DISK_WRITE)}
    assert written.isdisjoint(homes)
    assert eng.cache.flush() == 0  # no page is left dirty
    for blk in (0, 3, 5, 7):  # evicts the four pages, all clean now
        eng.read_file(fd, blk * BLOCK_SIZE, 1)
    assert eng.sched.pending_writes == 0
    assert all(eng.cache.peek(fd, blk) is None for blk in pages)
    for blk, page in pages.items():
        assert eng.read_file(fd, blk * BLOCK_SIZE, BLOCK_SIZE) == page
    # The cadence's passes before the partial write's page went in and
    # before the read-back, and the forced one.
    assert eng.shuffles == 3


def test_dirty_page_the_pass_did_not_write_is_refused(small_bundle, monkeypatch):
    m = mount(small_bundle, config=EngineConfig(cache_capacity=4))
    eng = m.engine
    a, b = eng.regular_fd(0), eng.regular_fd(1)
    monkeypatch.setattr(  # a pass that re-homes file b only
        engine_module, "shuffle_pass",
        lambda fs, peek_cache, rng: shuffle_pass(fs, peek_cache, rng, fds=[b]))
    eng.write_file(a, 3 * BLOCK_SIZE, b"\x33" * BLOCK_SIZE)
    eng.write_file(b, 0, b"\xb0" * BLOCK_SIZE)
    with pytest.raises(ParameterError, match=f"dirty page 3 of file {a} "):
        eng.shuffle_now()
    assert eng.shuffles == 0
    # Both pages are still dirty, so a flush and its rounds land them.
    assert eng.cache.peek(a, 3) == b"\x33" * BLOCK_SIZE
    assert eng.cache.flush() == 2
    while eng.sched.pending_writes:
        eng.run_one_round()
    assert m.store.read_block(m.fs.phys_of(a, 3)) == b"\x33" * BLOCK_SIZE
    assert m.store.read_block(m.fs.phys_of(b, 0)) == b"\xb0" * BLOCK_SIZE


# SHA-256 of the "kind,offset" lines a mount of the bundle below makes
# before start_observation: the container header, the counter region, then
# the superblock, bitmap and inode table, each read once and in order.
# Fifteen records: the header, 3 counter records and 11 metadata blocks.
MOUNT_VIEW_SHA256 = "3ba0b4bb052215ec4429238ea442587dbcc747480a9480f13949e85270fd96f2"


@pytest.mark.parametrize("mode", list(ProtectionMode))
def test_what_the_host_sees_at_mount_is_pinned(mode):
    # However the mount decodes the metadata it reads, it reads the same
    # offsets in the same order; the layout is the same in every mode. A
    # plain image mounts on the passthrough path only, and the engine
    # reads nothing, so its path does not change what is pinned.
    bundle = build_image(1200, mode, [FILE_A, FILE_B], seed=7,
                         key=DEFAULT_KEY if mode.encrypted else None)
    m = mount(bundle, seed=7, oblivious=mode.encrypted)
    view = "".join(f"{e.kind.value},{e.offset}\n" for e in m.trace.events)
    assert len(m.trace.events) == 15
    assert hashlib.sha256(view.encode()).hexdigest() == MOUNT_VIEW_SHA256


def test_a_protected_mount_of_a_plain_image_is_refused():
    # Padding and passes seal what they write; over plaintext they would
    # hide nothing, so a plain image mounts on the passthrough path only.
    bundle = build_image(64, ProtectionMode.PLAIN, [FILE_B], seed=2)
    with pytest.raises(ModeError, match="must be crypt-integrity, not plain"):
        mount(bundle)
    assert mount(bundle, oblivious=False).engine.sched is None


# --- the epoch cadence ------------------------------------------------------
# small_bundle under EIGHT_PAGES: C = 8 pages, so an epoch is 8 rounds, and
# a pass over its L = 11 file blocks takes 11. Passes start at rounds 8,
# 27, 46...


def _padding_offsets(m) -> set[int]:
    return {m.store.layout.data_offset(p) for p in m.fs.dummy_blocks()}


def _written_outside_padding(m) -> list[int]:
    """Per round, whether its write landed outside the padding domain:
    every pass round lands a block, and no other does."""
    padding = _padding_offsets(m)
    return [e.offset not in padding for e in m.trace.of_kind(CallKind.DISK_WRITE)]


def test_run_rounds_gives_exactly_n_rounds_across_a_pass_boundary(small_bundle):
    m = mount(small_bundle, config=EIGHT_PAGES)
    eng = m.engine
    eng.start_observation()
    for n, done, shuffles in ((5, 5, 0), (10, 15, 0), (20, 35, 1), (5, 40, 2)):
        eng.run_rounds(n)
        assert (eng.rounds_done, eng.shuffles) == (done, shuffles)
    assert len(m.trace.of_kind(CallKind.DISK_READ)) == 40
    landed = _written_outside_padding(m)
    assert [i for i, out in enumerate(landed) if out] == \
        list(range(8, 19)) + list(range(27, 38))
    assert m.fs.fsck() == []


def test_an_image_above_4096_blocks_gets_the_whole_budget(monkeypatch):
    # 8192 blocks is over the budget, so the shelter is the budget, and
    # an idle epoch is that many rounds: passes of L rounds start at C and
    # 2C + L.
    bundle = build_image(8192, ProtectionMode.CRYPT_INTEGRITY, [FILE_A * 2],
                         seed=3, key=DEFAULT_KEY)
    m = mount(bundle, seed=3)
    eng = m.engine
    capacity, blocks = eng.cache.capacity, m.fs.file_blocks(eng.regular_fd(0))
    assert (capacity, blocks) == (BUDGET_PAGES, 16)
    starts = []

    def record_start(fs, peek_cache, rng):
        starts.append(eng.rounds_done)
        return shuffle_pass(fs, peek_cache, rng)

    monkeypatch.setattr(engine_module, "shuffle_pass", record_start)
    eng.start_observation()
    eng.run_rounds(2 * (capacity + blocks))
    assert starts == [capacity, 2 * capacity + blocks]
    assert eng.shuffles == 2
    landed = _written_outside_padding(m)
    assert [i for i, out in enumerate(landed) if out] == \
        [s + k for s in starts for k in range(blocks)]


def test_a_shelter_that_holds_every_file_block_fetches_each_once(monkeypatch):
    # Acceptance 1's image: 256 blocks, files of 24 and 16 blocks, so at
    # the default C = 256 >= L = 40. The first epoch fetches each block
    # file 0's random reads touch once; the pages are carried over, so
    # later epochs serve every read from the shelter. The cadence is the
    # same as when C < L: passes C + L rounds apart, each reading every
    # file block's home once.
    bundle = build_image(256, ProtectionMode.CRYPT_INTEGRITY,
                         [bytes(range(256)) * 16 * 24, b"\x5a" * BLOCK_SIZE * 16],
                         seed=1, key=DEFAULT_KEY)
    m = mount(bundle, seed=1)
    eng, fs, layout = m.engine, m.fs, m.store.layout
    fds = fs.files_with_flag(FLAG_REGULAR)
    capacity, blocks = eng.cache.capacity, sum(fs.file_blocks(fd) for fd in fds)
    assert (capacity, blocks) == (256, 40)
    passes = []

    def recording_pass(fs, peek_cache, rng):
        homes = [fs.phys_of(fd, b) for fd in fds for b in range(fs.file_blocks(fd))]
        passes.append((eng.rounds_done, homes))
        return shuffle_pass(fs, peek_cache, rng)

    monkeypatch.setattr(engine_module, "shuffle_pass", recording_pass)
    eng.start_observation()
    workload = parse_workload("randread(0,120)")
    fetches, hits = [], []
    for _ in range(3):
        workload.run(eng)
        fetches.append(eng.cache.fetches)
        hits.append(eng.cache.hits)
        eng.run_rounds(capacity + blocks)
    assert 0 < fetches[0] <= 24
    assert fetches == [fetches[0]] * 3
    assert hits == [120 - fetches[0], 240 - fetches[0], 360 - fetches[0]]
    starts = [start for start, _homes in passes]
    assert starts == [capacity + k * (capacity + blocks) for k in range(3)]
    reads = [e.offset for e in m.trace.of_kind(CallKind.DISK_READ)]
    padding = _padding_offsets(m)
    for start, homes in passes:
        walked = reads[start:start + blocks]
        assert sorted(walked) == sorted(layout.data_offset(h) for h in homes)
    # The epochs' real reads are the fetches, each of a distinct home.
    ends = [0] + [start + blocks for start in starts]
    for begin, end in zip(ends, starts):
        real = [off for off in reads[begin:end] if off not in padding]
        assert len(real) == len(set(real))
    epoch_reads = sum(off not in padding for begin, end in zip(ends, starts)
                      for off in reads[begin:end])
    assert epoch_reads == fetches[0]
    assert fs.fsck() == []


def test_a_stream_over_a_file_larger_than_the_shelter_runs_one_pass():
    # Acceptance 9's image: 640 blocks with one 512-block file, so C = 384
    # and L = 512. A sequential read fetches 384 blocks in the first epoch,
    # waits out one pass of 512 rounds, and fetches the last 128.
    payload = bytes(range(256)) * 8192
    bundle = build_image(640, ProtectionMode.CRYPT_INTEGRITY, [payload], seed=6,
                         key=DEFAULT_KEY, max_files=8, max_file_blocks=512)
    m = mount(bundle, seed=6)
    eng = m.engine
    assert (eng.cache.capacity, m.fs.file_blocks(eng.regular_fd(0))) == (384, 512)
    assert run_workload(eng, parse_workload("seqread(0,0)"))
    assert (eng.rounds_done, eng.shuffles, eng.payload_bytes) == (1024, 1, len(payload))
    assert eng.read_file(eng.regular_fd(0), 0, len(payload)) == payload


@pytest.mark.parametrize("spec", ["idle(104)", "randread(0,60)", "randread(1,60)",
                                  "reread(0,60)"])
def test_the_record_has_a_closed_form(small_bundle, spec):
    # Passes start at rounds fixed by C and L alone: C epoch rounds, then
    # a pass of L = 11 rounds, and again. Over 104 rounds that is five
    # passes and E = rounds - shuffles * L = 49 rounds outside them,
    # whatever the workload: the last period is cut one round into its
    # pass, so shuffles = rounds // (C + L), and E // C counts the cut
    # pass too. A read-only workload moves no block, so each pass reads
    # the homes the idle run's pass reads, in the same order, whatever
    # the cache holds.
    n, capacity, blocks = 104, 8, 11
    m = mount(small_bundle, seed=2, config=EIGHT_PAGES)
    eng = m.engine
    eng.start_observation()
    assert run_workload(eng, parse_workload(spec), target_rounds=n)
    assert (eng.cache.capacity, m.fs.file_blocks(eng.regular_fd(0))
            + m.fs.file_blocks(eng.regular_fd(1))) == (capacity, blocks)
    outside = n - eng.shuffles * blocks
    assert (eng.rounds_done, eng.shuffles, outside) == (n, 5, 49)
    assert eng.shuffles == n // (capacity + blocks) == outside // capacity - 1
    idle = mount(small_bundle, seed=2, config=EIGHT_PAGES)
    idle.engine.start_observation()
    idle.engine.run_rounds(n)
    assert _written_outside_padding(m) == _written_outside_padding(idle)
    period = capacity + blocks
    steps = [r for r in range(n) if r % period >= capacity]
    reads, idle_reads = (run.trace.of_kind(CallKind.DISK_READ) for run in (m, idle))
    assert len(steps) == 56
    assert [reads[r].offset for r in steps] == [idle_reads[r].offset for r in steps]
    # Every pass round reads a file block's home, never padding.
    padding = _padding_offsets(m)
    assert not any(reads[r].offset in padding for r in steps)


_OPS = st.lists(st.one_of(
    st.tuples(st.just("read"), st.integers(0, 1), st.integers(0, 12 * BLOCK_SIZE),
              st.integers(1, 2 * BLOCK_SIZE)),
    st.tuples(st.just("write0"), st.integers(0, 7), st.integers(0, 255)),
    st.tuples(st.just("write1"), st.integers(0, 12 * BLOCK_SIZE),
              st.integers(1, BLOCK_SIZE - 1)),
    st.tuples(st.just("append"), st.integers(1, 3 * BLOCK_SIZE), st.integers(0, 255)),
    st.tuples(st.just("rounds"), st.integers(1, 14))), max_size=30)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(capacity=st.sampled_from([2, 4]), seed=st.integers(0, 2**16), ops=_OPS)
def test_a_pass_reads_every_file_block_once_under_writes(small_bundle, capacity,
                                                         seed, ops):
    # Whatever the writes, appends and cache did before it, a pass built
    # at round r over L file blocks reads exactly their homes at that
    # moment, each once, in rounds r to r + L - 1, and each of those
    # rounds lands a block outside the padding domain, at L distinct homes.
    m = mount(small_bundle, seed=seed, config=EngineConfig(cache_capacity=capacity))
    eng, fs, layout = m.engine, m.fs, m.store.layout
    files = [bytearray(FILE_A), bytearray(FILE_B)]
    fds = (fd0, fd1) = eng.regular_fd(0), eng.regular_fd(1)
    passes = []

    def recording_pass(fs, peek_cache, rng, fds=None):
        homes = [fs.phys_of(fd, b) for fd in fs.files_with_flag(FLAG_REGULAR)
                 for b in range(fs.file_blocks(fd))]
        passes.append((eng.rounds_done, homes))
        return shuffle_pass(fs, peek_cache, rng, fds)

    eng.start_observation()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "shuffle_pass", recording_pass)
        for op, *args in ops:
            if op == "read":
                index, offset, length = args
                size = len(files[index])
                offset %= size
                length = min(length, size - offset)
                assert eng.read_file(fds[index], offset, length) == \
                    files[index][offset:offset + length]
            elif op == "write0":
                blk, byte = args
                data = bytes([byte]) * BLOCK_SIZE
                eng.write_file(fd0, blk * BLOCK_SIZE, data)
                files[0][blk * BLOCK_SIZE:(blk + 1) * BLOCK_SIZE] = data
            elif op == "write1":
                offset, length = args
                offset %= len(files[1]) - length
                data = bytes([offset & 0xFF]) * length
                eng.write_file(fd1, offset, data)
                files[1][offset:offset + length] = data
            elif op == "append":
                length, byte = args
                length = min(length, 12 * BLOCK_SIZE - len(files[1]))
                if length:
                    data = bytes([byte]) * length
                    eng.write_file(fd1, len(files[1]), data)
                    files[1] += data
            else:
                for _ in range(args[0]):
                    eng.run_one_round()
        eng.shuffle_now()
    assert passes
    interval = eng.config.round.interval_ns
    reads, writes = {}, {}
    for e in m.trace.of_kind(CallKind.DISK_READ, CallKind.DISK_WRITE):
        assert e.ts % interval == 0
        log = reads if e.kind is CallKind.DISK_READ else writes
        log.setdefault(e.ts // interval, []).append(e.offset)
    padding = {layout.data_offset(p) for p in eng.sched.dummy_targets}
    for start, homes in passes:
        rounds = range(start, start + len(homes))
        walked = [off for r in rounds for off in reads[r]]
        assert len(walked) == len(homes) == len(set(homes))
        assert sorted(walked) == sorted(layout.data_offset(h) for h in homes)
        landed = [off for r in rounds for off in writes[r]]
        assert len(set(landed)) == len(homes) and not padding & set(landed)
    for fd, data in zip(fds, files):
        assert eng.read_file(fd, 0, len(data)) == data
    assert fs.fsck() == []


def test_a_write_to_a_carried_over_page_spends_one_read_slot(small_bundle):
    m = mount(small_bundle, config=EngineConfig(cache_capacity=4))
    eng = m.engine
    fd = eng.regular_fd(0)
    for blk in range(4):
        eng.read_file(fd, blk * BLOCK_SIZE, 1)
    eng.shuffle_now()  # pages 0-3 are carried over
    eng.start_observation()
    reads = eng.sched.real_reads
    eng.write_file(fd, 0, b"\xd0" * BLOCK_SIZE)
    eng.write_file(fd, 0, b"\xd1" * BLOCK_SIZE)  # fetched now: no second read
    assert eng.sched.real_reads == reads + 1
    (read,) = [e for e in m.trace.of_kind(CallKind.DISK_READ)
               if e.offset == m.store.layout.data_offset(m.fs.phys_of(fd, 0))]
    # Two whole-block writes past the cache evict two carried-over pages,
    # though the dirty page 0 is now the least recently used one.
    eng.read_file(fd, BLOCK_SIZE, 1)
    eng.read_file(fd, 2 * BLOCK_SIZE, 1)
    eng.write_file(fd, 4 * BLOCK_SIZE, b"\xd4" * BLOCK_SIZE)
    eng.write_file(fd, 5 * BLOCK_SIZE, b"\xd5" * BLOCK_SIZE)
    assert eng.sched.real_reads == reads + 3
    assert eng.cache.peek(fd, 0) == b"\xd1" * BLOCK_SIZE
    assert eng.cache.peek(fd, 4) == b"\xd4" * BLOCK_SIZE
    assert eng.cache.peek(fd, 5) == b"\xd5" * BLOCK_SIZE
    assert len(eng.cache) == 4 and eng.sched.pending_writes == 0
    assert eng.shuffles == 1
    eng.shuffle_now()  # lands the three dirty pages
    for blk, byte in ((0, 0xd1), (4, 0xd4), (5, 0xd5)):
        assert m.store.read_block(m.fs.phys_of(fd, blk)) == bytes([byte]) * BLOCK_SIZE
    assert m.fs.fsck() == []


def test_a_whole_block_write_run_across_an_epoch_boundary_reads_back_intact(small_bundle):
    # One file_write of 10 whole blocks spends 10 read slots, so a pass
    # runs between two of its blocks and must walk the ones written.
    m = mount(small_bundle, seed=1, config=EIGHT_PAGES)
    eng = m.engine
    b = eng.regular_fd(1)
    data = bytes(range(256)) * 16 * 10
    eng.write_file(b, 3 * BLOCK_SIZE, data)
    assert eng.shuffles == 1
    assert m.fs.fsck() == []
    assert eng.read_file(b, 0, 13 * BLOCK_SIZE) == FILE_B + data
    eng.shuffle_now()
    assert eng.read_file(b, 0, 13 * BLOCK_SIZE) == FILE_B + data
    assert m.fs.fsck() == []


def test_a_stepped_pass_cut_by_the_budget_frees_its_vacated_homes(small_bundle):
    m = mount(small_bundle, seed=2, config=EIGHT_PAGES)
    eng = m.engine
    free = m.fs.free_blocks
    eng.run_rounds(8)
    eng.round_target = eng.rounds_done + 5
    with pytest.raises(RoundBudgetExhausted) as cut:
        eng.run_rounds(10)
    # Closed at once, while the error's traceback still holds the frames
    # that ran it: no vacated home is left allocated, and the next pass
    # is due.
    assert cut.traceback
    assert m.fs.free_blocks == free and m.fs.fsck() == []
    assert eng.pass_due <= eng.rounds_done == 13
    eng.round_target = None
    assert eng.read_file(eng.regular_fd(0), 0, len(FILE_A)) == FILE_A
    assert eng.shuffles == 1
    assert eng.read_file(eng.regular_fd(1), 0, len(FILE_B)) == FILE_B
    assert m.fs.free_blocks == free and m.fs.fsck() == []


@pytest.mark.parametrize("k", [0, 1, 10])
def test_a_pass_finished_by_a_read_matches_one_stepped_to_its_end(small_bundle, k):
    # The pass due at round 8 is stepped k of its L = 11 rounds, and
    # a read finishes it through shuffle_now; k = 0 leaves it to the read
    # to start. Stepping it to its end first gives the same run.
    def run(stepped):
        m = mount(small_bundle, seed=3, config=EIGHT_PAGES)
        eng = m.engine
        eng.start_observation()
        eng.run_rounds(8 + stepped)
        data = eng.read_file(eng.regular_fd(0), 5 * BLOCK_SIZE, 64)
        fs = m.fs
        return (data, eng.rounds_done, eng.shuffles, list(m.trace.events),
                [ino.block_map and list(ino.block_map) for ino in fs.inodes],
                list(fs._free), eng.rng.stream("shuffle").randbelow(2**20))

    resumed, stepped = run(k), run(11)
    assert resumed == stepped
    assert resumed[0] == FILE_A[5 * BLOCK_SIZE:5 * BLOCK_SIZE + 64]
    assert resumed[1:3] == (20, 1)


def test_passes_start_exactly_c_plus_l_rounds_apart_under_mixed_ops(monkeypatch):
    # Reads, whole-block and partial writes and appends, with no flush:
    # an epoch is exactly C rounds and a pass exactly its L rounds, so
    # each pass starts C + L rounds after the one before, with L counted
    # when that one started.
    bundle = build_image(256, ProtectionMode.CRYPT_INTEGRITY,
                         [bytes(16 * BLOCK_SIZE), bytes(8 * BLOCK_SIZE)],
                         seed=4, key=DEFAULT_KEY)
    m = mount(bundle, seed=4, config=EngineConfig(cache_capacity=16))
    eng, fs = m.engine, m.fs
    a, b = eng.regular_fd(0), eng.regular_fd(1)
    starts = []

    def record_start(fs, peek_cache, rng):
        starts.append((eng.rounds_done, fs.file_blocks(a) + fs.file_blocks(b)))
        return shuffle_pass(fs, peek_cache, rng)

    monkeypatch.setattr(engine_module, "shuffle_pass", record_start)
    for i in range(120):
        fd, op = (a, b)[i % 2], i % 5
        blk = (7 * i) % fs.file_blocks(fd)
        if op in (0, 1):
            eng.read_file(fd, blk * BLOCK_SIZE + i, 100)
        elif op == 2:
            eng.write_file(fd, blk * BLOCK_SIZE, bytes([i]) * BLOCK_SIZE)
        elif op == 3:
            eng.write_file(fd, blk * BLOCK_SIZE + 9, b"partial %d" % i)
        else:
            eng.write_file(b, fs.file_size(b), bytes([i]) * 1500)
        if i % 17 == 0:
            eng.run_rounds(3)
    assert eng.cache.capacity == 16 and starts[0][0] == 16
    assert len(starts) >= 4 and starts[-1][1] > starts[0][1] > 24
    assert eng.sched.pending_writes == 0
    for (start, blocks), (after, _blocks) in zip(starts, starts[1:]):
        assert after - start == 16 + blocks
    eng.shuffle_now()  # a running pass holds its vacated homes until it ends
    assert fs.fsck() == []


def test_a_pass_cut_by_the_budget_queues_nothing_and_the_next_round_restarts_it(
        small_bundle, monkeypatch):
    m = mount(small_bundle, seed=2, config=EIGHT_PAGES)
    eng = m.engine
    eng.run_rounds(8)
    eng.round_target = eng.rounds_done + 5
    with pytest.raises(RoundBudgetExhausted):
        eng.run_rounds(10)
    assert eng.sched.pending_writes == 0
    eng.round_target = None
    starts = []
    monkeypatch.setattr(engine_module, "shuffle_pass", lambda fs, peek_cache, rng:
                        starts.append(eng.rounds_done) or shuffle_pass(fs, peek_cache, rng))
    eng.start_observation()
    eng.run_one_round()
    # The next round is the first step of a fresh pass: it reads a file
    # block's home and lands that block.
    assert starts == [13]
    assert not {e.offset for e in m.trace.events} & _padding_offsets(m)
    assert (eng.sched.real_reads, eng.sched.real_writes) == (5 + 1, 5 + 1)


def test_a_tampered_home_pads_its_rounds_write_and_keeps_the_block_home(small_bundle):
    m = mount(small_bundle, seed=3)
    eng, fs = m.engine, m.fs
    fd = eng.regular_fd(0)
    home = fs.phys_of(fd, 5)
    m.host.image[m.store.layout.data_offset(home)] ^= 0x01
    eng.start_observation()
    with pytest.raises(IntegrityError):
        eng.shuffle_now()
    read, write = m.trace.events[-2:]
    assert (read.kind, write.kind) == (CallKind.DISK_READ, CallKind.DISK_WRITE)
    assert read.offset == m.store.layout.data_offset(home)
    # The block was not the pass's first step, and its round landed
    # nothing: the write slot padded and the map kept the old home.
    assert eng.rounds_done > 1
    assert write.offset in _padding_offsets(m)
    assert fs.phys_of(fd, 5) == home
    assert fs.fsck() == []


# --- a protected mount keeps one block free for its passes -------------------


def _one_file_image(blocks):
    """A 64-block image with one file of ``blocks`` blocks beside
    54 - ``blocks`` free ones."""
    return build_image(64, ProtectionMode.CRYPT_INTEGRITY, [bytes(blocks * BLOCK_SIZE)],
                       seed=2, key=DEFAULT_KEY)


def test_traces_recorded_under_different_shelters_refuse_to_compare(small_bundle):
    # The shelter size C is public and fixes where every pass starts, so
    # a protected trace records it, resolved, beside the round's
    # fingerprint: idle runs at C = 8 and C = 16, the same shape event
    # for event, are never compared.
    def idle(config):
        m = mount(small_bundle, config=config)
        m.engine.start_observation()
        run_workload(m.engine, parse_workload("idle(100)"), 100)
        return m.trace

    round_meta = trace_fingerprint(RoundConfig(), DEFAULT_MTU)
    eight, sixteen = idle(EIGHT_PAGES), idle(EngineConfig(cache_capacity=16))
    assert eight.meta == {**round_meta, "cache_capacity": 8}
    assert eight.shape() == sixteen.shape()
    with pytest.raises(TraceConfigMismatch):
        compare_traces(eight, sixteen)
    assert compare_traces(sixteen, idle(EngineConfig(cache_capacity=16))).shape_equal
    # The default is recorded as what it resolves to, the 64-block disk.
    assert idle(None).meta["cache_capacity"] == 64
    # The passthrough path has no shelter and records none.
    assert mount(small_bundle, oblivious=False).trace.meta == round_meta


def test_a_protected_mount_of_a_disk_with_no_free_block_is_refused():
    bundle = _one_file_image(54)
    with pytest.raises(ShuffleImpossibleError, match="0 free blocks"):
        mount(bundle)
    m = mount(bundle, oblivious=False)
    assert m.fs.free_blocks == 0 and m.fs.fsck() == []


def test_a_write_that_would_take_the_last_free_block_is_refused():
    m = mount(_one_file_image(52), config=EIGHT_PAGES)
    eng, fs = m.engine, m.fs
    fd = eng.regular_fd(0)
    eng.write_file(fd, 52 * BLOCK_SIZE, b"x")  # one new block of two free
    rounds = eng.rounds_done
    assert (fs.free_blocks, fs.file_blocks(fd)) == (1, 53)
    with pytest.raises(SpaceError, match="a protected mount keeps 1"):
        eng.write_file(fd, 52 * BLOCK_SIZE + 1, bytes(BLOCK_SIZE))
    assert (fs.free_blocks, fs.file_blocks(fd)) == (1, 53)
    assert (fs.file_size(fd), eng.rounds_done) == (52 * BLOCK_SIZE + 1, rounds)
    # Writes inside the file still run, and so do the passes.
    eng.write_file(fd, 52 * BLOCK_SIZE + 1, b"y")
    eng.run_rounds(3 * 8 + 3 * 54)
    assert eng.shuffles == 3
    assert eng.read_file(fd, 52 * BLOCK_SIZE, 2) == b"xy"
    assert fs.free_blocks == 1 and fs.fsck() == []


def test_a_write_during_a_pass_counts_the_blocks_the_pass_holds():
    # Two free blocks: five steps into the pass both are drawn as new
    # homes, and the homes it vacated come back only when it ends.
    m = mount(_one_file_image(52), config=EIGHT_PAGES)
    eng, fs = m.engine, m.fs
    fd = eng.regular_fd(0)
    eng.run_rounds(8 + 5)
    assert fs.free_blocks == 0
    eng.write_file(fd, 52 * BLOCK_SIZE, b"x")
    assert (eng.shuffles, fs.free_blocks, fs.file_blocks(fd)) == (1, 1, 53)
    assert eng.read_file(fd, 52 * BLOCK_SIZE, 1) == b"x"
    assert fs.fsck() == []


@pytest.mark.parametrize("fault", ["round budget", "tampered free blocks"])
def test_an_append_whose_block_write_raises_leaves_the_file_as_it_was(small_bundle,
                                                                      fault):
    # Installing the appended block spends a read slot on its new home:
    # the budget refuses that round, or every free block fails to open.
    # Either way the block leaves the file's map and rejoins the pool, and
    # the image persisted afterwards mounts again.
    m = mount(small_bundle)
    eng, fs = m.engine, m.fs
    fd = eng.regular_fd(1)
    size, free = fs.file_size(fd), fs.free_blocks
    assert (size, free) == (3 * BLOCK_SIZE, 43)
    if fault == "round budget":
        eng.round_target, error = eng.rounds_done, RoundBudgetExhausted
    else:
        for phys in fs._free:
            m.host.image[m.store.layout.data_offset(phys)] ^= 0x01
        error = IntegrityError
    with pytest.raises(error):
        eng.write_file(fd, size, b"z" * BLOCK_SIZE)
    assert (fs.file_size(fd), fs.file_blocks(fd), fs.free_blocks) == (size, 3, free)
    assert fs.fsck() == []
    fs.persist(m.store)
    root = m.store.persist_metadata()
    again = engine_module.mount(bytes(m.host.image), key=small_bundle.key,
                                verity_root=root, oblivious=False)
    assert again.fs.file_size(fd) == size and again.fs.free_blocks == free


@pytest.mark.parametrize("offset, length", [
    (20 * BLOCK_SIZE, 1),  # a hole
    (100 * BLOCK_SIZE, 1),  # a hole past the per-file block limit
    (3 * BLOCK_SIZE, 62 * BLOCK_SIZE),  # an append past that limit
])
def test_a_write_the_file_refuses_runs_no_round_and_leaves_the_pass_running(
        small_bundle, offset, length):
    # Each write would grow the 3-block file, but its range is refused
    # first: the pass the rounds were stepping is not finished for it,
    # and the growth check's SpaceError does not hide the RangeError.
    m = mount(small_bundle, config=EIGHT_PAGES)
    eng, fs = m.engine, m.fs
    fd = eng.regular_fd(1)
    eng.run_rounds(8 + 2)  # two rounds into the 11-round pass
    with pytest.raises(RangeError):
        eng.write_file(fd, offset, b"z" * length)
    assert (eng.rounds_done, eng.shuffles, fs.file_blocks(fd)) == (10, 0, 3)
    eng.run_rounds(9)  # the rest of the pass
    assert eng.shuffles == 1 and fs.fsck() == []


# Whole-block writes (w), partial writes (p) and 64-byte reads (r) by
# (data file index, block). With two cache pages an epoch is two rounds,
# so passes run between the ops, and writes to carried-over pages spend
# their read slots.
PINNED_OPS = [("w", 0, 0), ("w", 0, 1), ("w", 1, 0), ("r", 0, 0), ("r", 0, 1),
              ("p", 1, 2), ("r", 0, 5), ("r", 0, 5), ("w", 0, 6), ("r", 0, 0),
              ("r", 1, 0), ("p", 0, 3), ("r", 0, 6), ("r", 1, 1), ("w", 0, 7),
              ("r", 0, 1)]
# The trace was re-pinned when a pass step began landing its block in
# its own round: the reads and writes outside the padding domain and the
# final block maps stayed as they were, in the same order, plus the one
# landing the last, unfinished pass no longer holds back for a round.
# It was re-pinned when a disk call began to move a record, a block and
# its seal: every disk event's offset and length moved, and nothing else.
PINNED_TRACE_SHA256 = "be2126e41eae32e44dc9aebaa062608f7e7773ed2419dcb344d2c2b094e5a0ac"
PINNED_COUNTERS = {"rounds": 120, "real_reads": 119, "dummy_reads": 1, "real_writes": 101,
                   "dummy_writes": 19, "shuffles": 9, "cache_hits": 2,
                   "net_real": 0, "net_dummy": 0}


def test_protected_disk_path_is_pinned(small_bundle):
    m = mount(small_bundle, seed=3, config=EngineConfig(cache_capacity=2))
    eng = m.engine
    eng.start_observation()
    for kind, index, blk in PINNED_OPS:
        fd = eng.regular_fd(index)
        if kind == "w":
            eng.write_file(fd, blk * BLOCK_SIZE, bytes([16 * index + blk]) * BLOCK_SIZE)
        elif kind == "p":
            eng.write_file(fd, blk * BLOCK_SIZE + 100, b"partial")
        else:
            eng.read_file(fd, blk * BLOCK_SIZE, 64)
    eng.shuffle_now()
    a, b = eng.regular_fd(0), eng.regular_fd(1)
    assert eng.read_file(a, 7 * BLOCK_SIZE, 4) == b"\x07" * 4
    assert eng.read_file(b, 2 * BLOCK_SIZE + 100, 7) == b"partial"
    eng.run_rounds(3)
    assert eng.sched.pending_writes == 0
    digest = hashlib.sha256(m.trace.export().encode()).hexdigest()
    assert (digest, eng.counters()) == (PINNED_TRACE_SHA256, PINNED_COUNTERS)


def test_a_miss_refused_by_the_budget_makes_no_host_call(small_bundle):
    m = mount(small_bundle)
    eng = m.engine
    eng.start_observation()
    eng.round_target = 0
    with pytest.raises(RoundBudgetExhausted):
        eng.read_file(eng.regular_fd(0), 0, 4)
    assert len(m.trace.events) == 0 and eng.rounds_done == 0
    eng.round_target = None
    assert eng.read_file(eng.regular_fd(1), 0, 4) == FILE_B[:4]
    assert eng.read_file(eng.regular_fd(0), 0, 4) == FILE_A[:4]


# The pass over small_bundle's 11 blocks takes 11 rounds, one per step:
# a budget of ``cut`` rounds cuts it at step ``cut``.
@pytest.mark.parametrize("cut", [0, 1, 4, 7, 10])
def test_a_pass_cut_by_the_budget_loses_no_block(small_bundle, cut):
    m = mount(small_bundle, seed=4, config=EngineConfig(cache_capacity=4))
    eng = m.engine
    a, b = eng.regular_fd(0), eng.regular_fd(1)
    eng.write_file(a, 2 * BLOCK_SIZE, b"\x77" * BLOCK_SIZE)  # dirty and resident
    assert eng.read_file(b, BLOCK_SIZE, 4) == FILE_B[:4]
    eng.round_target = eng.rounds_done + cut
    with pytest.raises(RoundBudgetExhausted):
        eng.shuffle_now()
    # Each step that ran landed its own block, so nothing is queued.
    assert eng.sched.pending_writes == 0
    eng.round_target = None
    expected = FILE_A[:2 * BLOCK_SIZE] + b"\x77" * BLOCK_SIZE + FILE_A[3 * BLOCK_SIZE:]
    assert eng.read_file(a, 0, len(FILE_A)) == expected
    assert eng.read_file(b, 0, len(FILE_B)) == FILE_B
    assert m.fs.fsck() == []


def test_passthrough_refuses_protected_operations(small_bundle):
    eng = mount(small_bundle, oblivious=False).engine
    with pytest.raises(ModeError):
        eng.run_one_round()
    with pytest.raises(ModeError):
        eng.shuffle_now()


def test_passthrough_refuses_links_and_pumps(small_bundle):
    # It has no net loop: a link would never emit and a pump never run.
    m = mount(small_bundle, oblivious=False)
    eng = m.engine
    enclave, remote = net_pair()
    with pytest.raises(ModeError, match="no net loop"):
        eng.add_link(3, enclave)
    with pytest.raises(ModeError, match="no net loop"):
        eng.add_external_pump(EchoPeer(m.host, 3, remote, ShapingClass()))
    assert eng.links == [] and eng.counters()["net_real"] == 0


def test_passthrough_charges_fixed_latency(small_bundle):
    m = mount(small_bundle, oblivious=False)
    eng = m.engine
    eng.read_file(eng.regular_fd(0), 0, 1)
    assert eng.elapsed_ns == 10_000
    eng.write_file(eng.regular_fd(0), 0, b"y" * BLOCK_SIZE)
    assert eng.elapsed_ns == 20_000


def test_trace_records_every_boundary_mutation(small_bundle):
    m = mount(small_bundle)
    enclave, remote = net_pair()
    m.engine.add_link(3, enclave)
    m.engine.add_external_pump(EchoPeer(m.host, 3, remote, ShapingClass()))

    m.engine.start_observation()
    fd = m.engine.regular_fd(0)
    m.engine.write_file(fd, 0, b"z" * BLOCK_SIZE)
    m.engine.net_send(3, b"hello")
    m.engine.read_file(fd, 2 * BLOCK_SIZE, 64)
    m.engine.run_rounds(4)
    m.engine.cache.flush()
    while m.engine.sched.pending_writes:
        m.engine.run_one_round()

    mutations = m.trace.of_kind(
        CallKind.DISK_WRITE, CallKind.NET_WRITE, CallKind.NET_READ)
    assert m.host.boundary_mutations == len(mutations) > 8


# --- net links ---------------------------------------------------------------


def test_echo_peer_roundtrip(small_bundle):
    m = mount(small_bundle)
    enclave, remote = net_pair()
    link = m.engine.add_link(7, enclave)
    peer = EchoPeer(m.host, 7, remote, ShapingClass())
    m.engine.add_external_pump(peer)

    m.engine.net_send(7, b"ping")
    m.engine.run_rounds(2)

    assert peer.session.received_real == 1
    assert list(link.inbox) == [b"ping"]
    assert link.rx_errors == 0
    assert m.engine.counters()["net_real"] >= 1
    assert m.engine.counters()["net_dummy"] >= 1


def test_ingress_under_a_lying_poll_delivers_each_payload_once(small_bundle):
    # The host first says "readable" with nothing queued, then "not
    # readable" while frames wait. Each lie ends that drain; the next one
    # after the host tells the truth again takes every frame queued.
    m = mount(small_bundle)
    enclave, remote = net_pair()
    link = m.engine.add_link(7, enclave)
    m.engine.add_external_pump(EchoPeer(m.host, 7, remote, ShapingClass()))
    m.host.poll_script = [(True, True)] * 3 + [(False, True)] * 5
    m.engine.net_send(7, b"ping")
    m.engine.run_rounds(30)
    assert m.host.poll_script == []
    assert list(link.inbox) == [b"ping"]
    assert link.rx_errors == m.engine.unknown_frames == 0
    assert not m.host.ingress


def test_an_empty_send_is_refused_and_counts_nothing(small_bundle):
    # An empty payload would leave as a frame the peer counts as padding.
    m = mount(small_bundle)
    enclave, remote = net_pair()
    link = m.engine.add_link(7, enclave)
    peer = EchoPeer(m.host, 7, remote, ShapingClass())
    m.engine.add_external_pump(peer)
    before = m.engine.counters()
    with pytest.raises(SizeError):
        m.engine.net_send(7, b"")
    assert link.shaper.backlog == 0
    assert m.engine.counters() == before
    m.engine.run_rounds(2)
    assert enclave.sent_real == peer.session.received_real == 0


# (link rate in bit/s, rounds run before the link and its peer are
# added, both starting at the clock): rates whose frame time does not
# divide the 100 us round, and a link added mid-run.
SHAPER_GRID_CASES = [(200_000_000, 0), (75_000_000, 0), (333_333_333, 0),
                     (333_333_333, 3)]


def test_net_writes_stay_on_the_shaper_grid(small_bundle):
    cost = 1500 * 8 * 1_000_000_000  # one frame, in bit-nanoseconds
    for rate, first_rounds in SHAPER_GRID_CASES:
        m = mount(small_bundle)
        m.engine.start_observation()
        m.engine.run_rounds(first_rounds)
        start = m.engine.clock.now()
        enclave, remote = net_pair()
        m.engine.add_link(7, enclave, ShapingClass(rate_bps=rate))
        m.engine.add_external_pump(
            EchoPeer(m.host, 7, remote, ShapingClass(rate_bps=rate)))
        m.engine.run_rounds(10)
        last_round = (first_rounds + 9) * 100_000
        due = [start + (k * cost + rate - 1) // rate for k in range(100)]
        writes = m.trace.of_kind(CallKind.NET_WRITE)
        # The k-th write sits at start + ceil(k * cost / rate), and none
        # due by the last round is missing.
        assert [e.ts for e in writes] == [t for t in due if t <= last_round]
        assert all(e.payload_len == m.host.mtu for e in writes)


# (endpoint, link rate, peer rate) in bit/s: mixed rates and a peer
# slower or faster than its link.
MIXED_LINKS = [(0, 200_000_000, 200_000_000), (1, 100_000_000, 100_000_000),
               (2, 150_000_000, 150_000_000), (3, 50_000_000, 80_000_000),
               (4, 333_333_333, 333_333_333), (5, 200_000_000, 120_000_000),
               (6, 75_000_000, 75_000_000)]
LATE_LINK = (7, 120_000_000, 240_000_000)
# SHA-256 of the export of ``_run_mixed_links`` and of its echo log. The
# echo digest was fixed when the net loop polled every actor at every
# instant; the trace and counters were derived on the event-driven loop
# with the token-bucket shaper at burst depth 1 on every link, and the
# one-frame shaper reproduces them byte for byte. The trace pins the
# order of the enclave's calls; the echo log pins when each payload came
# back, which moves if peers and links swap turns within an instant.
# Which frames were padding is pinned from the sessions' own counters:
# (endpoint, sent_real, sent_dummy) per link and (endpoint,
# received_real, received_dummy) per peer. The trace was re-pinned when
# idle disks started to shuffle on the epoch cadence: its disk offsets
# moved, and the net calls and echoes stayed byte for byte. It was
# re-pinned again when a pass step began landing its block in its own
# round: the disk reads and writes outside the padding domain and the
# final block maps stayed as they were. Everything was re-pinned when
# links and peers began to start on the clock: the late link and its
# peer now start at 1.9 ms, round 19's instant, not 12 345 ns past round
# 20. Endpoint 7 sends 2 padding frames more and its peer 4 frames more,
# the late link's instants now fall on other links' ones and share
# their ingress drain (14 net polls fewer, 2251 events, was 2259), and
# its last payload has not reached the peer when the run ends (151
# echoes, was 152). The seven links from the start send and receive as
# before. Records moved the disk events' offsets and lengths, and
# nothing else.
MIXED_LINKS_TRACE_SHA256 = \
    "9586e361f66bfd23b1d8588c5c263e12d32d36d0a93acf2f81d93c13226c4702"
MIXED_LINKS_ECHO_SHA256 = \
    "9f9f983c4b407bd92d6fc4580e0d80fb904b9b3468b04b7765fa53279c4144ad"
MIXED_LINKS_SENT = [(0, 20, 79), (1, 20, 30), (2, 20, 54), (3, 20, 5),
                    (4, 20, 144), (5, 20, 79), (6, 20, 17), (7, 14, 27)]
MIXED_LINKS_RECEIVED = [(0, 20, 78), (1, 19, 30), (2, 20, 53), (3, 20, 5),
                        (4, 20, 143), (5, 20, 79), (6, 19, 17), (7, 13, 27)]


def _run_mixed_links(bundle):
    """Seven links, an eighth added on the clock after round 20, sends on
    a fixed schedule; 60 observed rounds, with passes every 8 + 11 rounds.
    Returns the mount, the peers by endpoint and one
    ``round,endpoint,payload`` line per echo received."""
    m = mount(bundle, seed=3, config=EIGHT_PAGES)
    peers = {}
    echoes = []

    def attach(spec):
        ep, rate, peer_rate = spec
        a = StaticIdentity.from_private_bytes(bytes([ep]) * 31 + b"\x01")
        b = StaticIdentity.from_private_bytes(bytes([ep]) * 31 + b"\x02")
        m.engine.add_link(ep, establish(a, PeerIdentity(b.public_bytes)),
                          ShapingClass(rate_bps=rate))
        peers[ep] = EchoPeer(m.host, ep, establish(b, PeerIdentity(a.public_bytes)),
                             ShapingClass(rate_bps=peer_rate))
        m.engine.add_external_pump(peers[ep])

    for spec in MIXED_LINKS:
        attach(spec)
    m.engine.start_observation()
    for r in range(60):
        if r == 20:
            attach(LATE_LINK)
        for link in m.engine.links:
            if (r + link.endpoint) % 3 == 0:
                m.engine.net_send(link.endpoint,
                                  bytes([r, link.endpoint]) * (8 + link.endpoint))
        m.engine.run_one_round()
        for link in m.engine.links:
            while link.inbox:
                echoes.append(f"{r},{link.endpoint},{link.inbox.popleft().hex()}\n")
    return m, peers, echoes


def test_mixed_link_event_order_is_pinned(small_bundle):
    m, peers, echoes = _run_mixed_links(small_bundle)
    text = m.trace.export()
    assert len(m.trace) == 2251
    assert hashlib.sha256(text.encode()).hexdigest() == MIXED_LINKS_TRACE_SHA256
    assert [(l.endpoint, l.session.sent_real, l.session.sent_dummy)
            for l in m.engine.links] == MIXED_LINKS_SENT
    assert [(ep, p.session.received_real, p.session.received_dummy)
            for ep, p in sorted(peers.items())] == MIXED_LINKS_RECEIVED
    assert len(echoes) == 151
    assert hashlib.sha256("".join(echoes).encode()).hexdigest() == \
        MIXED_LINKS_ECHO_SHA256


# A shuffle pass whose rounds share the clock with one live link. At 50
# Mbit/s the link and its peer are due every 240 us, so some rounds
# have net instants before them and some have none. Pinned: the export's
# SHA-256, the engine's counters and, per session, (sent_real,
# sent_dummy, received_real, received_dummy); re-pinned like
# PINNED_TRACE_SHA256, with the same real reads, real writes and block
# maps, and again when records moved the disk events' offsets and lengths.
LIVE_LINK_SHUFFLE_SHA256 = \
    "e461466e0fa1cf75afb0adccf44aa3a6f25dda47e9b95c4f4becfa43a37382d3"
LIVE_LINK_SHUFFLE_COUNTERS = {"rounds": 37, "real_reads": 24, "dummy_reads": 13,
                              "real_writes": 22, "dummy_writes": 15, "shuffles": 2,
                              "cache_hits": 1, "net_real": 5, "net_dummy": 11}
LIVE_LINK_SHUFFLE_SESSIONS = [(5, 11, 5, 11), (5, 11, 5, 10)]


def test_shuffle_with_a_live_link_is_pinned(small_bundle):
    m = mount(small_bundle, seed=5, config=EIGHT_PAGES)
    eng = m.engine
    enclave, remote = net_pair()
    shaping = ShapingClass(50_000_000)
    link = eng.add_link(3, enclave, shaping)
    peer = EchoPeer(m.host, 3, remote, shaping)
    eng.add_external_pump(peer)
    eng.start_observation()
    for i in range(4):
        eng.net_send(3, bytes([i]) * (10 + i))
        eng.run_rounds(2)
    a = eng.regular_fd(0)
    eng.write_file(a, BLOCK_SIZE, b"\x5a" * BLOCK_SIZE)
    assert eng.read_file(a, 0, 4) == FILE_A[:4]
    stats = eng.shuffle_now()
    eng.net_send(3, b"after")
    eng.run_rounds(5)
    # The 8 net rounds were an epoch, so a pass came before the write.
    assert stats.swaps == 11 and eng.shuffles == 2
    assert list(link.inbox) == [bytes([i]) * (10 + i) for i in range(4)] + [b"after"]
    assert eng.read_file(a, BLOCK_SIZE, 4) == b"\x5a" * 4
    sessions = [(s.sent_real, s.sent_dummy, s.received_real, s.received_dummy)
                for s in (link.session, peer.session)]
    digest = hashlib.sha256(m.trace.export().encode()).hexdigest()
    assert (digest, eng.counters(), sessions) == (
        LIVE_LINK_SHUFFLE_SHA256, LIVE_LINK_SHUFFLE_COUNTERS, LIVE_LINK_SHUFFLE_SESSIONS)


def test_every_frame_sent_is_received_or_still_queued(small_bundle):
    m, peers, _echoes = _run_mixed_links(small_bundle)
    in_flight = {}
    for ep, _frame in m.host.ingress:
        in_flight[ep] = in_flight.get(ep, 0) + 1
    for link in m.engine.links:
        peer = peers[link.endpoint]
        out, back = link.session, peer.session
        assert out.sent_real + out.sent_dummy > 0
        # Enclave -> peer: opened by the peer, rejected, or on the wire.
        assert out.sent_real + out.sent_dummy == (
            back.received_real + back.received_dummy + peer.rx_errors
            + len(m.host.egress[link.endpoint]))
        # Peer -> enclave, the same.
        assert back.sent_real + back.sent_dummy == (
            out.received_real + out.received_dummy + link.rx_errors
            + in_flight.get(link.endpoint, 0))
        assert peer.rx_errors == link.rx_errors == peer.dropped == 0


def test_echo_peer_drops_payloads_beyond_its_send_queue_and_keeps_echoing(small_bundle):
    m = mount(small_bundle)
    enclave, remote = net_pair()
    peer = EchoPeer(m.host, 7, remote, ShapingClass())
    for i in range(SEND_QUEUE_FRAMES + 3):
        m.host.egress[7].append(enclave.seal_packet(b"burst %d" % i))
    peer.pump(0)
    assert peer.session.received_real == 4099
    assert peer.dropped == 3
    (ep, frame), = m.host.ingress
    assert (ep, enclave.open_packet(frame)) == (7, b"burst 0")

    m.host.egress[7].append(enclave.seal_packet(b"after"))
    peer.pump(peer.next_due_ns())
    assert peer.dropped == 3
    assert peer.shaper.backlog == SEND_QUEUE_FRAMES - 1  # "after" was queued
    assert enclave.open_packet(m.host.ingress[-1][1]) == b"burst 1"


class _ScriptedPump:
    """Due at each time in ``dues`` in turn, then retired (None)."""

    def __init__(self, dues):
        self.dues = list(dues)
        self.ran = []
        self.reads = 0

    def next_due_ns(self):
        self.reads += 1
        return self.dues[0] if self.dues else None

    def pump(self, now_ns):
        self.ran.append(now_ns)
        self.dues.pop(0)


def test_pump_due_time_is_read_after_adding_and_after_each_pump(small_bundle):
    m = mount(small_bundle)
    pump = _ScriptedPump([0, 50_000, 150_000])
    m.engine.add_external_pump(pump)
    m.engine.run_rounds(5)
    assert pump.ran == [0, 50_000, 150_000]
    assert pump.reads == 1 + len(pump.ran)  # the last read returned None


def test_pump_that_does_not_move_forward_is_refused(small_bundle):
    m = mount(small_bundle)
    m.engine.add_external_pump(_ScriptedPump([0, 40_000, 40_000]))
    with pytest.raises(ParameterError):
        m.engine.run_rounds(2)


def test_link_added_after_rounds_starts_at_the_current_time(small_bundle):
    m = mount(small_bundle)
    m.engine.run_rounds(5)
    now = m.engine.clock.now()
    enclave, _remote = net_pair()
    link = m.engine.add_link(0, enclave)
    m.engine.run_rounds(2)
    assert m.engine.rounds_done == 7
    writes = m.trace.of_kind(CallKind.NET_WRITE)
    assert link.session.sent_real + link.session.sent_dummy == len(writes) > 0
    assert writes[0].ts == now


def test_echo_peer_added_after_rounds_starts_at_the_current_time(small_bundle):
    # A peer built with its defaults once rounds have run starts its grid
    # at the clock, as a link does, so the net loop takes it and it echoes.
    m = mount(small_bundle)
    m.engine.run_rounds(3)
    enclave, remote = net_pair()
    link = m.engine.add_link(0, enclave)
    peer = EchoPeer(m.host, 0, remote, ShapingClass())
    m.engine.add_external_pump(peer)
    assert peer.next_due_ns() == m.engine.clock.now() > 0
    m.engine.net_send(0, b"late hello")
    m.engine.run_rounds(3)
    assert list(link.inbox) == [b"late hello"]
    assert peer.rx_errors == link.rx_errors == 0


def test_pump_already_due_in_the_past_is_refused(small_bundle):
    m = mount(small_bundle)
    m.engine.run_rounds(5)
    pump = _ScriptedPump([m.engine.clock.now() - 1])
    with pytest.raises(ParameterError):
        m.engine.add_external_pump(pump)
    m.engine.run_rounds(2)
    assert m.engine.rounds_done == 7
    assert pump.ran == []


def test_duplicate_endpoint_rejected(small_bundle):
    m = mount(small_bundle)
    enclave, _remote = net_pair()
    m.engine.add_link(7, enclave)
    with pytest.raises(ParameterError):
        m.engine.add_link(7, enclave)


def test_send_to_unlinked_endpoint_rejected(small_bundle):
    m = mount(small_bundle)
    with pytest.raises(ParameterError):
        m.engine.net_send(9, b"lost")
    with pytest.raises(ParameterError):
        m.engine.link(9)


def test_frame_for_unknown_endpoint_is_counted_and_dropped(small_bundle):
    m = mount(small_bundle)
    enclave, _remote = net_pair()
    m.engine.add_link(7, enclave)
    m.host.deliver_frame(99, bytes(1500))
    m.engine.run_rounds(1)
    assert m.engine.unknown_frames == 1
    assert m.engine.link(7).rx_errors == 0


def test_undecryptable_frame_counts_as_rx_error(small_bundle):
    m = mount(small_bundle)
    enclave, remote = net_pair()
    link = m.engine.add_link(7, enclave)
    frame = bytearray(remote.seal_packet(b"flip me"))
    frame[40] ^= 0x01
    m.host.deliver_frame(7, bytes(frame))
    m.engine.run_rounds(1)
    assert link.rx_errors == 1
    assert list(link.inbox) == []


def test_a_corrupted_frame_to_the_peer_counts_as_its_rx_error(small_bundle):
    # A frame the host changed on its way to the peer fails to open: the
    # peer counts it and raises nothing, the link keeps its 60 us grid,
    # and the next payload is echoed back.
    m = mount(small_bundle)
    m.engine.start_observation()
    enclave, remote = net_pair()
    link = m.engine.add_link(7, enclave)
    peer = EchoPeer(m.host, 7, remote, ShapingClass())
    m.engine.add_external_pump(peer)
    m.engine.net_send(7, b"ping")
    m.engine.run_rounds(1)  # the link sent "ping" at 0
    (frame,) = m.host.egress[7]
    flipped = bytearray(frame)
    flipped[40] ^= 0x01
    m.host.egress[7][0] = bytes(flipped)
    m.engine.run_rounds(4)
    assert peer.rx_errors == 1
    assert peer.session.received_real == 0 and list(link.inbox) == []
    m.engine.net_send(7, b"pong")
    m.engine.run_rounds(5)
    assert peer.rx_errors == 1 and link.rx_errors == 0
    assert list(link.inbox) == [b"pong"]
    writes = m.trace.of_kind(CallKind.NET_WRITE)
    assert [e.ts for e in writes] == list(range(0, 9 * 100_000 + 1, 60_000))


# --- run_workload ------------------------------------------------------------


def test_round_budget_truncates_a_long_workload(small_bundle):
    eng = mount(small_bundle).engine
    done = run_workload(eng, parse_workload("seqread(0,0)"), target_rounds=3)
    assert done is False
    assert eng.rounds_done == 3
    assert eng.round_target is None


def test_short_workload_padded_to_the_target(small_bundle):
    eng = mount(small_bundle).engine
    done = run_workload(eng, parse_workload("idle(2)"), target_rounds=6)
    assert done is True
    assert eng.rounds_done == 6


class _FailsAfterThreeRounds:
    def run(self, engine):
        engine.run_rounds(3)
        raise ParameterError("the workload gave up")


def test_a_workload_that_raises_leaves_no_round_budget(small_bundle):
    eng = mount(small_bundle).engine
    with pytest.raises(ParameterError, match="gave up"):
        run_workload(eng, _FailsAfterThreeRounds(), target_rounds=100)
    assert eng.round_target is None
    eng.run_rounds(110)
    assert eng.rounds_done == 113


def test_same_seed_same_trace(small_bundle):
    exports = []
    for _ in range(2):
        m = mount(small_bundle, seed=5)
        run_workload(m.engine, parse_workload("randread(0,40)"),
                     target_rounds=60)
        exports.append((m.trace.export(), m.engine.counters()))
    assert exports[0] == exports[1]


def test_counters_shape(small_bundle):
    keys = {"rounds", "real_reads", "dummy_reads", "real_writes",
            "dummy_writes", "shuffles", "cache_hits", "net_real", "net_dummy"}
    protected = mount(small_bundle).engine
    protected.run_rounds(2)
    c = protected.counters()
    assert set(c) == keys
    assert c["rounds"] == 2 and c["dummy_reads"] == 2

    plain = mount(small_bundle, oblivious=False).engine
    plain.read_file(plain.regular_fd(0), 0, 1)
    c = plain.counters()
    assert set(c) == keys
    # A passthrough read is one real host read, and pads nothing.
    assert (c["rounds"], c["real_reads"], c["dummy_reads"]) == (0, 1, 0)
