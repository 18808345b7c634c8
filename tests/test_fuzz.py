"""Hypothesis fuzzing of every decoder that reads host-supplied bytes.

Each test feeds a decoder malformed input (mutations of a well-formed
encoding, plus raw noise) and requires that it either decodes or
raises a SimError. Any other exception fails the test, and so does a
hang: every example runs under a Hypothesis deadline and, for loops
that never return, a wall-clock alarm.
"""

from __future__ import annotations

import contextlib
import signal
import struct
from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import DEFAULT_KEY
from oblivsim import (
    DEFAULT_MTU,
    FLAG_REGULAR,
    RECORD_SIZE,
    BlockStore,
    Host,
    HostInterface,
    PeerIdentity,
    ProtectionMode,
    ProvisioningSecrets,
    SimClock,
    SimError,
    StaticIdentity,
    build_image,
    establish,
    layout_for,
    max_payload,
    mount,
    parse_trace,
)

HANG_S = 10

FUZZ = settings(
    max_examples=150,
    deadline=timedelta(seconds=2),
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class Hang(Exception):
    """A decoder was still running when the alarm fired."""


@contextlib.contextmanager
def alarm(seconds: float = HANG_S):
    def fire(signum, frame):
        raise Hang(f"decoder still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def decode_or_refuse(decoder, *args, **kwargs):
    """The decoder's result, or None when it refused with a SimError."""
    with alarm():
        try:
            return decoder(*args, **kwargs)
        except SimError:
            return None


def mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


def edits(limit: int):
    return st.lists(st.tuples(st.integers(0, limit - 1), st.integers(0, 255)),
                    max_size=8)


# ---------------------------------------------------------------------------
# Image header and counter region.
# ---------------------------------------------------------------------------

N_BLOCKS = 16
IMAGES = {
    mode: build_image(N_BLOCKS, mode, [b"f" * 5000], seed=1,
                      key=DEFAULT_KEY if mode.encrypted else None)
    for mode in ProtectionMode
}
# The header record and the counter records, every byte of which the fuzz edits.
METADATA_BYTES = layout_for(N_BLOCKS, ProtectionMode.PLAIN).data_start_record * RECORD_SIZE


@FUZZ
@given(mode=st.sampled_from(list(ProtectionMode)),
       header_n=st.none() | st.integers(0, 2**64 - 1),
       field_edits=edits(32),
       region_edits=edits(METADATA_BYTES),
       root=st.sampled_from(["none", "true", "random"]),
       random_root=st.binary(min_size=32, max_size=32))
def test_image_metadata_decoder_only_raises_sim_errors(
        mode, header_n, field_edits, region_edits, root, random_root):
    bundle = IMAGES[mode]
    image = bytearray(bundle.image)
    if header_n is not None:
        image[:RECORD_SIZE] = layout_for(header_n, mode).header_record()
    image[:METADATA_BYTES] = mutate(
        mutate(bytes(image[:METADATA_BYTES]), field_edits), region_edits)
    trusted = {"none": None, "true": bundle.verity_root, "random": random_root}[root]
    iface = HostInterface(Host(image, SimClock()))
    store = decode_or_refuse(BlockStore.mount, iface, key=bundle.key,
                             trusted_root=trusted)
    if store is not None and trusted is not None:
        # A root admits exactly the metadata it was computed over.
        assert bytes(image[:METADATA_BYTES]) == bundle.image[:METADATA_BYTES]


# ---------------------------------------------------------------------------
# Filesystem superblock and inode table.
# ---------------------------------------------------------------------------

FS_IMAGE = build_image(64, ProtectionMode.PLAIN, [b"a" * 9000, b"b" * 100], seed=3)
FS_LAYOUT = layout_for(64, ProtectionMode.PLAIN)
FS_START = FS_LAYOUT.data_offset(0)
# superblock, bitmap and inode table
FS_METADATA_BYTES = mount(FS_IMAGE.image, oblivious=False).fs.metadata_blocks * RECORD_SIZE
# (offset, struct format) of each superblock field after the magic
SB_FIELDS = [(5, "<Q"), (13, "<I"), (17, "<I"), (21, "<I"), (25, "<I"),
             (29, "<I"), (33, "<I"), (37, "<Q")]


def _load_and_read(image: bytes):
    m = mount(image, seed=1, oblivious=False)
    assert m.fs.fsck() == []
    for fd in m.fs.files_with_flag(FLAG_REGULAR):
        m.engine.read_file(fd, 0, m.fs.file_size(fd))
    return m


@FUZZ
@given(field=st.none() | st.sampled_from(SB_FIELDS),
       value=st.integers(0, 2**64 - 1),
       byte_edits=edits(FS_METADATA_BYTES))
def test_filesystem_metadata_decoder_only_raises_sim_errors(field, value, byte_edits):
    image = bytearray(FS_IMAGE.image)
    if field is not None:
        pos, fmt = field
        struct.pack_into(fmt, image, FS_START + pos,
                         value % (1 << (8 * struct.calcsize(fmt))))
    image[FS_START:FS_START + FS_METADATA_BYTES] = mutate(
        bytes(image[FS_START:FS_START + FS_METADATA_BYTES]), byte_edits)
    decode_or_refuse(_load_and_read, bytes(image))


# ---------------------------------------------------------------------------
# Provisioning record.
# ---------------------------------------------------------------------------

RECORD = ProvisioningSecrets(
    disk_key=DEFAULT_KEY, verity_root=bytes(32),
    peers=(PeerIdentity(bytes(range(32)), "10.0.0.2:4000", 100_000_000),),
    exec_path="/bin/svc", exec_args=("--port", "80")).encode()


@FUZZ
@given(st.one_of(
    st.binary(max_size=200),
    st.builds(mutate, st.just(RECORD), edits(len(RECORD))),
    st.builds(lambda cut: RECORD[:cut], st.integers(0, len(RECORD))),
    st.builds(lambda tail: RECORD + tail, st.binary(min_size=1, max_size=8)),
))
def test_provisioning_record_decoder_only_raises_sim_errors(raw):
    record = decode_or_refuse(ProvisioningSecrets.decode, raw)
    if record is not None:
        assert record.encode() == raw


# ---------------------------------------------------------------------------
# Trace log.
# ---------------------------------------------------------------------------

TRACE_TEXT = ("0,disk_read,4096,4096\n"
              "100000,disk_write,8192,4096\n"
              "100000,net_write,0,1500\n")


@FUZZ
@given(st.one_of(
    st.text(max_size=200),
    st.text(alphabet="0123456789,-_ \n\rdisk_readwritenetpolltime", max_size=200),
    st.builds(lambda e: mutate(TRACE_TEXT.encode(), e).decode("latin-1"),
              edits(len(TRACE_TEXT))),
))
def test_trace_decoder_only_raises_sim_errors(text):
    trace = decode_or_refuse(parse_trace, text)
    if trace is not None:
        again = parse_trace(trace.export())
        assert again.events == trace.events
        # Every number is read only as export writes it.
        assert trace.export() == "".join(
            line.strip() + "\n" for line in text.splitlines() if line.strip())


# ---------------------------------------------------------------------------
# Wire frames.
# ---------------------------------------------------------------------------

A = StaticIdentity.from_private_bytes(bytes(range(32)))
B = StaticIdentity.from_private_bytes(bytes(range(32, 64)))


def _sessions():
    return (establish(A, PeerIdentity(B.public_bytes)),
            establish(B, PeerIdentity(A.public_bytes)))


def _authentic(a2b, counter: int, inner_len: int, body: bytes) -> bytes:
    """A frame sealed under the sender's key with any counter and any
    inner length, which ``seal_packet`` would never produce."""
    header = struct.pack(">Q", counter)
    body = body.ljust(max_payload(DEFAULT_MTU), b"\0")[:max_payload(DEFAULT_MTU)]
    return header + a2b._send.encrypt(
        b"\0" * 4 + header, struct.pack(">H", inner_len) + body, header)


frame_specs = st.one_of(
    st.tuples(st.just("noise"), st.binary(max_size=DEFAULT_MTU + 8)),
    st.tuples(st.just("noise"), st.binary(min_size=DEFAULT_MTU, max_size=DEFAULT_MTU)),
    st.tuples(st.just("genuine"), edits(DEFAULT_MTU)),
    st.tuples(st.just("crafted"), st.tuples(st.integers(0, 2**64 - 1),
                                            st.integers(0, 2**16 - 1),
                                            st.binary(max_size=16))),
)


@FUZZ
@given(st.lists(frame_specs, min_size=1, max_size=6))
def test_frame_decoder_only_raises_sim_errors(specs):
    a2b, b2a = _sessions()
    for kind, spec in specs:
        if kind == "noise":
            frame = spec
        elif kind == "genuine":
            frame = mutate(a2b.seal_packet(b"payload"), spec)
        else:
            frame = _authentic(a2b, *spec)
        payload = decode_or_refuse(b2a.open_packet, frame)
        if payload is not None:
            assert len(payload) <= max_payload(DEFAULT_MTU)
    # Whatever came before, a fresh authentic frame still gets through.
    if b2a.window.max_seen < 2**64 - 1:
        fresh = _authentic(a2b, b2a.window.max_seen + 1, 2, b"ok")
        assert b2a.open_packet(fresh) == b"ok"
