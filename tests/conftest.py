"""Shared fixtures: in-memory images, mounted engines, and the
acceptance summary printed at the end of the run."""

from __future__ import annotations

import struct

import pytest

from oblivsim import (
    BLOCK_SIZE,
    RECORD_SIZE,
    EngineConfig,
    ImageBundle,
    Mounted,
    ProtectionMode,
    build_image,
    engine,
)

DEFAULT_KEY = bytes(range(32))


def retired_mode_header(n_blocks: int, mode: int) -> bytes:
    """A header record of the current layout carrying a retired mode's
    bytes as its images wrote them: verity (mode 1) had aead_id 0 and
    hash_id 1 (SHA-256), crypt (mode 2) had aead_id 1 (AES-256-GCM) and
    hash_id 0."""
    aead, hashid = {1: (0, 1), 2: (1, 0)}[mode]
    fields = struct.pack("<5sIQBBB", b"OBLV2", BLOCK_SIZE, n_blocks, mode, aead, hashid)
    return fields.ljust(RECORD_SIZE, b"\0")


def mount(bundle: ImageBundle, *, seed: int = 0, oblivious: bool = True,
          config: EngineConfig | None = None) -> Mounted:
    return engine.mount(bundle.image, key=bundle.key,
                        verity_root=bundle.verity_root, seed=seed,
                        config=config, oblivious=oblivious)


@pytest.fixture(scope="session")
def small_bundle() -> ImageBundle:
    """64-block encrypted image with two data files (8 and 3 blocks)."""
    return build_image(
        64, ProtectionMode.CRYPT_INTEGRITY,
        [bytes(range(256)) * 16 * 8, b"\xab" * 4096 * 3],
        seed=7, key=DEFAULT_KEY)


@pytest.fixture
def small() -> Mounted:
    bundle = build_image(
        64, ProtectionMode.CRYPT_INTEGRITY,
        [bytes(range(256)) * 16 * 8, b"\xab" * 4096 * 3],
        seed=7, key=DEFAULT_KEY)
    return mount(bundle, seed=7)


# ---------------------------------------------------------------------------
# Acceptance reporting: tests/test_acceptance.py records one line per
# criterion; they are printed as their own section after the run.
# ---------------------------------------------------------------------------

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)
