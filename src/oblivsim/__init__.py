"""Deterministic simulator of an access-pattern-hiding block stack.

The pieces, bottom up: a seven-call host boundary with full tracing
(`hostiface`), authenticated encrypted block images (`blockcrypto`),
a layout-randomizing filesystem (`blockfs`), batched padded I/O rounds
(`sched`), a square-root-sized page cache with epoch bookkeeping
(`pagecache`), the layout shuffle (`shuffle`), shaped peer links
(`channel`, `shaper`), the run engine (`engine`), workloads
(`workload`) and the observer-side analyzer (`adversary`).
"""

from .adversary import (
    RateSeries,
    TraceVerdict,
    UniformityResult,
    compare_traces,
    disk_offsets_within,
    rate_report,
    uniformity_test,
)
from .blockcrypto import (
    BlockStore,
    ProtectionMode,
    layout_for,
    new_image,
    open_block,
    seal_block,
)
from .blockfs import (
    FLAG_REGULAR,
    BlockFs,
)
from .channel import (
    Endpoint,
    PeerIdentity,
    PeerSession,
    ProvisioningSecrets,
    ReplayWindow,
    StaticIdentity,
    establish,
    max_payload,
)
from .engine import (
    EchoPeer,
    Engine,
    EngineConfig,
    ImageBundle,
    Mounted,
    NetLink,
    build_image,
    mount,
    run_workload,
    trace_fingerprint,
)
from .errors import (
    AlignmentError,
    BackpressureError,
    BoundsError,
    DescriptorError,
    HandshakeError,
    InsufficientDataError,
    IntegrityError,
    ModeError,
    ParameterError,
    PolicyError,
    RangeError,
    ReplayError,
    RoundBudgetExhausted,
    ShuffleImpossibleError,
    SimError,
    SizeError,
    SpaceError,
    StaleCounterError,
    TraceConfigMismatch,
    WouldBlock,
)
from .hostiface import (
    BLOCK_SIZE,
    DEFAULT_MTU,
    ClockId,
    Host,
    HostInterface,
    SignalInfo,
    SimClock,
)
from .pagecache import BUDGET_PAGES, Outcome, PageCache, default_capacity
from .rng import Rng, RngTree
from .sched import DEFAULT_ROUND_INTERVAL_NS, RoundConfig, RoundScheduler
from .shaper import PeerShaper, ShapingClass
from .shuffle import ShufflePlan, ShuffleStats, build_plan, oblivious_shuffle
from .trace import CallKind, HostCallEvent, HostTrace, parse_trace
from .workload import KvStore, Workload, parse_workload

__version__ = "0.1.0"
