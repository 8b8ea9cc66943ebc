"""swarmwatch: simulate, monitor, and analyze a content-addressed P2P swarm."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    Cid,
    Codec,
    ConnEvent,
    ConnEventKind,
    NodeId,
    RequestType,
    TraceRecord,
    hash_content,
    read_conn_events,
    read_trace,
    write_conn_events,
    write_trace,
)
from .errors import (  # noqa: F401
    ConfigError,
    DegenerateSampleError,
    DisjointSamplesError,
    InputError,
    ProbeUnreachableError,
    SwarmwatchError,
    TraceParseError,
    UnknownGatewayError,
)
