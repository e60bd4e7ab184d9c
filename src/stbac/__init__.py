"""Suspicious-taint access control as a deterministic trace-replay engine.

Processes touching untrusted network endpoints are marked suspect; the
mark follows their children, IPC and dropped executables, and three
protection rules stop marked subjects from reading secrets, corrupting
protected objects, or exhausting shared resources.  The engine replays
OS-level event traces under these rules and emits an audit log plus the
cause/effect dependency graph.
"""

from .engine import (
    AuditRecord,
    DepGraph,
    Event,
    Policy,
    ReplayResult,
    apply_event,
    export_graph,
    iter_trace,
    parse_trace,
    replay,
)
from .guard import (
    TrustEntry,
    match_trust,
    parse_pcopy_map,
    parse_trust_list,
    pr_avai,
    pr_conf,
    pr_inte,
)
from .model import (
    AVAI,
    CONF,
    FLAG_NAMES,
    INTE,
    LEAK,
    RESOURCE_KINDS,
    TAINT,
    ConfigError,
    Decision,
    FlagMutation,
    ResourceExhausted,
    StbacError,
    TraceError,
    UnknownEntity,
)
from .oracle import BibaReport, check_biba, closure_from_replay, diff_taint, taint_closure
from .taint import tr_exe_proc, tr_proc_exe, tr_proc_proc, tr_sock_proc
from .vital import vr_dir_dir, vr_file_proc, vr_proc_file, vr_proc_proc
from .world import (
    FsNode,
    InitConfig,
    Process,
    ResourceLedger,
    Socket,
    World,
    classify,
    parse_init_config,
    serialize_config,
    spawn_boot_world,
)

__version__ = "0.1.0"
