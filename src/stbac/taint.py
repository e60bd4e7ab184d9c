"""The four taint-spread rules.

Pure functions of the entities they read: each returns the FlagMutation an
event implies, or None, and the engine applies it.  The engine has checked
the trace first (socket ownership, live peers, regular and executable
targets), so the rules trust their arguments.  Taint enters through
untrusted network endpoints and then follows process creation, IPC
messages, and the write/execute cycle of executable files.  Plain data
reads and writes of non-executable files never spread taint.
"""

from __future__ import annotations

from .model import TAINT, FlagMutation
from .world import Process, FsNode, Socket


def tr_sock_proc(process: Process, socket: Socket) -> FlagMutation | None:
    """A process speaking over an untrusted remote endpoint becomes tainted."""
    if socket.trusted:
        return None
    return FlagMutation(("proc", process.pid), "TR_sock_proc",
                        ("sock", socket.sock_id), TAINT)


def tr_proc_proc(source: Process, sink: Process) -> FlagMutation | None:
    """Taint flows to the receiver of a message (or child at fork).

    Shared-memory attach has no direction; the engine asks once each way.
    """
    if not source.flags & TAINT:
        return None
    return FlagMutation(("proc", sink.pid), "TR_proc_proc",
                        ("proc", source.pid), TAINT)


def tr_proc_exe(process: Process, node: FsNode) -> FlagMutation | None:
    """An executable file created or modified by a tainted process is tainted.

    The exec bits are judged after the action takes effect; clearing them
    never taints, and writes to non-executable files are exempt.
    """
    if not process.flags & TAINT:
        return None
    if not node.exec_bits:
        return None
    return FlagMutation(("file", node.node_id), "TR_proc_exe",
                        ("proc", process.pid), TAINT)


def tr_exe_proc(process: Process, node: FsNode) -> FlagMutation | None:
    """Executing or loading a tainted file taints the process."""
    if not node.flags & TAINT:
        return None
    return FlagMutation(("proc", process.pid), "TR_exe_proc",
                        ("file", node.node_id), TAINT)
