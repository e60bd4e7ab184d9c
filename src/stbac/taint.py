"""The four taint-spread rules.

Pure functions over a world snapshot: each returns the mutation(s) an event
implies, and the engine applies them.  Taint enters through untrusted
network endpoints and then follows process creation, IPC messages, and the
write/execute cycle of executable files.  Plain data reads and writes of
non-executable files never spread taint.
"""

from __future__ import annotations

from .model import Flag, FlagMutation, StbacError, TaintRule, file_ref, proc_ref, sock_ref
from .world import Process, FsNode, Socket, World

# IPC channels a message can arrive through.  Shared memory is symmetric:
# there is no receive event, so one attach is evaluated in both directions.
IPC_CHANNELS = frozenset({
    "fork_child",
    "pipe_msg",
    "local_socket_msg",
    "shm_attach",
    "msgq_recv",
})


def tr_sock_proc(world: World, process: Process, socket: Socket) -> FlagMutation | None:
    """A process speaking over an untrusted remote endpoint becomes tainted."""
    if socket.owner != process.pid:
        raise StbacError(f"socket {socket.sock_id} does not belong to pid {process.pid}")
    if socket.trusted:
        return None
    return FlagMutation(proc_ref(process.pid), TaintRule.SOCK_PROC,
                        sock_ref(socket.sock_id), Flag.TAINT)


def tr_proc_proc(world: World, source: Process, sink: Process,
                 channel: str) -> list[FlagMutation]:
    """Taint flows to the receiver of a message (or child at fork).

    Returns up to two mutations: shared-memory attach has no direction, so
    both endpoints are evaluated against each other.
    """
    if channel not in IPC_CHANNELS:
        raise StbacError(f"unknown IPC channel {channel!r}")
    if not source.alive or not sink.alive:
        raise StbacError("IPC between dead processes")
    mutations = []
    if Flag.TAINT in source.flags:
        mutations.append(FlagMutation(proc_ref(sink.pid), TaintRule.PROC_PROC,
                                      proc_ref(source.pid), Flag.TAINT))
    if channel == "shm_attach" and Flag.TAINT in sink.flags:
        mutations.append(FlagMutation(proc_ref(source.pid), TaintRule.PROC_PROC,
                                      proc_ref(sink.pid), Flag.TAINT))
    return mutations


def tr_proc_exe(world: World, process: Process, node: FsNode,
                action: str) -> FlagMutation | None:
    """An executable file created or modified by a tainted process is tainted.

    The exec bits are judged after the action takes effect; clearing them
    never taints, and writes to non-executable files are exempt.
    """
    if action not in ("create", "write", "chmod_set_exec"):
        raise StbacError(f"bad taint action {action!r}")
    if node.kind != "file":
        raise StbacError(f"{node.path} is not a regular file")
    if Flag.TAINT not in process.flags:
        return None
    if not node.exec_bits:
        return None
    return FlagMutation(file_ref(node.node_id), TaintRule.PROC_EXE,
                        proc_ref(process.pid), Flag.TAINT)


def tr_exe_proc(world: World, process: Process, node: FsNode,
                action: str) -> FlagMutation | None:
    """Executing or loading a tainted file taints the process."""
    if action not in ("execve", "mmap_exec"):
        raise StbacError(f"bad taint action {action!r}")
    if node.kind != "file":
        raise StbacError(f"{node.path} is not a regular file")
    if action == "execve" and not node.exec_bits:
        raise StbacError(f"{node.path} is not executable")
    if Flag.TAINT not in node.flags:
        return None
    return FlagMutation(proc_ref(process.pid), TaintRule.EXE_PROC,
                        file_ref(node.node_id), Flag.TAINT)
