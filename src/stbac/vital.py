"""The four vital-flag spread rules.

CONF/INTE descend from directories to new entries, CONF/LEAK descend from
parent to child process, and the leak mechanism spreads CONF selectively:
only a process carrying both CONF and LEAK writes secrecy into files.
Nothing here ever removes INTE from anything.  Each rule is a pure function
of the entities it reads and returns the FlagMutation an event implies, or
None; the engine has checked the trace first and applies the mutation.
"""

from __future__ import annotations

from .model import CONF, INTE, LEAK, FlagMutation, file_ref, proc_ref
from .world import Process, FsNode


def vr_dir_dir(parent_dir: FsNode, new_node: FsNode) -> FlagMutation | None:
    """A new entry inherits CONF and INTE from its directory, at creation only."""
    inherited = parent_dir.flags & (CONF | INTE)
    if not inherited:
        return None
    return FlagMutation(file_ref(new_node.node_id), "VR_dir_dir",
                        file_ref(parent_dir.node_id), inherited)


def vr_proc_proc(parent: Process, child: Process) -> FlagMutation | None:
    """A new process inherits CONF and LEAK from its parent, at creation only."""
    inherited = parent.flags & (CONF | LEAK)
    if not inherited:
        return None
    return FlagMutation(proc_ref(child.pid), "VR_proc_proc",
                        proc_ref(parent.pid), inherited)


def vr_proc_file(process: Process, node: FsNode) -> FlagMutation | None:
    """Selective secrecy spread: a writer carrying both CONF and LEAK marks
    the written file CONF.

    Writing is never denied on this path; a writer holding only one of the
    two bits spreads nothing.
    """
    if process.flags & (CONF | LEAK) == CONF | LEAK:
        return FlagMutation(file_ref(node.node_id), "VR_proc_file",
                            proc_ref(process.pid), CONF)
    return None


def vr_file_proc(process: Process, node: FsNode, action: str) -> FlagMutation | None:
    """Exec ("execve") resets CONF/LEAK and inherits LEAK from the image;
    reading ("read") a CONF file marks the reader CONF.

    The exec reset applies uniformly to every process; taint is untouched
    either way.
    """
    if action == "execve":
        cleared = process.flags & (CONF | LEAK)
        added = node.flags & LEAK
        if not cleared and not added:
            return None
        return FlagMutation(proc_ref(process.pid), "VR_file_proc",
                            file_ref(node.node_id), added, cleared)
    if node.flags & CONF:
        return FlagMutation(proc_ref(process.pid), "VR_file_proc",
                            file_ref(node.node_id), CONF)
    return None
