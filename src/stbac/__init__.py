"""Suspicious-taint access control as a deterministic trace-replay engine.

Processes touching untrusted network endpoints are marked suspect; the
mark follows their children, IPC and dropped executables, and three
protection rules stop marked subjects from reading secrets, corrupting
protected objects, or exhausting shared resources.  The engine replays
OS-level event traces under these rules and emits an audit log plus the
cause/effect dependency graph.
"""

__version__ = "0.1.0"
