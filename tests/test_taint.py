import pytest

from stbac.model import TAINT
from stbac.taint import tr_exe_proc, tr_proc_exe, tr_proc_proc, tr_sock_proc
from stbac.world import INIT_PID, parse_init_config, spawn_boot_world


@pytest.fixture
def world():
    return spawn_boot_world(parse_init_config(
        "node /bin dir 0\nnode /bin/ls file 1\nnode /tmp dir 0\n"
        "node /tmp/log file 0\nnode /tmp/dropper file 1\n"))


def proc(world, pid=INIT_PID):
    return world.processes[pid]


def make_socket(world, owner, trusted):
    return world.open_socket(world.max_sock_seen + 1, owner, ("10.0.0.9", 4000),
                             trusted)


class TestSockProc:
    def test_untrusted_socket_taints_owner(self, world):
        sock = make_socket(world, INIT_PID, trusted=False)
        mutation = tr_sock_proc(proc(world), sock)
        assert mutation.rule == "TR_sock_proc"
        assert mutation.target == ("proc", INIT_PID)
        assert mutation.cause == ("sock", sock.sock_id)

    def test_trusted_socket_spreads_nothing(self, world):
        sock = make_socket(world, INIT_PID, trusted=True)
        assert tr_sock_proc(proc(world), sock) is None

    def test_already_tainted_owner_is_idempotent(self, world):
        p = proc(world)
        p.flags |= TAINT
        sock = make_socket(world, INIT_PID, trusted=False)
        mutation = tr_sock_proc(p, sock)
        assert mutation is not None  # applying it again changes nothing


class TestProcProc:
    def test_tainted_parent_taints_fork_child(self, world):
        parent = proc(world)
        parent.flags |= TAINT
        child = world.spawn(parent, 2)
        mutation = tr_proc_proc(parent, child)
        assert mutation.rule == "TR_proc_proc"
        assert mutation.target == ("proc", 2)
        assert mutation.cause == ("proc", INIT_PID)

    def test_health_parent_spreads_nothing(self, world):
        child = world.spawn(proc(world), 2)
        assert tr_proc_proc(proc(world), child) is None

    def test_taint_flows_from_source_to_sink_only(self, world):
        a = world.spawn(proc(world), 2)
        b = world.spawn(proc(world), 3)
        b.flags |= TAINT
        assert tr_proc_proc(a, b) is None
        assert tr_proc_proc(b, a).target == ("proc", 2)


class TestProcExe:
    def test_tainted_writer_taints_executable(self, world):
        p = proc(world)
        p.flags |= TAINT
        node = world.node_at("/tmp/dropper")
        mutation = tr_proc_exe(p, node)
        assert mutation.rule == "TR_proc_exe"
        assert mutation.target == ("file", node.node_id)

    def test_non_executable_write_spreads_nothing(self, world):
        p = proc(world)
        p.flags |= TAINT
        assert tr_proc_exe(p, world.node_at("/tmp/log")) is None

    def test_health_writer_spreads_nothing(self, world):
        assert tr_proc_exe(proc(world), world.node_at("/tmp/dropper")) is None

    def test_chmod_to_executable_taints(self, world):
        p = proc(world)
        p.flags |= TAINT
        node = world.node_at("/tmp/log")
        node.exec_bits = True  # state after the chmod took effect
        mutation = tr_proc_exe(p, node)
        assert mutation is not None


class TestExeProc:
    def test_exec_of_tainted_file_taints(self, world):
        node = world.node_at("/tmp/dropper")
        node.flags |= TAINT
        mutation = tr_exe_proc(proc(world), node)
        assert mutation.rule == "TR_exe_proc"
        assert mutation.target == ("proc", INIT_PID)

    def test_exec_of_clean_file_spreads_nothing(self, world):
        assert tr_exe_proc(proc(world), world.node_at("/bin/ls")) is None

    def test_mmap_of_tainted_library_taints(self, world):
        node = world.node_at("/tmp/log")   # not executable, still loadable
        node.flags |= TAINT
        mutation = tr_exe_proc(proc(world), node)
        assert mutation is not None
