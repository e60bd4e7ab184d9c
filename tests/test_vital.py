import pytest

from stbac.model import CONF, INTE, LEAK, NO_FLAGS, VitalRule
from stbac.vital import vr_dir_dir, vr_file_proc, vr_proc_file, vr_proc_proc
from stbac.world import INIT_PID, parent_of, parse_init_config, spawn_boot_world


@pytest.fixture
def world():
    return spawn_boot_world(parse_init_config(
        "node /sbin dir 0\nnode /vault dir 0\nnode /tmp dir 0\n"
        "node /bin dir 0\nnode /bin/copy file 1\nnode /bin/sh file 1\n"
        "node /etc dir 0\nnode /etc/passwd file 0\n"
        "inte /sbin\nconf /vault\nconf /etc/passwd\nleak /bin/copy\n"))


def proc(world):
    return world.processes[INIT_PID]


def add(world, path, kind, exec_bits=False):
    return world.add_node(path, kind, exec_bits, world.lookup(parent_of(path)))


class TestDirDir:
    def test_new_file_inherits_inte(self, world):
        parent = world.node_at("/sbin")
        node = add(world, "/sbin/new_command", "file", exec_bits=True)
        mutation = vr_dir_dir(parent, node)
        assert mutation.rule is VitalRule.DIR_DIR
        assert mutation.flags_added == INTE

    def test_unflagged_parent_spreads_nothing(self, world):
        parent = world.node_at("/tmp")
        node = add(world, "/tmp/scratch", "file")
        assert vr_dir_dir(parent, node) is None

    def test_conf_inherits_through_two_levels(self, world):
        # hand application on a growing tree: dir then file inside it
        vault = world.node_at("/vault")
        subdir = add(world, "/vault/inner", "dir")
        mutation = vr_dir_dir(vault, subdir)
        subdir.flags |= mutation.flags_added
        assert subdir.flags == CONF
        leaf = add(world, "/vault/inner/file", "file")
        mutation = vr_dir_dir(subdir, leaf)
        assert mutation.flags_added == CONF


class TestProcProc:
    def test_conf_and_leak_inherited(self, world):
        parent = proc(world)
        parent.flags = CONF | LEAK
        child = world.spawn(parent, 2)
        mutation = vr_proc_proc(parent, child)
        assert mutation.flags_added == CONF | LEAK

    def test_flagless_parent_spreads_nothing(self, world):
        child = world.spawn(proc(world), 2)
        assert vr_proc_proc(proc(world), child) is None

    def test_leak_only_parent(self, world):
        parent = proc(world)
        parent.flags = LEAK
        child = world.spawn(parent, 2)
        assert vr_proc_proc(parent, child).flags_added == LEAK

    def test_inte_is_not_inherited(self, world):
        parent = proc(world)
        parent.flags = INTE | CONF
        child = world.spawn(parent, 2)
        assert vr_proc_proc(parent, child).flags_added == CONF


class TestProcFile:
    @pytest.mark.parametrize("conf,leak,spreads", [
        (False, False, False),
        (True, False, False),
        (False, True, False),
        (True, True, True),
    ])
    def test_selective_spread_truth_table(self, world, conf, leak, spreads):
        p = proc(world)
        p.flags = (CONF if conf else NO_FLAGS) | (LEAK if leak else NO_FLAGS)
        node = add(world, "/tmp/out", "file")
        mutation = vr_proc_file(p, node)
        if spreads:
            assert mutation.flags_added == CONF
            assert mutation.rule is VitalRule.PROC_FILE
        else:
            assert mutation is None


class TestFileProc:
    def test_exec_inherits_leak(self, world):
        mutation = vr_file_proc(proc(world), world.node_at("/bin/copy"), "execve")
        assert mutation.flags_added == LEAK
        assert mutation.flags_cleared == NO_FLAGS

    def test_exec_clears_old_conf_and_leak(self, world):
        p = proc(world)
        p.flags = CONF | LEAK
        mutation = vr_file_proc(p, world.node_at("/bin/sh"), "execve")
        assert mutation.flags_cleared == CONF | LEAK
        assert mutation.flags_added == NO_FLAGS

    def test_read_of_secret_marks_reader(self, world):
        mutation = vr_file_proc(proc(world), world.node_at("/etc/passwd"), "read")
        assert mutation.flags_added == CONF

    def test_read_of_plain_file_spreads_nothing(self, world):
        assert vr_file_proc(proc(world), world.node_at("/bin/sh"), "read") is None

