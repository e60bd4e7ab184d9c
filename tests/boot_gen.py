"""Random boot configs for differential tests of the boot builders.

Paths come from a three-letter alphabet, at most three levels deep, so lines
collide often: implicit parents, nodes under files, repeated paths,
directories declared after their children and marks on missing paths all
turn up, next to hwm and cap lines.
"""

from __future__ import annotations

from hypothesis import strategies as st

RESOURCES = ("cpu_ticks", "memory_bytes", "net_bytes")

paths = st.one_of(
    st.just("/"),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(
        lambda parts: "/" + "/".join(parts)),
)

node_lines = st.builds("node {} {} {}".format, paths,
                       st.sampled_from(("dir", "file", "device")), st.sampled_from("01"))
mark_lines = st.builds("{} {}".format, st.sampled_from(("conf", "inte", "leak")), paths)
ledger_lines = st.one_of(
    st.builds("hwm {} {} {}".format, st.sampled_from(RESOURCES),
              st.integers(0, 50), st.integers(1, 100)),
    st.builds("cap {} {}".format, st.sampled_from(RESOURCES), st.integers(1, 100)),
)

boot_configs = st.lists(
    st.one_of(node_lines, node_lines, node_lines, mark_lines, ledger_lines),
    max_size=14,
).map(lambda lines: "".join(line + "\n" for line in lines))
