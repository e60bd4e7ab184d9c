"""Random boot configs for differential tests of the boot parser and builders.

Paths come from a three-letter alphabet, at most three levels deep, so lines
collide often: implicit parents, nodes under files, repeated paths,
directories declared after their children and marks on missing paths all
turn up, next to hwm and cap lines.  boot_configs are well-formed line by
line; raw_boot_texts mix in lines the parser must refuse or read past.
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

# -- malformed and oddly spaced lines -------------------------------------------

# Paths that break the path rule: relative (twice), trailing slash (twice),
# empty component, comma.
BAD_PATHS = ("a", "a/b", "/a/", "//", "/a//b", "/a,b")

# Node lines whose path, kind and exec bit may each be bad, so that one line
# can break several checks and the first in the parser's order must win.
odd_node_lines = st.builds(
    "node {} {} {}".format,
    st.one_of(paths, st.sampled_from(BAD_PATHS)),
    st.sampled_from(("dir", "file", "device", "sock", "Dir")),
    st.sampled_from(("0", "1", "2", "01", "-")),
)
odd_mark_lines = st.builds("{} {}".format, st.sampled_from(("conf", "inte", "leak")),
                           st.sampled_from(BAD_PATHS))
malformed_lines = st.sampled_from((
    # wrong field counts
    "node", "node /a", "node /a file", "node /a file 0 1", "node /a file 0 # note",
    "conf", "inte /a /b", "hwm cpu_ticks 3", "hwm cpu_ticks 3 50 1", "cap cpu_ticks",
    "cap cpu_ticks 5 6",
    # unknown directives and resource kinds, bad numbers
    "frob /a", "Node /a file 0", "taint /a", "hwm disk 1 50", "cap cpu 5",
    "cap cpu_ticks x", "cap cpu_ticks 0", "cap cpu_ticks -3", "cap cpu_ticks +3",
    "cap cpu_ticks ١٢", "hwm cpu_ticks -1 50", "hwm cpu_ticks 1 0",
    "hwm cpu_ticks 1 101", "hwm cpu_ticks 1 1_0",
))
comment_lines = st.sampled_from(("#", "# a comment", "#node /a file 0", "##"))

# Whitespace str.split() skips inside a line, and characters that
# str.splitlines() breaks a line at; "\x0c" and "\x1c" are both.
SPACES = (" ", "  ", "\t", "\x1f", "\xa0")
BREAKS = ("\x0c", "\x1c", "\x0b", "\x85", "\u2028", "\r")


@st.composite
def respaced(draw, line: str) -> str:
    """line with its fields joined and surrounded by drawn whitespace; now
    and then a line break stands between two fields."""
    odd = draw(st.integers(0, 3)) == 0
    separators = st.sampled_from(SPACES + BREAKS) if odd else st.sampled_from(SPACES)
    fields = line.split(" ")
    out = draw(st.sampled_from(("", "", " ", "\t", " \t ")))
    for index, field in enumerate(fields):
        if index:
            out += draw(separators)
        out += field
    return out + draw(st.sampled_from(("", "", " ", "\t")))


raw_boot_texts = st.lists(
    st.one_of(node_lines, node_lines, mark_lines, ledger_lines, odd_node_lines,
              odd_node_lines, odd_mark_lines, malformed_lines, comment_lines, st.just(""))
    .flatmap(respaced),
    max_size=10,
).map(lambda lines: "".join(line + "\n" for line in lines))
