"""Every file-reading subcommand meets malformed JSON with exit 2.

Hypothesis feeds arbitrary JSON values, and copies of a valid fan or series
file with one field replaced or deleted, to the CLI.  Exit 1 means a
verification FAIL, so a bad file must give 0 or 2 and never a traceback:
main reports only MCSError as bad input, so any other exception fails here.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mcseries.cli import main

ROOT = Path(__file__).resolve().parent.parent
P2_FAN = json.loads((ROOT / "fans" / "p2.json").read_text())
SERIES = json.loads((ROOT / "tests" / "golden" / "series.json").read_text())

# small integers hit indices and sizes; wide ones, placed at exponents,
# powers, moduli or coefficients, reach the arithmetic; those at the
# 4,300-digit limit of Python's int-to-text conversion reach the printing
scalars = (st.none() | st.booleans() | st.integers(-3, 3)
           | st.integers(-10 ** 4, 10 ** 4)
           | st.sampled_from([10 ** 4300 - 1, 1 - 10 ** 4300])
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3))
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                              kids, max_size=3),
    max_leaves=8)


def _paths(node, prefix=()):
    """Path of every field and array entry below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def mutations(doc):
    """doc with one field replaced by a random JSON value, or deleted."""
    paths = list(_paths(doc))

    def apply(path, value, delete):
        out = json.loads(json.dumps(doc))
        node = out
        for key in path[:-1]:
            node = node[key]
        if delete and isinstance(node, dict):
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return out

    return st.builds(apply, st.sampled_from(paths), json_values, st.booleans())


def _run(argv, path, doc):
    """Exit code of argv with FILE standing for a file holding doc."""
    path.write_text(json.dumps(doc))
    argv = [str(path) if a == "FILE" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.mark.parametrize("argv", [
    ["toric", "--fan", "FILE", "--p", "1", "--truncate", "2"],
    ["verify", "macdonald", "--fan", "FILE", "--truncate", "2"],
], ids=["toric", "verify-macdonald"])
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(doc=json_values | mutations(P2_FAN))
def test_fan_files(argv, doc, scratch):
    assert _run(argv, scratch, doc) in (0, 2)


@pytest.mark.parametrize("argv", [
    ["expand", "--series", "FILE", "--truncate", "2"],
    ["specialize", "--series", "FILE", "--assign", "L=1"],
], ids=["expand", "specialize"])
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(doc=json_values | mutations(SERIES))
def test_series_files(argv, doc, scratch):
    assert _run(argv, scratch, doc) in (0, 2)
