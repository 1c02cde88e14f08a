"""Single-field mutants of the ``tests/data`` scenario files fail cleanly.

A mutant replaces one leaf of one file with one of ten substitutes and runs
``qchar run`` in-process.  The exit code stays in {0, 1, 2}, no exception
escapes, every exit-2 message points at a field with a ``$.`` path (through
the scenario index in multi-scenario files), and no mutant runs longer than
five seconds.
"""

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qchar.cli import main

DATA = Path(__file__).parent / "data"
SUBSTITUTES = ["x", 5.5, [], {}, None, True, -1, 0, 1e308, 10**6]


def _leaves(node, path=()):
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


DOCS = {p.name: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))}
SITES = [(name, path) for name, doc in DOCS.items() for path in _leaves(doc)]


def _mutant(name, path, value):
    doc = json.loads(json.dumps(DOCS[name]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(site=st.sampled_from(SITES), value=st.sampled_from(SUBSTITUTES))
def test_single_field_mutants_fail_cleanly(tmp_path_factory, site, value):
    name, path = site
    target = tmp_path_factory.getbasetemp() / "mutant.json"
    target.write_text(json.dumps(_mutant(name, path, value)))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main(["run", str(target)])
    assert time.perf_counter() - start <= 5.0
    assert code in (0, 1, 2)
    if code == 2:
        where = f"$.scenarios[{path[1]}]" if path[0] == "scenarios" and len(path) > 1 else "$."
        assert where in err.getvalue()
