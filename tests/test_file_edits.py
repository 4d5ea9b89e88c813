"""Random edits of one valid model, dataset and sweep config, run through
``swarmbc eval``, ``train`` and ``sweep`` in process.

Each run has one of two outcomes: exit 0 with rows whose method is the one
their tau and N define (``ensemble.method_of``), or exit 1 with exactly one
stderr line. A traceback, a warning or any other exit fails the test. The
edits drop keys and lines, swap JSON types, put in huge, negative, zero and
non-finite numbers, nest deeply, cut the file at a byte and put in a byte
that is not UTF-8. The examples are drawn the same way on every run.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from swarmbc.cli import EVAL_COLUMNS, EVAL_SCHEMA, main
from swarmbc.ensemble import METHODS, load_ensemble, method_of
from swarmbc.harness import read_results, read_table
from swarmbc.metrics import RunRecord

def _edits(max_examples):
    """The same examples on every run; no explain phase, which traces every
    line that a failing example runs."""
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples, phases=[Phase.generate, Phase.shrink])


DEEP = "[" * 100_000  # deeper than any recursion limit
# values any JSON value may become: other types, and numbers out of range
VALUES = [None, True, False, 0, -1, 2, 0.5, -0.0, "", "text", "bog,us\nx", [], {}, [1.0],
          {"a": 1}, math.nan, math.inf, -math.inf]
# huge numbers go only into the fields outside the float arrays: a huge
# weight or sample is not refused, and numpy warns of its overflow
HUGE = [10**400, -10**400, 1e308, -1e308, 2**63]
# the config's keys that size a sweep come first, and are never dropped or
# cut off: at their defaults a sweep runs for hours
SIZES = ("episode_counts = 1\nn_seeds = 1\neval_episodes = 1\nablations = false\n"
         "epochs = 2\nhidden_dims = 3\n")
CONFIG = "envs = point_reach\nmethods = bc, swarm\nn_members = 2\n"
# values a config line may take; none asks for a long sweep or a large array
CONFIG_VALUES = ["", "-1", "0", "-0.0", "1", "2", "0.5", "nan", "inf", "1e308", "x", "true",
                 "1, 1", ",", "bc, ensemble, swarm", "point_reach, cart_balance", "x" * 5000]


def _run(*argv):
    """``(exit code, stderr)`` of ``swarmbc argv``; a warning is an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _check(code, err):
    """Exit 1 with one stderr line, or exit 0 with none."""
    if code == 1:
        assert err.count("\n") == 1 and err.startswith("error:"), err[:3000]
    else:
        assert (code, err) == (0, ""), err[:3000]


def _obeys_the_method_rule(record):
    assert record.method == method_of(record.tau, record.n_members), record


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid point_reach dataset, as a list of its records, and a swarm
    model trained on it, as parsed JSON."""
    tmp = tmp_path_factory.mktemp("valid")
    assert _run("gen-data", "--env", "point_reach", "--episodes", 1, "--seed", 3,
                "--out", tmp / "d.jsonl") == (0, "")
    assert _run("train", "--data", tmp / "d.jsonl", "--method", "swarm", "--n", 2,
                "--epochs", 1, "--hidden-dims", 3, "--out", tmp / "m.json") == (0, "")
    data = [json.loads(line) for line in (tmp / "d.jsonl").read_text().splitlines()]
    return {"model": json.loads((tmp / "m.json").read_text()), "data": data}


def _paths(doc, path=()):
    """The path of every value inside ``doc``."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _byte_edit(draw, data: bytes, start: int = 0) -> bytes:
    """``data`` as it is, cut at a byte, or with a byte that is not UTF-8 put
    in, at or after ``start``."""
    kind = draw(st.sampled_from(["none"] * 6 + ["cut", "byte"]))
    at = draw(st.integers(start, len(data)))
    return {"none": data, "cut": data[:at], "byte": data[:at] + b"\xff" + data[at:]}[kind]


@st.composite
def edited(draw, doc, fields, render):
    """The bytes of ``render(doc)`` after one or two edits of its values,
    then maybe an edit of its bytes. Two edits in three go into one of the
    paths in ``fields``, and only those take a huge number."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 2))):
        field = draw(st.sampled_from([True, True, False]))
        *parents, key = draw(st.sampled_from(fields if field else list(_paths(doc))))
        try:
            parent = doc
            for k in parents:
                parent = parent[k]
            parent[key]
        except (KeyError, IndexError, TypeError):
            continue  # a field that the first edit removed
        kind = draw(st.sampled_from(["set"] * 4 + ["drop", "nest"]))
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = "\0deep" if kind == "nest" else draw(
                st.sampled_from(VALUES + HUGE if field else VALUES))
    return _byte_edit(draw, render(doc).replace('"\\u0000deep"', DEEP).encode())


@_edits(150)
@given(data=st.data())
def test_eval_of_an_edited_model_logs_its_method_or_exits_1_in_one_line(files, data):
    doc = files["model"]
    fields = [path for path in _paths(doc) if len(path) == 1 or path[0] == "meta"]
    model = data.draw(edited(doc, fields, json.dumps))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "m.json").write_bytes(model)
        log = Path(tmp) / "ev" / "eval_results.csv"
        code, err = _run("eval", "--model", Path(tmp) / "m.json", "--episodes", 1,
                         "--out", log.parent)
        _check(code, err)
        if code == 0:
            record, = read_table(log, EVAL_COLUMNS, RunRecord.parse, EVAL_SCHEMA)
            assert len(log.read_text().splitlines()) == 3  # preamble, header, one row
            _obeys_the_method_rule(record)


@_edits(100)
@given(data=st.data(), method=st.sampled_from(METHODS))
def test_train_on_an_edited_dataset_writes_a_model_of_its_method_or_exits_1_in_one_line(
        files, data, method):
    header = [path for path in _paths(files["data"]) if len(path) == 2 and path[0] == 0]
    dataset = data.draw(edited(files["data"], header,
                               lambda recs: "".join(json.dumps(r) + "\n" for r in recs)))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "d.jsonl").write_bytes(dataset)
        model = Path(tmp) / "m.json"
        code, err = _run("train", "--data", Path(tmp) / "d.jsonl", "--method", method,
                         "--n", 1 if method == "bc" else 2, "--epochs", 1,
                         "--hidden-dims", 3, "--out", model)
        _check(code, err)
        if code == 0:
            ens = load_ensemble(model)  # as eval loads it
            assert method_of(ens.tau, ens.n_members) == ens.meta["method"] == method


@st.composite
def edited_config(draw):
    """``SIZES`` + ``CONFIG`` with one or two lines set to another value,
    written without their ``=``, dropped or added, then maybe an edit of
    the bytes after ``SIZES``. A size is only ever set, and is the line
    edited one time in eight."""
    sizes, lines = (dict(line.split(" = ") for line in text.splitlines())
                    for text in (SIZES, CONFIG))
    others = [*lines, "tau", "tau_grid", "n_grid", "master_seed", "learning_rate", "seeds"]
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(others * 7 + [*sizes]))
        kind = draw(st.sampled_from(["set"] * 4 + ["drop", "no_equals_sign"]))
        value = draw(st.sampled_from(CONFIG_VALUES))
        if key in sizes:
            sizes[key] = value
        elif kind == "drop":
            lines.pop(key, None)
        else:
            lines[key] = value if kind == "set" else "\0" + value
    head = "".join(f"{k} = {v}\n" for k, v in sizes.items()).encode()
    tail = "".join(f"{k}{v[1:]}\n" if v.startswith("\0") else f"{k} = {v}\n"
                   for k, v in lines.items()).encode()
    return _byte_edit(draw, head + tail, start=len(head))


@_edits(60)
@given(config=edited_config())
def test_a_sweep_of_an_edited_config_writes_rows_of_their_method_or_exits_1_in_one_line(
        config):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "s.cfg").write_bytes(config)
        out = Path(tmp) / "out"
        code, err = _run("sweep", "--config", Path(tmp) / "s.cfg", "--out", out,
                         "--workers", 1)
        _check(code, err)
        if (out / "results.csv").exists():
            for record in read_results(out / "results.csv"):
                _obeys_the_method_rule(record)
