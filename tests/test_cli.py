"""Instance/solution files and the three subcommands."""
import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from robust_makespan import (
    Instance,
    Scenario,
    Schedule,
    UncertaintyModel,
    candidate_scenario,
    evaluate,
    extreme_scenarios,
    normalize_u1,
    regret_of,
    solve_robust_absolute,
    solve_robust_regret,
    worst_case_scenario_absolute,
)
from robust_makespan.core import MAX_TIME
from robust_makespan import cli, regret
from robust_makespan.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_OK,
    EXIT_USAGE,
    dump_instance,
    load_instance,
    main,
)

from conftest import make_instance, refuse_threads

TWO_JOB = {
    "version": 1,
    "uncertainty": {"kind": "U2", "gamma": 1},
    "jobs": [
        {"id": 1, "p": 2, "r_lo": 0, "r_hi": 4},
        {"id": 2, "p": 3, "r_lo": 0, "r_hi": 0},
    ],
}


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def reference_dump(instance):
    """The per-row f-string writer that `dump_instance` replaced: the reference for its bytes."""
    kind, gamma = instance.uncertainty.kind, instance.uncertainty.gamma
    p, r_lo, r_hi = (c.tolist() for c in instance.columns)
    lines = [
        "{",
        '  "version": 1,',
        f'  "uncertainty": {{"kind": "{kind}", "gamma": {gamma}}},',
        '  "jobs": [',
    ]
    last = len(p) - 1
    for i in range(len(p)):
        comma = "," if i != last else ""
        lines.append(
            f'    {{"id": {i + 1}, "p": {p[i]}, "r_lo": {r_lo[i]}, "r_hi": {r_hi[i]}}}{comma}'
        )
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_reader_outcome(monkeypatch, path):
    """load_instance's instance, or its CliError message, with the JSON reader alone."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_generated_columns", lambda raw: None)
        return load_outcome(path)


def load_outcome(path):
    try:
        return load_instance(path)
    except cli.CliError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# parsing


def test_round_trip(tmp_path):
    inst = make_instance([(2, 0, 4), (3, 1, 5), (1, 2, 2)], kind="U1", gamma=3)
    path = tmp_path / "x.json"
    path.write_text(dump_instance(inst))
    assert load_instance(path) == inst
    assert dump_instance(load_instance(path)) == path.read_text()


def test_parse_accepts_unordered_ids(tmp_path):
    doc = dict(TWO_JOB)
    doc["jobs"] = list(reversed(TWO_JOB["jobs"]))
    inst = load_instance(write(tmp_path, doc))
    assert [j.id for j in inst.jobs] == [1, 2]


def test_parse_error_names_offending_job(tmp_path):
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][1]["p"] = 0
    with pytest.raises(cli.CliError, match="job 2"):
        load_instance(write(tmp_path, doc))
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][1]["id"] = 1
    with pytest.raises(cli.CliError, match="duplicate job id 1"):
        load_instance(write(tmp_path, doc))
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][0]["r_lo"] = 9
    with pytest.raises(cli.CliError, match="job 1"):
        load_instance(write(tmp_path, doc))


def test_parse_error_reports_json_position(tmp_path):
    with pytest.raises(cli.CliError, match=r":\d+:\d+: invalid JSON"):
        load_instance(write(tmp_path, '{"version": 1,,}'))


def test_parse_rejects_empty_jobs(tmp_path):
    doc = dict(TWO_JOB)
    doc["jobs"] = []
    with pytest.raises(cli.CliError, match="non-empty"):
        load_instance(write(tmp_path, doc))


def test_parse_rejects_non_integer_fields(tmp_path):
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][0]["p"] = 2.5
    with pytest.raises(cli.CliError, match="integer"):
        load_instance(write(tmp_path, doc))


def test_parse_rejects_bool_fields(tmp_path):
    for field in ("id", "p", "r_lo", "r_hi"):
        doc = json.loads(json.dumps(TWO_JOB))
        doc["jobs"][1][field] = True
        with pytest.raises(cli.CliError, match=rf"jobs\[1\]: field '{field}' must be an integer"):
            load_instance(write(tmp_path, doc))


def test_parse_missing_field_names_its_job(tmp_path):
    doc = json.loads(json.dumps(TWO_JOB))
    del doc["jobs"][1]["r_hi"]
    with pytest.raises(cli.CliError, match=r"jobs\[1\]: missing field 'r_hi'"):
        load_instance(write(tmp_path, doc))
    doc["jobs"][1] = [2, 3, 0, 0]
    with pytest.raises(cli.CliError, match=r"jobs\[1\]: must be an object"):
        load_instance(write(tmp_path, doc))


def test_parse_id_gap_names_position(tmp_path):
    doc = json.loads(json.dumps(TWO_JOB))
    doc["jobs"][1]["id"] = 3
    with pytest.raises(cli.CliError, match="position 2 holds id 3"):
        load_instance(write(tmp_path, doc))


def test_parse_out_of_range_integers_are_cli_errors(tmp_path, capsys):
    for field, value in (("p", 2**70), ("r_hi", 2**64), ("id", 2**63)):
        doc = json.loads(json.dumps(TWO_JOB))
        doc["jobs"][0][field] = value
        path = write(tmp_path, doc)
        with pytest.raises(cli.CliError):
            load_instance(path)
        assert main(["solve", "--criterion", "absolute", "--input", path]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_parse_checks_worst_case_bound_in_python_integers(tmp_path):
    # 4 * 2**62 wraps to 0 as an int64 sum
    doc = {"version": 1, "uncertainty": {"kind": "U2", "gamma": 1},
           "jobs": [{"id": i, "p": 2**62, "r_lo": 0, "r_hi": 0} for i in range(1, 5)]}
    with pytest.raises(cli.CliError, match="64-bit"):
        load_instance(write(tmp_path, doc))
    # exactly at the limit is accepted, one past it is not
    doc["jobs"] = [{"id": 1, "p": 2**62, "r_lo": 0, "r_hi": 1},
                   {"id": 2, "p": 2**62 - 2, "r_lo": 0, "r_hi": 0}]
    assert load_instance(write(tmp_path, doc)).n == 2
    doc["jobs"][0]["r_hi"] = 2
    with pytest.raises(cli.CliError, match="64-bit"):
        load_instance(write(tmp_path, doc))


def test_release_near_int64_limit_round_trips_and_solves(tmp_path):
    inst = make_instance([(1, 0, MAX_TIME - 2), (1, 5, 5)], kind="U1", gamma=2**63)
    path = tmp_path / "edge.json"
    path.write_text(dump_instance(inst))
    loaded = load_instance(path)
    assert loaded == inst
    assert loaded.columns[2].tolist() == [MAX_TIME - 2, 5]
    assert dump_instance(loaded) == path.read_text()
    out = tmp_path / "sol.json"
    assert main(["solve", "--criterion", "absolute", "--input", str(path),
                 "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["objective"] == MAX_TIME - 1
    assert main(["solve", "--criterion", "regret", "--input", str(path),
                 "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["objective"] == solve_robust_regret(inst).regret


@st.composite
def instances(draw):
    """Instances of 1 to 40 jobs, with values from 0 up to the worst-case completion bound."""
    n = draw(st.integers(1, 40))
    p_max = draw(st.sampled_from([1, 100, 10**4, 2**40, MAX_TIME // 64]))
    p = draw(st.lists(st.integers(1, p_max), min_size=n, max_size=n))
    limit = MAX_TIME - sum(p)  # the largest r_hi the bound allows
    r_hi = draw(st.lists(st.integers(0, limit), min_size=n, max_size=n))
    if draw(st.booleans()):
        r_hi[draw(st.integers(0, n - 1))] = limit
    r_lo = [draw(st.integers(0, hi)) for hi in r_hi]
    kind = draw(st.sampled_from(["U1", "U2"]))
    gamma = draw(st.one_of(st.integers(1, 10**4), st.integers(2**63, 2**70), st.just(MAX_TIME)))
    return Instance.from_arrays(p, r_lo, r_hi, UncertaintyModel(kind, gamma))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_dump_then_load_returns_the_instance(tmp_path_factory, instance):
    path = tmp_path_factory.mktemp("round-trip") / "inst.json"
    text = dump_instance(instance)
    assert text == reference_dump(instance)
    path.write_text(text)
    assert load_instance(path) == instance
    # the fast reader takes every file it writes whose gamma has at most 19 digits
    fast = cli._generated_columns(path.read_bytes())
    assert (fast is not None) == (instance.uncertainty.gamma < 10**19)


def test_dump_writes_zero_values(tmp_path):
    inst = make_instance([(1, 0, 0), (10**4, 0, 10**4), (9999, 10**8, MAX_TIME - 2 * 10**4)],
                         kind="U1", gamma=0)
    path = tmp_path / "zero.json"
    path.write_text(dump_instance(inst))
    assert path.read_text() == reference_dump(inst)
    assert load_instance(path) == inst


# most keep the file's length, so only the byte comparison tells them from the layout
MUTATIONS = {
    "changed digit": lambda t: t.replace('"r_hi": 400', '"r_hi": 401'),
    "added space": lambda t: t.replace('"p": 3', '"p":  3'),
    "space for newline": lambda t: t.replace(',\n    {"id": 2', ', \n   {"id": 2'),
    "swapped keys": lambda t: t.replace('{"id": 2, "p": 3', '{"p": 3, "id": 2'),
    "renamed key": lambda t: t.replace('"p": 3', '"q": 3'),
    "negative": lambda t: t.replace('"r_hi": 400', '"r_hi": -40'),
    "leading zero": lambda t: t.replace('"r_hi": 400', '"r_hi": 040'),
    "float": lambda t: t.replace('"r_hi": 400', '"r_hi": 4e2'),
    "bool": lambda t: t.replace('"p": 1234', '"p": true'),
    "20 digits": lambda t: t.replace('"r_hi": 400', '"r_hi": 12345678901234567890'),
    "CRLF": lambda t: t.replace("\n", "\r\n"),
    "no final newline": lambda t: t[:-1],
    "extra job field": lambda t: t.replace('"r_hi": 5}', '"r_hi": 5, "w": 1}'),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_files_load_as_the_json_reader_reads_them(tmp_path, monkeypatch, mutation):
    inst = make_instance([(2, 5, 400), (3, 5, 5), (1234, 0, 9)], kind="U1", gamma=7)
    text = MUTATIONS[mutation](dump_instance(inst))
    assert text != dump_instance(inst)
    path = tmp_path / "inst.json"
    path.write_bytes(text.encode())
    fast = cli._generated_columns(path.read_bytes())
    assert (fast is not None) == (mutation == "changed digit")
    assert load_outcome(path) == json_reader_outcome(monkeypatch, path)


@pytest.mark.parametrize("n", [1, 3000])
def test_generated_files_load_without_a_json_parse(tmp_path, monkeypatch, n):
    path = tmp_path / "gen.json"
    assert main(["generate", "--n", str(n), "--seed", "2", "--model", "U1", "--gamma", "30",
                 "--r-range", "0", str(2 * n), "--output", str(path)]) == EXIT_OK
    want = json_reader_outcome(monkeypatch, path)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called on a file generate wrote")

    monkeypatch.setattr(json, "loads", refuse)
    assert load_instance(path) == want
    assert path.read_text() == reference_dump(want)


def rendered_columns(raw):
    """(kind, gamma, [p, r_lo, r_hi]) when raw is exactly what `_instance_chunks` writes for
    the values its JSON holds, with kind U1 or U2 and a gamma of at most 19 digits; else None."""
    try:
        doc = json.loads(raw)
        kind, gamma = doc["uncertainty"]["kind"], doc["uncertainty"]["gamma"]
        columns = [np.array([job[key] for job in doc["jobs"]], np.int64)
                   for key in ("p", "r_lo", "r_hi")]
        text = b"".join(cli._instance_chunks(kind, gamma, *columns))
        exact = text == raw and kind in ("U1", "U2") and 0 <= gamma < 10**19
    except (ValueError, TypeError, KeyError, IndexError, OverflowError):
        return None
    return (kind, gamma, columns) if exact else None


def assert_reads_as_rendered(path):
    """The fast reader takes the file exactly when it is a rendering of its own values, with
    those values, and load_instance gives what the JSON reader alone gives."""
    raw = path.read_bytes()
    fast, want = cli._generated_columns(raw), rendered_columns(raw)
    assert (fast is None) == (want is None)
    if fast is not None:
        assert fast[:2] == want[:2]
        assert all(np.array_equal(a, b) for a, b in zip(fast[2], want[2]))
    assert load_outcome(path) == json_reader_outcome(pytest.MonkeyPatch(), path)
    return fast


EDIT_BYTES = b'0123456789:,}" \n\x00\xff'


@st.composite
def edited_dumps(draw):
    """A dumped instance with 1 to 3 bytes replaced, inserted or deleted."""
    raw = bytearray(dump_instance(draw(instances())).encode())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(raw) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.sampled_from(EDIT_BYTES))
        if edit == "replace":
            raw[at] = byte
        elif edit == "insert":
            raw.insert(at, byte)
        else:
            del raw[at]
    return bytes(raw)


@settings(max_examples=400, deadline=None)
@given(edited_dumps(), st.sampled_from([4, 8, 2**14]))
def test_edited_files_are_read_fast_only_when_rendered_exactly(tmp_path_factory, raw, rows):
    path = tmp_path_factory.mktemp("edited") / "inst.json"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_ROWS", rows)  # chunks of 1, 2 or 4096 rows
        assert_reads_as_rendered(path)


@pytest.mark.parametrize("digits", [7, 8, 9, 16, 17, 19])
def test_numbers_of_every_window_count_read_exactly(tmp_path, digits):
    low, high = 10 ** (digits - 1), min(10**digits - 1, MAX_TIME)
    values = [low, high, (low + high) // 3, low + 7]
    text = b"".join(cli._instance_chunks("U2", 1, *[np.array(values)] * 3)).decode()
    path = tmp_path / "inst.json"
    path.write_text(text)
    fast = assert_reads_as_rendered(path)
    assert [c.tolist() for c in fast[2]] == [values] * 3
    for old, new in ((f'"r_lo": {low}', f'"r_lo": 0{str(low)[1:]}'),  # a leading zero
                     (f'"r_lo": {low}', f'"r_lo": }}{str(low)[1:]}'),  # a first byte that is no digit
                     (f'"r_lo": {low}', f'"r_lo": {str(low)[:-1]}:'),
                     (f'"p": {high}', f'"p": {high},')):
        path.write_text(text.replace(old, new, 1))
        assert assert_reads_as_rendered(path) is None


def test_values_at_and_past_the_64_bit_limit(tmp_path):
    path = tmp_path / "inst.json"
    text = dump_instance(make_instance([(1, 0, 0), (1, 0, 2**62)], kind="U1", gamma=2))
    path.write_text(text.replace(str(2**62), str(MAX_TIME)))
    fast = assert_reads_as_rendered(path)
    assert fast[2][2].tolist() == [0, MAX_TIME]
    assert "64-bit" in load_outcome(path)  # sum(p) + max(r_hi) passes the limit
    path.write_text(text.replace(str(2**62), str(MAX_TIME + 1)))
    assert assert_reads_as_rendered(path) is None
    assert "64-bit" in load_outcome(path)


def test_colons_near_the_end_of_the_file_are_refused(tmp_path):
    text = dump_instance(make_instance([(2, 5, 400), (3, 5, 5)], kind="U1", gamma=7))
    path = tmp_path / "inst.json"
    for k in range(1, 11):  # from the space before the last number to the end
        raw = bytearray(text.encode())
        raw[-k] = ord(":")
        # and with one row colon fewer, so that the count stays a multiple of four
        for edited in (raw, raw.replace(b'"p":', b'"p" ', 1)):
            path.write_bytes(bytes(edited))
            assert assert_reads_as_rendered(path) is None


@pytest.mark.parametrize("extra", [0, 1])
def test_files_across_the_chunk_seams(tmp_path, extra):
    n = cli._ROWS + extra
    path = tmp_path / "gen.json"
    assert main(["generate", "--n", str(n), "--seed", "5", "--model", "U1", "--gamma", "30",
                 "--r-range", "0", str(2 * n), "--output", str(path)]) == EXIT_OK
    text = path.read_text()
    assert assert_reads_as_rendered(path) is not None
    first = cli._ROWS // 4 + 1  # the id of the first row of the second chunk
    seam = text.index(f'{{"id": {first},')
    for edited, taken in ((text[:seam] + text[seam:].replace('"p": ', '"p": 9', 1), True),
                          (text[:seam] + text[seam:].replace(str(first), str(first + 1), 1), False),
                          (text[:seam] + text[seam:].replace('"p": ', '"p":  ', 1), False),
                          (text[:-12] + text[-12:].replace("}", "]", 1), False)):
        path.write_text(edited)
        assert (assert_reads_as_rendered(path) is not None) == taken


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("count", [1, 2])
def test_files_across_the_reader_chunk_seams(tmp_path, cpus, extra, count):
    # the reader checks _ROWS // 2 rows at a time: two chunks, or three that split in halves
    cpus(count)
    n = cli._ROWS + extra
    path = tmp_path / "gen.json"
    assert main(["generate", "--n", str(n), "--seed", "6", "--model", "U2", "--gamma", "9",
                 "--r-range", "0", str(2 * n), "--output", str(path)]) == EXIT_OK
    text = path.read_text()
    assert assert_reads_as_rendered(path) is not None
    first = cli._ROWS // 2 + 1  # the id of the first row of the second chunk
    seam = text.index(f'{{"id": {first},')
    for edited, taken in ((text[:seam] + text[seam:].replace('"r_lo": ', '"r_lo": 7', 1), True),
                          (text[:seam] + text[seam:].replace(str(first), str(first - 1), 1), False),
                          (text[:seam - 7] + text[seam - 7:].replace("},", "} ", 1), False),
                          (text[:seam] + text[seam:].replace('"r_hi": ', '"r_hi": 0', 1), False)):
        path.write_text(edited)
        assert (assert_reads_as_rendered(path) is not None) == taken


def count_thread_starts(monkeypatch) -> list:
    """Route threading.Thread.start through a spy; the returned list grows by one per start."""
    starts, real = [], threading.Thread.start

    def start(self):
        starts.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return starts


def fast_outcome(raw):
    """The fast reader's (kind, gamma, columns as lists), or None."""
    fast = cli._generated_columns(raw)
    return fast and (*fast[:2], [column.tolist() for column in fast[2]])


# edits of one row, and the threads the fast reader then starts: the ":" search always
# splits, the conversion only when the row count passes it
SPLIT_EDITS = {
    "digit added": (lambda row: row.replace('"p": ', '"p": 9', 1), 2),
    "space added": (lambda row: row.replace('"p": ', '"p":  ', 1), 2),
    "leading zero": (lambda row: row.replace('"r_lo": ', '"r_lo": 0', 1), 2),
    "id raised": (lambda row: row.replace(', "p"', '0, "p"', 1), 2),
    "id key renamed": (lambda row: row.replace('"id"', '"ib"', 1), 2),
    "colon dropped": (lambda row: row.replace('"r_hi": ', '"r_hi" ', 1), 1),
}


@pytest.mark.parametrize("row", [3, 21, 36])  # first half, first row of the second, second
@pytest.mark.parametrize("edit", SPLIT_EDITS)
def test_split_reader_halves_read_as_one_pass(tmp_path, monkeypatch, cpus, row, edit):
    monkeypatch.setattr(cli, "_ROWS", 8)  # search blocks of 512 bytes, chunks of 4 rows
    path = tmp_path / "gen.json"
    assert main(["generate", "--n", "40", "--seed", "3", "--model", "U1", "--gamma", "30",
                 "--r-range", "0", "80", "--output", str(path)]) == EXIT_OK
    text = path.read_text()
    at = text.index(f'{{"id": {row},')  # rows 1-20 in the first half of 10 chunks
    change, started = SPLIT_EDITS[edit]
    path.write_text(text[:at] + change(text[at:]))
    raw = path.read_bytes()
    threads = threading.active_count()
    cpus(2)
    with monkeypatch.context() as patch:
        starts = count_thread_starts(patch)
        halves = fast_outcome(raw)
        assert len(starts) == started
    assert (halves is not None) == (edit == "digit added")
    assert_reads_as_rendered(path)
    assert threading.active_count() == threads
    with monkeypatch.context() as patch:
        refused = refuse_threads(patch)
        assert fast_outcome(raw) == halves and len(refused) == started
    cpus(1)
    assert fast_outcome(raw) == halves
    assert threading.active_count() == threads


def test_split_reader_stops_the_other_half_after_a_refusal(tmp_path, monkeypatch, cpus):
    # a leading zero in row 1 refuses the worker's first chunk; the caller's first conversion
    # waits until the worker has refused, so without the shared flag it would go on to convert
    # all five of its chunks
    monkeypatch.setattr(cli, "_ROWS", 8)  # chunks of 4 rows: halves of 5 chunks each
    path = tmp_path / "gen.json"
    assert main(["generate", "--n", "40", "--seed", "3", "--model", "U1", "--gamma", "30",
                 "--r-range", "0", "80", "--output", str(path)]) == EXIT_OK
    text = path.read_text()
    path.write_text(text.replace('"r_lo": ', '"r_lo": 0', 1))
    cpus(2)
    caller, real = threading.get_ident(), cli._read_digits
    calls, workers, worker_called = [], [], threading.Event()

    def spy(words, end, width):  # every number here has at most 8 digits: one call a chunk
        calls.append(threading.get_ident())
        if calls[-1] != caller:
            workers.append(threading.current_thread())
            worker_called.set()
        elif calls.count(caller) == 1:
            assert worker_called.wait(10)
            workers[0].join(10)
            assert not workers[0].is_alive()
        return real(words, end, width)

    monkeypatch.setattr(cli, "_read_digits", spy)
    threads = threading.active_count()
    assert cli._generated_columns(path.read_bytes()) is None
    assert len(workers) == 1 and calls.count(caller) <= 1
    assert threading.active_count() == threads
    message = load_outcome(path)
    assert "invalid JSON" in message and message == json_reader_outcome(monkeypatch, path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # cpus(2) in each
@given(edited_dumps(), st.sampled_from([4, 8]))
def test_edited_files_are_read_fast_only_when_rendered_exactly_in_halves(tmp_path_factory, cpus,
                                                                        raw, rows):
    cpus(2)
    path = tmp_path_factory.mktemp("edited") / "inst.json"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_ROWS", rows)  # chunks of 2 or 4 rows: halves from 5 or 9 rows on
        assert_reads_as_rendered(path)


def list_payload(payload):
    """The payload with every array as a list, as json.dumps takes it."""
    return {key: list_payload(value) if isinstance(value, dict)
            else value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in payload.items()}


EDGE = [(1, 0, MAX_TIME - 2), (1, 5, 5)]


@pytest.mark.parametrize("jobs", [3000, 1, EDGE], ids=["n=3000", "n=1", "max-time"])
@pytest.mark.parametrize("criterion", ["regret", "absolute"])
def test_solution_bytes_equal_json_dumps(tmp_path, jobs, criterion):
    if jobs == 3000:
        path = tmp_path / "gen.json"
        assert main(["generate", "--n", "3000", "--seed", "4", "--model", "U1", "--gamma", "30",
                     "--r-range", "0", "6000", "--output", str(path)]) == EXIT_OK
    else:
        jobs = [(7, 3, 9)] if jobs == 1 else jobs
        path = tmp_path / "inst.json"
        path.write_text(dump_instance(make_instance(jobs, kind="U1", gamma=2**63)))
    payload = cli.solve_to_payload(criterion, load_instance(path))
    want = json.dumps(list_payload(payload)) + "\n"
    assert cli._solution_text(payload) == want
    out = tmp_path / "sol.json"
    assert main(["solve", "--criterion", criterion, "--input", str(path),
                 "--output", str(out)]) == EXIT_OK
    assert out.read_text() == want


def test_rendered_lists_equal_json_dumps_at_digit_group_edges():
    values = [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 10**4 + 1, 99_999_999, 10**8,
              10**8 + 7, 10**12, 10**16 - 1, 10**16, 10**18 - 1, 10**18, MAX_TIME]
    for column in (np.array(values), np.array(values[:9]), np.array([0])):
        text = b"[" + b"".join(cli._render_rows(b", ", (b"", b""), (column,))) + b"]"
        assert text == json.dumps(column.tolist()).encode()
    assert list(cli._render_rows(b", ", (b"", b""), (np.array([], np.int64),))) == []
    with pytest.raises(ValueError, match="non-negative"):
        list(cli._render_rows(b", ", (b"", b""), (np.array([3, -1]),)))


def test_rendered_rows_span_several_chunks(monkeypatch):
    monkeypatch.setattr(cli, "_ROWS", 5)
    rng = np.random.default_rng(3)
    columns = (rng.integers(0, 10**6, 23), rng.integers(0, MAX_TIME, 23, endpoint=True))
    text = b"".join(cli._render_rows(b";\n", (b"<", b"|", b">"), columns))
    want = ";\n".join(f"<{a}|{b}>" for a, b in zip(*(c.tolist() for c in columns)))
    assert text == want.encode()


# ---------------------------------------------------------------------------
# solve


def test_solve_regret_two_job(tmp_path):
    inst = write(tmp_path, TWO_JOB)
    out = str(tmp_path / "sol.json")
    assert main(["solve", "--criterion", "regret", "--input", inst, "--output", out]) == EXIT_OK
    sol = json.loads(open(out).read())
    assert sol["criterion"] == "regret"
    assert sol["permutation"] == [2, 1]
    assert sol["objective"] == 0
    assert sol["per_candidate"] == [0, 0]


def test_solve_absolute_two_job(tmp_path):
    inst = write(tmp_path, TWO_JOB)
    out = str(tmp_path / "sol.json")
    assert main(["solve", "--criterion", "absolute", "--input", inst, "--output", out]) == EXIT_OK
    sol = json.loads(open(out).read())
    assert sol["permutation"] == [2, 1]
    assert sol["objective"] == 6


def test_solution_reevaluates_to_objective(tmp_path):
    doc = {
        "version": 1,
        "uncertainty": {"kind": "U1", "gamma": 7},
        "jobs": [
            {"id": 1, "p": 4, "r_lo": 2, "r_hi": 30},
            {"id": 2, "p": 1, "r_lo": 0, "r_hi": 3},
            {"id": 3, "p": 6, "r_lo": 5, "r_hi": 5},
            {"id": 4, "p": 2, "r_lo": 1, "r_hi": 9},
        ],
    }
    path = write(tmp_path, doc)
    instance = normalize_u1(load_instance(path))
    for criterion in ("absolute", "regret"):
        out = str(tmp_path / f"{criterion}.json")
        assert main(["solve", "--criterion", criterion, "--input", path, "--output", out]) == EXIT_OK
        sol = json.loads(open(out).read())
        sched = Schedule(tuple(sol["permutation"]))
        scenario = Scenario(tuple(sol["worst_case_scenario"]["releases"]))
        if criterion == "absolute":
            assert evaluate(sched, scenario, instance).makespan == sol["objective"]
        else:
            assert regret_of(sched, scenario, instance) == sol["objective"]


def test_solution_files_match_library_payload(tmp_path):
    # above the small-n cutoff, with U1 intervals that trimming shortens
    path = str(tmp_path / "big.json")
    assert main(["generate", "--n", "3000", "--seed", "4", "--model", "U1", "--gamma", "30",
                 "--r-range", "0", "6000", "--width-range", "0", "80", "--output", path]) == EXIT_OK
    inst = load_instance(path)
    trimmed = normalize_u1(inst)
    assert trimmed != inst
    report = solve_robust_regret(inst)
    sched, cost = solve_robust_absolute(inst)
    _, upper = extreme_scenarios(trimmed)
    crit = evaluate(sched, upper, trimmed).critical_position
    expected = {
        "regret": {
            "criterion": "regret",
            "permutation": list(report.schedule.perm),
            "objective": report.regret,
            "worst_case_scenario": {
                "releases": list(candidate_scenario(trimmed, report.worst_job).releases),
                "candidate_job": report.worst_job,
            },
            "per_candidate": list(report.per_candidate),
        },
        "absolute": {
            "criterion": "absolute",
            "permutation": list(sched.perm),
            "objective": cost,
            "worst_case_scenario": {
                "releases": list(worst_case_scenario_absolute(sched, inst).releases),
                "candidate_job": sched.perm[crit - 1],
            },
        },
    }
    for criterion, want in expected.items():
        out = tmp_path / f"{criterion}.json"
        assert main(["solve", "--criterion", criterion, "--input", path,
                     "--output", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")  # one line
        assert json.loads(text) == want


def test_payload_self_check_rejects_wrong_objective(monkeypatch):
    inst = make_instance([(2, 0, 4), (3, 0, 0)])
    solve_absolute, solve_regret = cli.solve_robust_absolute, cli.solve_robust_regret

    def off_by_one_absolute(instance):
        schedule, cost = solve_absolute(instance)
        return schedule, cost + 1

    def off_by_one_regret(instance):
        report = solve_regret(instance)
        return dataclasses.replace(report, regret=report.regret + 1)

    monkeypatch.setattr(cli, "solve_robust_absolute", off_by_one_absolute)
    monkeypatch.setattr(cli, "solve_robust_regret", off_by_one_regret)
    for criterion in ("absolute", "regret"):
        with pytest.raises(AssertionError, match="self-check"):
            cli.solve_to_payload(criterion, inst)


def test_solve_parse_failure_exits_one(tmp_path, capsys):
    path = write(tmp_path, '{"version": 1')
    assert main(["solve", "--criterion", "regret", "--input", path]) == EXIT_USAGE
    assert "invalid JSON" in capsys.readouterr().err


def test_solve_missing_file_exits_one(tmp_path):
    assert main(["solve", "--criterion", "regret", "--input", str(tmp_path / "no.json")]) == EXIT_USAGE


def test_usage_error_exits_one(capsys):
    assert main(["solve", "--criterion", "nope", "--input", "x"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


READERS = (["solve", "--criterion", "regret"], ["verify", "--trials", "0"])


@pytest.mark.parametrize("command", READERS)
def test_undecodable_input_exits_one(tmp_path, capsys, command):
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"version": 1, "jobs": "\xff"}')
    assert main([*command, "--input", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}:") and "Traceback" not in err


@pytest.mark.parametrize("command", READERS)
def test_deeply_nested_input_exits_one(tmp_path, capsys, command):
    path = write(tmp_path, "[" * 100_000 + "]" * 100_000)
    assert main([*command, "--input", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: invalid JSON") and "Traceback" not in err


def test_solve_output_to_missing_directory_exits_one(tmp_path, capsys):
    path = write(tmp_path, TWO_JOB)
    out = tmp_path / "missing" / "sol.json"
    assert main(["solve", "--criterion", "regret", "--input", path,
                 "--output", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# generate


def test_generate_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["generate", "--n", "40", "--seed", "11", "--gamma", "2"]
    assert main(args + ["--output", a]) == EXIT_OK
    assert main(args + ["--output", b]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()
    inst = load_instance(a)
    assert inst.n == 40


def test_generate_zero_width_gives_degenerate_intervals(tmp_path):
    path = str(tmp_path / "d.json")
    assert (
        main(
            ["generate", "--n", "12", "--seed", "0", "--gamma", "1",
             "--width-range", "0", "0", "--output", path]
        )
        == EXIT_OK
    )
    inst = load_instance(path)
    assert all(job.r_lo == job.r_hi for job in inst.jobs)


def test_generate_large_file_round_trips(tmp_path):
    # the line-per-job writer must stay parseable and exact at bulk sizes
    path = str(tmp_path / "big.json")
    args = ["generate", "--n", "100000", "--seed", "3", "--gamma", "100",
            "--r-range", "0", "200000", "--width-range", "0", "100", "--output", path]
    assert main(args) == EXIT_OK
    inst = load_instance(path)
    assert inst.n == 100000
    assert open(path).read() == dump_instance(inst)


def test_generate_rejects_bad_ranges(tmp_path, capsys):
    path = str(tmp_path / "x.json")
    assert main(["generate", "--n", "5", "--gamma", "1", "--p-range", "0", "4",
                 "--output", path]) == EXIT_USAGE
    assert main(["generate", "--n", "5", "--gamma", "1", "--width-range", "4", "1",
                 "--output", path]) == EXIT_USAGE
    assert main(["generate", "--n", "0", "--gamma", "1", "--output", path]) == EXIT_USAGE
    assert main(["generate", "--n", "5", "--gamma", "1", "--seed", "-1",
                 "--output", path]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err.splitlines()[-1]


def test_generate_output_to_missing_directory_exits_one(tmp_path, capsys):
    out = tmp_path / "missing" / "inst.json"
    assert main(["generate", "--n", "5", "--gamma", "1", "--output", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}:") and "Traceback" not in err


def test_generate_refuses_ranges_past_int64(tmp_path, capsys):
    path = tmp_path / "x.json"
    cases = [
        # r_lo + width = 2**63 used to wrap to r_hi = -2**63 and exit 0
        (["--r-range", str(2**62), str(2**62), "--width-range", str(2**62), str(2**62)],
         "--r-range and --width-range"),
        # an upper end of 2**63 used to crash in numpy
        (["--r-range", "0", str(2**63)], "--r-range"),
        (["--p-range", "1", str(2**63)], "--p-range"),
        (["--width-range", "0", str(2**64)], "--width-range"),
        # every range fits, but the worst-case completion does not
        (["--p-range", str(2**62), str(2**62)], "--p-range"),
    ]
    for extra, option in cases:
        argv = ["generate", "--n", "3", "--gamma", "1", "--output", str(path)] + extra
        assert main(argv) == EXIT_USAGE, extra
        assert option in capsys.readouterr().err, extra
        assert not path.exists()
    # the widest ranges that fit still generate a loadable instance
    edge = ["generate", "--n", "1", "--gamma", "1", "--p-range", "1", "1",
            "--r-range", str(2**62), str(2**62), "--width-range", str(2**62 - 2),
            str(2**62 - 2), "--output", str(path)]
    assert main(edge) == EXIT_OK
    assert load_instance(path).columns[2].tolist() == [MAX_TIME - 1]


# ---------------------------------------------------------------------------
# verify


def test_verify_degenerate_instance_passes(tmp_path, capsys):
    doc = {
        "version": 1,
        "uncertainty": {"kind": "U2", "gamma": 1},
        "jobs": [
            {"id": 1, "p": 2, "r_lo": 3, "r_hi": 3},
            {"id": 2, "p": 1, "r_lo": 0, "r_hi": 0},
        ],
    }
    path = write(tmp_path, doc)
    assert main(["verify", "--input", path, "--trials", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok regret-solver-optimality" in out


def test_verify_input_runs_the_naive_reference_in_halves(tmp_path, capsys, cpus, monkeypatch):
    # 4,096 jobs, split from 2,048 on, and two CPUs allowed: the reference's candidates run in
    # two halves on two threads
    cpus(2)
    monkeypatch.setattr(regret, "_NAIVE_SPLIT_MIN", 2048)
    path = str(tmp_path / "inst.json")
    assert main(["generate", "--n", "4096", "--seed", "3", "--model", "U1", "--gamma", "30",
                 "--output", path]) == EXIT_OK
    assert main(["verify", "--input", path, "--trials", "0"]) == EXIT_OK
    assert "ok fast-vs-naive-optima: 1 cases" in capsys.readouterr().out.splitlines()


def test_verify_random_trials_pass(capsys):
    assert main(["verify", "--trials", "40", "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verified 40 instances" in out


def test_verify_catches_broken_fast_path(monkeypatch, capsys):
    # negative control: a corrupted fast path must surface as a counterexample
    def broken(instance):
        good = list(cli.all_optimal_makespans_naive(instance))
        good[0] += 1
        return tuple(good)

    monkeypatch.setattr(cli, "all_optimal_makespans_fast", broken)
    assert main(["verify", "--trials", "3", "--seed", "5"]) == EXIT_COUNTEREXAMPLE
    err = capsys.readouterr().err
    assert "FAIL fast-vs-naive-optima" in err
    assert "counterexample instance" in err


@pytest.mark.parametrize("extra", [-1, 1], ids=["shorter", "longer"])
def test_verify_catches_a_fast_path_of_the_wrong_length(monkeypatch, capsys, extra):
    # negative control: one optimum too few or too many is a counterexample, not a crash
    def wrong(instance):
        naive = cli.all_optimal_makespans_naive(instance)
        return naive[:-1] if extra < 0 else np.append(naive, naive[0])

    monkeypatch.setattr(cli, "all_optimal_makespans_fast", wrong)
    assert main(["verify", "--trials", "3", "--seed", "5"]) == EXIT_COUNTEREXAMPLE
    first = capsys.readouterr().err.splitlines()[0]
    n = cli._random_check_instance(random.Random(5)).n  # the draw that fails
    assert first == f"FAIL fast-vs-naive-optima: fast gives {n + extra} optima, naive {n}"


def test_verify_catches_wrong_solver_order(monkeypatch, capsys):
    # negative control: an intentionally bad solver must be flagged
    def bad_solver(instance):
        ids = tuple(range(1, instance.n + 1))
        worst = max(ids, key=lambda j: instance.jobs[j - 1].r_hi)
        perm = (worst,) + tuple(j for j in ids if j != worst)
        from robust_makespan.absolute import robust_absolute_cost

        return Schedule(perm), robust_absolute_cost(Schedule(perm), normalize_u1(instance))

    monkeypatch.setattr(cli, "solve_robust_absolute", bad_solver)
    assert main(["verify", "--trials", "60", "--seed", "1"]) == EXIT_COUNTEREXAMPLE
    assert "FAIL absolute-solver-optimality" in capsys.readouterr().err


def test_verify_catches_solver_inexact_at_large_magnitude(monkeypatch, capsys):
    # negative control: a cost rounded through float64 is exact on the small
    # draws and off by up to 512 once every release is shifted by 2**62
    exact = cli.solve_robust_absolute

    def rounding_solver(instance):
        schedule, cost = exact(instance)
        return schedule, int(float(cost))

    monkeypatch.setattr(cli, "solve_robust_absolute", rounding_solver)
    assert main(["verify", "--trials", "20", "--seed", "5"]) == EXIT_COUNTEREXAMPLE
    err = capsys.readouterr().err
    assert "FAIL shifted-magnitude" in err
    assert "absolute cost" in err


def test_verify_catches_solver_inexact_at_the_64_bit_edge(monkeypatch, capsys):
    # negative control: a cost computed with sum(p) of headroom saturates only
    # within sum(p) of the limit, so the 2**62 shift passes and the edge fails
    exact = cli.solve_robust_absolute

    def headroom_solver(instance):
        schedule, cost = exact(instance)
        total = int(instance.columns[0].sum())
        return schedule, min(cost + total, MAX_TIME) - total

    monkeypatch.setattr(cli, "solve_robust_absolute", headroom_solver)
    assert main(["verify", "--trials", "20", "--seed", "5"]) == EXIT_COUNTEREXAMPLE
    err = capsys.readouterr().err
    assert "FAIL shifted-magnitude: releases + " in err
    assert "(the 64-bit edge): absolute cost" in err
    assert "2**62" not in err


def test_verify_catches_a_report_that_reads_untrimmed_bounds(monkeypatch, capsys):
    # negative control: a max_regret that raises jobs to their raw U1 upper bounds is exact
    # on every trimmed copy, so only the check on raw input can see it
    exact = cli.max_regret

    def untrimmed(schedule, instance):
        no_budget = UncertaintyModel("U2", instance.n)
        return exact(schedule, Instance.from_arrays(*instance.columns, no_budget))

    monkeypatch.setattr(cli, "max_regret", untrimmed)
    assert main(["verify", "--trials", "20", "--seed", "5"]) == EXIT_COUNTEREXAMPLE
    err = capsys.readouterr().err
    assert "FAIL untrimmed-u1-reports: the solve or max_regret of its schedule" in err


def test_verify_counts_untrimmed_u1_instances(capsys):
    assert main(["verify", "--trials", "40", "--seed", "5"]) == EXIT_OK
    counted = int(capsys.readouterr().out.split("ok untrimmed-u1-reports: ")[1].split()[0])
    assert 0 < counted < 40


def test_verify_prints_every_count_in_order(capsys):
    # pins the checks, their order and the order of the seeded draws
    assert main(["verify", "--trials", "40", "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "ok erd-optimality: 369 cases",
        "ok worst-case-construction: 480 cases",
        "ok candidate-set-sufficiency: 480 cases",
        "ok absolute-solver-optimality: 40 cases",
        "ok regret-solver-optimality: 40 cases",
        "ok fast-vs-naive-optima: 40 cases",
        "ok untrimmed-u1-reports: 6 cases",
        "ok shifted-magnitude: 40 cases",
        "verified 40 instances",
    ]


def test_verify_prints_the_failing_check_and_its_instance(monkeypatch, capsys):
    def broken(instance):
        good = cli.all_optimal_makespans_naive(instance).copy()
        good[0] += 1
        return good

    monkeypatch.setattr(cli, "all_optimal_makespans_fast", broken)
    assert main(["verify", "--trials", "3", "--seed", "5"]) == EXIT_COUNTEREXAMPLE
    out, err = capsys.readouterr()
    first = cli._random_check_instance(random.Random(5))  # the draw that fails
    assert out == ""
    assert err == ("FAIL fast-vs-naive-optima: candidate job 1: fast 23 != naive 22\n"
                   "counterexample instance:\n" + dump_instance(first))


def test_module_entry_point_exits_with_main_status():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "robust_makespan.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run("verify", "--trials", "2", "--seed", "0")
    assert done.returncode == EXIT_OK
    assert done.stdout.splitlines()[-1] == "verified 2 instances"
    done = run()
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("error: ")


def test_verify_without_work_is_usage_error(capsys):
    assert main(["verify", "--trials", "0"]) == EXIT_USAGE


def test_verify_refuses_negative_trials(tmp_path, capsys):
    path = write(tmp_path, TWO_JOB)
    for argv in (["--trials", "-3", "--input", path], ["--trials", "-1"]):
        assert main(["verify", *argv]) == EXIT_USAGE
        err = capsys.readouterr()
        assert err.err == "error: --trials must be non-negative, got " + argv[1] + "\n"
        assert err.out == ""
