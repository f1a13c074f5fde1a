"""Command-line front end: instance files, generation, solving, verification.

Instance files are JSON:

    {"version": 1,
     "uncertainty": {"kind": "U2", "gamma": 2},
     "jobs": [{"id": 1, "p": 2, "r_lo": 0, "r_hi": 4}, ...]}

A file in exactly the layout `generate` writes (`dump_instance`) is read
without a JSON parse, by numpy passes over 8-byte windows that check every
byte of its job rows and convert their numbers (the `:` search past 2 MiB
and the conversion from 16,385 rows on in two halves on two threads,
`core._split`). Any other file is parsed as JSON and read in one pass per job
field, with the same results and the same messages; a complaint about one job
names its position in the file or its id.

Solution files are single-line JSON objects with the criterion, the
permutation, the objective, the attained worst-case scenario, and (for
regret) the per-candidate values, with the bytes `json.dumps` would write.
One numpy decimal renderer (`_render_rows`) writes every integer column of
both file kinds.
Exit status: 0 success, 1 usage or parse error, 2 verification found a
counterexample.
"""
from __future__ import annotations

import argparse
import io
import json
import random
import re
import sys
from collections.abc import Iterator
from itertools import chain
from pathlib import Path

import numpy as np

from .absolute import (
    robust_absolute_cost,
    solve_robust_absolute,
    worst_case_scenario_absolute,
)
from .core import (
    MAX_TIME,
    Instance,
    Job,
    Schedule,
    UncertaintyModel,
    _erd_makespan_arrays,
    _int64_column,
    _profile_from_sorted,
    _sorted_order,
    _split,
    evaluate,
    optimal_makespan,
)
from .oracle import (
    brute_max_regret,
    brute_min_makespan,
    brute_min_max_regret,
    brute_min_worst_cost,
    enumerate_feasible_scenarios,
)
from .regret import (
    all_optimal_makespans_fast,
    all_optimal_makespans_naive,
    max_regret,
    solve_robust_regret,
)
from .uncertainty import _single_deviation, extreme_scenarios, is_feasible, normalize_u1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 2

INSTANCE_VERSION = 1


class CliError(Exception):
    """User-facing error: bad arguments or an unparsable input file."""


# ---------------------------------------------------------------------------
# instance / solution files


def _field(obj: dict, key: str, where: str) -> object:
    if key not in obj:
        raise CliError(f"{where}: missing field {key!r}")
    return obj[key]


def _int_field(obj: dict, key: str, where: str) -> int:
    value = _field(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"{where}: field {key!r} must be an integer, got {value!r}")
    return value


def load_instance(path: str | Path) -> Instance:
    """Parse an instance file, with positions or job ids in every complaint.

    A file in exactly the layout `dump_instance` writes, which is every file
    `generate` writes, is read without a JSON parse (`_generated_columns`);
    any other file goes through the JSON reader (`_json_columns`). Both hand
    the columns, in id order, to `Instance.from_arrays` for one vectorized
    check of the values, so a file gives the same instance, or the same
    complaint, whichever reader takes it.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        kind, gamma, columns = _generated_columns(raw) or _json_columns(path, raw)
        return Instance.from_arrays(*columns, UncertaintyModel(kind, gamma))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _generated_columns(raw: bytes) -> tuple[str, int, list[np.ndarray]] | None:
    """(kind, gamma, [p, r_lo, r_hi]) of a file in exactly `dump_instance`'s layout, else None.

    Each number follows a ": ", and the row literals hold no other ":" and no
    digit, so a search for ":" finds the numbers and the literals' lengths
    give their widths. 8-byte windows of the file must then show each literal,
    1 to 19 digits per number with no leading zero and no value past
    MAX_TIME, and ids 1..n: only the bytes `_instance_chunks` writes pass.
    Search blocks and row chunks run in halves (`_split`) from `_READ_SPLIT_MIN`
    of them on; a refusal in either half refuses the file and stops the other.
    """
    head = _INSTANCE_HEAD.match(raw)
    if head is None or not raw.endswith(_INSTANCE_ROW[-1] + _INSTANCE_TAIL):
        return None
    stop, buf = len(raw) - len(_INSTANCE_TAIL) - 1, np.frombuffer(raw, np.uint8)
    block, rows = 64 * _ROWS, _ROWS // 2  # bytes per search block (1 MiB), rows per chunk
    # each number's start (blocks a..b per half), and where one would start after the last row
    found = _split(lambda a, b: [np.flatnonzero(buf[at:at + block] == ord(":")) + (at + 2) for at
                                 in range(head.end() + a * block, head.end() + b * block, block)],
                   -(-(stop - head.end()) // block), _READ_SPLIT_MIN)
    starts = np.concatenate([[head.end()], *sum(found, []), [stop + _GAP_LEN[0, 0]]])
    n = starts.size // 4
    if starts.size % 4 != 1:
        return None
    words = np.ndarray((len(raw) - 7,), np.dtype("<u8"), raw, 0, (1,))  # words[i]: raw[i:i + 8]
    columns = np.empty((3, n), np.int64)
    refused = []  # a half's refusal: the other half stops before its next chunk

    def convert(a: int, b: int) -> bool:  # checks chunks a..b into columns; False at a refusal
        for lo in range(a * rows, min(b * rows, n), rows):
            if refused:
                return False
            hi = min(lo + rows, n)
            # (field, row) arrays: each field's constants broadcast along a row
            at, nxt = (np.ascontiguousarray(s.reshape(-1, 4).T)
                       for s in (starts[4 * lo:4 * hi], starts[4 * lo + 1:4 * hi + 1]))
            end = nxt - np.roll(_GAP_LEN, -1)  # one past each number's last digit
            width = end - at
            if width.min() < 1 or width.max() > 19:
                refused.append(lo)
                return False
            bad = ((words[at - _GAP_LEN] & _GAP_HEAD[0]) ^ _GAP_HEAD[1]
                   | (words[at - 8] & _GAP_TAIL[0]) ^ _GAP_TAIL[1])
            if lo == 0:
                bad[0, 0] = 0  # the first number follows the header
            value, flags = _read_digits(words, end, width)
            if ((bad | flags).any() or (value < _LEAST[width]).any() or (value > MAX_TIME).any()
                    or not np.array_equal(value[0], np.arange(lo + 1, hi + 1, dtype=np.uint64))):
                refused.append(lo)
                return False
            columns[:, lo:hi] = value[1:]
        return True

    if not all(_split(convert, -(-n // rows), _READ_SPLIT_MIN)):
        return None
    return head[1].decode(), int(head[2]), list(columns)


def _read_digits(words: np.ndarray, end: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, ...]:
    """(values, flags) of the `width` bytes before each `end` as decimal digits, with a
    nonzero flag where one is not a digit. Three multiply-shift-mask steps add up the
    last 8 in pairs, fours and eights (Langdale and Lemire, 2019); the rest recurse."""
    x = (words[end - 8] ^ 0x3030303030303030) & _TOP[np.minimum(width, 8)]
    flags = (x | x + 0x7676767676767676) & 0x8080808080808080  # a byte past 9 sets its top bit
    x = (x * 10 + (x >> 8)) & 0x00FF00FF00FF00FF
    x = (x * 100 + (x >> 16)) & 0x0000FFFF0000FFFF
    x = (x * 10000 + (x >> 32)) & 0xFFFFFFFF
    more = width > 8
    if more.any():
        high, high_flags = _read_digits(words, end[more] - 8, width[more] - 8)
        x[more] += high * 10**8
        flags[more] |= high_flags
    return x, flags


def _json_columns(path: str | Path, raw: bytes) -> tuple[str, int, list[np.ndarray]]:
    """(kind, gamma, [p, r_lo, r_hi]) of any instance file, through a JSON parse.

    The text is decoded as `Path.read_text` would. The jobs are read in one
    pass per field, each checked by the library's integer checker, and
    sorted by id.
    """
    try:
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer literal, or deep nesting
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"{path}: top level must be an object")
    version = _int_field(doc, "version", str(path))
    if version != INSTANCE_VERSION:
        raise CliError(f"{path}: unsupported version {version}")
    unc = _field(doc, "uncertainty", str(path))
    if not isinstance(unc, dict):
        raise CliError(f"{path}: 'uncertainty' must be an object")
    kind = _field(unc, "kind", f"{path}: uncertainty")
    gamma = _int_field(unc, "gamma", f"{path}: uncertainty")
    jobs_doc = _field(doc, "jobs", str(path))
    if not isinstance(jobs_doc, list) or not jobs_doc:
        raise CliError(f"{path}: 'jobs' must be a non-empty array")
    ids, *columns = [_job_column(path, jobs_doc, name) for name in ("id", "p", "r_lo", "r_hi")]
    expected = np.arange(1, ids.size + 1)
    if not np.array_equal(ids, expected):
        order, ids = _sorted_order(ids)
        repeated = np.flatnonzero(ids[1:] == ids[:-1])
        if repeated.size:
            raise CliError(f"{path}: duplicate job id {ids[repeated[0]]}")
        if not np.array_equal(ids, expected):
            i = int(np.flatnonzero(ids != expected)[0])
            raise CliError(
                f"{path}: job ids must be 1..n; in id order, position {i + 1} holds id {ids[i]}"
            )
        columns = [column[order] for column in columns]
    return str(kind), gamma, columns


def _job_column(path: str | Path, jobs_doc: list, name: str) -> np.ndarray:
    """Field `name` of every job as int64; CliError at the first job that is not an
    object or lacks the field, ValueError at the first value that is not an int64."""
    try:
        values = [job[name] for job in jobs_doc]
    except (KeyError, TypeError):
        k, job = next((k, job) for k, job in enumerate(jobs_doc)
                      if not isinstance(job, dict) or name not in job)
        if not isinstance(job, dict):
            raise CliError(f"{path}: jobs[{k}]: must be an object") from None
        raise CliError(f"{path}: jobs[{k}]: missing field {name!r}") from None
    return _int64_column(values, lambda k: f"jobs[{k}]: field {name!r}")


_INSTANCE_ROW = (b'    {"id": ', b', "p": ', b', "r_lo": ', b', "r_hi": ', b"}")
_ROW_SEP = b",\n"
# the header, and the first row up to its id
_INSTANCE_HEAD = re.compile(rb'\{\n  "version": %d,\n  "uncertainty": \{"kind": "(U[12])", '
                            rb'"gamma": (0|[1-9][0-9]{0,18})\},\n  "jobs": \[\n' % INSTANCE_VERSION
                            + re.escape(_INSTANCE_ROW[0]))
_INSTANCE_TAIL = b"\n  ]\n}\n"


def _window(text: bytes, at: int) -> tuple[int, int]:
    """(mask, word): text[at:at + 8] as a little-endian word, lanes outside text masked."""
    lanes = range(max(at, 0), min(at + 8, len(text)))
    return sum(0xFF << 8 * (i - at) for i in lanes), sum(text[i] << 8 * (i - at) for i in lanes)


# the 7 to 14 bytes before each number of a row, and the (masks, words) of their first and last 8
_GAPS = (_INSTANCE_ROW[-1] + _ROW_SEP + _INSTANCE_ROW[0], *_INSTANCE_ROW[1:-1])
_GAP_LEN = np.array([[len(gap)] for gap in _GAPS])
_GAP_HEAD = np.array([_window(gap, 0) for gap in _GAPS], np.uint64).T[..., None]
_GAP_TAIL = np.array([_window(gap, len(gap) - 8) for gap in _GAPS], np.uint64).T[..., None]
# the last c bytes of a word, for c = 0..8; the least value of each number of digits
_TOP = np.array([2**64 - 2 ** (64 - 8 * c) for c in range(9)], np.uint64)
_LEAST = np.array([0, 0, *(10**k for k in range(1, 19))], np.uint64)


def _instance_chunks(kind: str, gamma: int, p: np.ndarray, r_lo: np.ndarray,
                     r_hi: np.ndarray) -> Iterator[bytes]:
    """The bytes of `dump_instance`, in chunks: a header, one line per job, a tail."""
    yield (f'{{\n  "version": {INSTANCE_VERSION},\n'
           f'  "uncertainty": {{"kind": "{kind}", "gamma": {gamma}}},\n  "jobs": [\n').encode()
    yield from _render_rows(_ROW_SEP, _INSTANCE_ROW, (np.arange(1, p.size + 1), p, r_lo, r_hi))
    yield _INSTANCE_TAIL


def dump_instance(instance: Instance) -> str:
    """Serialize an instance to the instance format (deterministic bytes)."""
    model = instance.uncertainty
    return b"".join(_instance_chunks(model.kind, model.gamma, *instance.columns)).decode()


# rows per chunk of `_render_rows`: the chunk's byte template and int64
# temporaries (under 2 MB for instance rows) stay in L2; the reader's halves
# start from _READ_SPLIT_MIN blocks or chunks, a whole one each (table in CHANGES.md)
_ROWS = 2**14
_READ_SPLIT_MIN = 3


def _digit_words() -> np.ndarray:
    """The four decimal digits of each of 0..9999 as one uint32 word of ASCII bytes.

    Three blocks of 10**4 words: zero-padded ("0042"); NUL-padded
    ("\\0\\042") with 0 as four NULs, for the highest group of a value and
    its empty groups above; and NUL-padded with 0 as "\\0\\0\\00", for a
    value below 10**4.
    """
    # small dtypes: int64 temporaries added 2 MB to the peak RSS of importing the CLI
    v = np.arange(10**4, dtype=np.uint16)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1).astype(np.uint8)
    digits += ord("0")
    width = 1 + (v >= 10) + (v >= 100) + (v >= 1000)
    unpadded = np.where(np.arange(4) >= 4 - width[:, None], digits, 0)
    highest = unpadded.copy()
    highest[0] = 0
    return np.concatenate([digits, highest, unpadded]).view(np.uint32).ravel()


_DIGIT_WORDS = _digit_words()


def _render_rows(sep: bytes, literals: tuple[bytes, ...],
                 columns: tuple[np.ndarray, ...]) -> Iterator[bytes]:
    """Decimal text of aligned non-negative int64 columns, in chunks of `_ROWS` rows.

    Row i is literals[0] columns[0][i] literals[1] ... columns[-1][i]
    literals[-1], written as f-strings or json.dumps write integers; rows are
    joined by sep, and the chunks concatenate to the whole text. Literals
    hold no NUL byte.

    Each row fills a fixed byte template: every column gets as many groups of
    four digits as its largest value needs, at word-aligned offsets, and each
    group takes one divmod by 10**4 and one gather from `_DIGIT_WORDS`.
    Leading zeros and alignment padding are NUL bytes, which bytes.translate
    deletes.
    """
    n = columns[0].size
    if not n:
        return
    groups = []
    for column in columns:
        if column.min() < 0:
            raise ValueError("decimal rows need non-negative values")
        groups.append(-(-len(str(column.max())) // 4))
    template, starts = bytearray(), []
    for literal, count in zip((sep + literals[0], *literals[1:]), [*groups, 0]):
        template += literal + bytes(-(len(template) + len(literal)) % 4)
        starts.append(len(template) // 4)
        template += bytes(4 * count)
    rows = np.empty((min(n, _ROWS), len(template)), np.uint8)
    rows[:] = np.frombuffer(template, np.uint8)
    words = rows.view(np.uint32)
    for lo in range(0, n, _ROWS):
        size = min(_ROWS, n - lo)
        for column, start, count in zip(columns, starts, groups):
            q = column[lo:lo + size]
            for k in range(count):  # from the units group up
                q, r = np.divmod(q, 10**4)
                r += (q == 0) * (2 * 10**4 if k == 0 else 10**4)
                words[:size, start + count - 1 - k] = _DIGIT_WORDS[r]
        text = rows[:size].tobytes().translate(None, b"\0")
        yield text[len(sep):] if lo == 0 else text


def solve_to_payload(criterion: str, instance: Instance) -> dict:
    """Run the requested solver and package a self-consistent solution document.

    The worst-case scenario raises one job (the critical one for absolute,
    the worst candidate for regret) to its trimmed upper bound. Before
    returning, the scenario is re-evaluated on the arrays and must attain
    the objective. The permutation, the scenario's releases and the
    per-candidate values are int64 arrays, which `_solution_text` writes
    as JSON lists.
    """
    p = instance.columns[0]
    if criterion == "absolute":
        schedule, objective = solve_robust_absolute(instance)
    else:
        report = solve_robust_regret(instance)
        schedule, objective, jid = report.schedule, report.regret, report.worst_job
    idx = schedule.indices
    ps = p[idx]  # each column the self-check reads is gathered in schedule order once
    if criterion == "absolute":  # the critical job: the last argmax of the upper bounds' terms
        term = _profile_from_sorted(instance.trimmed_r_hi[idx], ps)[1]
        jid = int(idx[term.size - 1 - int(term[::-1].argmax())]) + 1
    releases = _single_deviation(instance, jid)
    attained = _profile_from_sorted(releases[idx], ps)[2]
    if criterion == "regret":
        attained -= _erd_makespan_arrays(releases, p)
    if attained != objective:
        raise AssertionError(
            f"solution failed self-check: scenario attains {attained}, not the {criterion} "
            f"objective {objective}"
        )
    payload = {
        "criterion": criterion,
        "permutation": idx + 1,
        "objective": objective,
        "worst_case_scenario": {"releases": releases, "candidate_job": jid},
    }
    if criterion == "regret":
        payload["per_candidate"] = np.frombuffer(report._per_candidate, np.int64)
    return payload


def _solution_text(payload: dict) -> str:
    """json.dumps(payload) + "\\n", with each int64 array in `payload` written as
    the JSON list of its values by `_render_rows`."""
    arrays = []

    def hole(array: np.ndarray) -> str:
        arrays.append(array)
        return "\0"  # json.dumps writes it as "\u0000"

    head, *tails = (json.dumps(payload, default=hole) + "\n").encode().split(b'"\\u0000"')
    chunks = [head]
    for array, tail in zip(arrays, tails):
        chunks += [b"[", *_render_rows(b", ", (b"", b""), (array,)), b"]", tail]
    return b"".join(chunks).decode()


# ---------------------------------------------------------------------------
# subcommands


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.input)
    text = _solution_text(solve_to_payload(args.criterion, instance))
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    r_lo_min, r_lo_max = args.r_range
    p_min, p_max = args.p_range
    w_min, w_max = args.width_range
    if args.n < 1:
        raise CliError("--n must be at least 1")
    if p_min < 1 or p_min > p_max:
        raise CliError(f"invalid --p-range {p_min} {p_max}")
    if r_lo_min < 0 or r_lo_min > r_lo_max:
        raise CliError(f"invalid --r-range {r_lo_min} {r_lo_max}")
    if w_min < 0 or w_min > w_max:
        raise CliError(f"invalid --width-range {w_min} {w_max}")
    if args.model == "U2" and args.gamma < 1:
        raise CliError("--gamma must be at least 1 for U2")
    if args.gamma < 0:
        raise CliError("--gamma must be non-negative")
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    # in Python integers, before numpy draws: an upper end past int64 makes
    # numpy raise, and r_lo + width past it would wrap negative
    for option, high in (("--p-range", p_max), ("--r-range", r_lo_max),
                         ("--width-range", w_max)):
        if high > MAX_TIME:
            raise CliError(f"{option} upper end {high} exceeds the 64-bit limit {MAX_TIME}")
    if r_lo_max + w_max > MAX_TIME:
        raise CliError(
            f"--r-range and --width-range: r_hi can reach {r_lo_max + w_max}, "
            f"past the 64-bit limit {MAX_TIME}"
        )
    rng = np.random.default_rng(args.seed)
    p = rng.integers(p_min, p_max, args.n, endpoint=True)
    r_lo = rng.integers(r_lo_min, r_lo_max, args.n, endpoint=True)
    r_hi = r_lo + rng.integers(w_min, w_max, args.n, endpoint=True)
    try:
        instance = Instance.from_arrays(p, r_lo, r_hi, UncertaintyModel(args.model, args.gamma))
    except ValueError as exc:
        raise CliError(f"{exc}: lower --n, --p-range, --r-range or --width-range") from exc
    _write_text(args.output, dump_instance(instance))
    return EXIT_OK


def _random_check_instance(rng: random.Random) -> Instance:
    n = rng.randint(1, 6)
    kind = rng.choice(("U1", "U2"))
    jobs = []
    for i in range(1, n + 1):
        r_lo = rng.randint(0, 12)
        jobs.append(Job(i, rng.randint(1, 6), r_lo, r_lo + rng.randint(0, 8)))
    gamma = rng.choice((1, 2, n)) if kind == "U2" else rng.randint(0, 15)
    return Instance(tuple(jobs), UncertaintyModel(kind, gamma))


# the checks, in the order `verify` prints their counts
_CHECKS = ("erd-optimality", "worst-case-construction", "candidate-set-sufficiency",
           "absolute-solver-optimality", "regret-solver-optimality", "fast-vs-naive-optima",
           "untrimmed-u1-reports", "shifted-magnitude")
_ERD, _WORST_CASE, _CANDIDATES, _ABSOLUTE, _REGRET, _FAST, _UNTRIMMED, _SHIFTED = _CHECKS


def _checks(instance: Instance, rng: random.Random) -> Iterator[tuple[str, bool, str]]:
    """(check, passed, detail) of each oracle check that applies to this instance, in turn;
    a caller that stops at a failed record runs no later check."""
    trimmed, n = normalize_u1(instance), instance.n

    fast = np.asarray(all_optimal_makespans_fast(trimmed))
    naive = all_optimal_makespans_naive(trimmed)
    if fast.size != naive.size:
        yield _FAST, False, f"fast gives {fast.size} optima, naive {naive.size}"
    else:
        j = int(np.argmax(fast != naive))  # the first mismatch, if any
        yield (_FAST, fast[j] == naive[j],
               f"candidate job {j + 1}: fast {fast[j]} != naive {naive[j]}")

    report = solve_robust_regret(instance)
    # the regret entry points trim U1 bounds themselves: raw input gives the trimmed reports
    if trimmed is not instance:
        yield (_UNTRIMMED, report == max_regret(report.schedule, instance)
               and report == solve_robust_regret(trimmed),
               "the solve or max_regret of its schedule differs once trimmed")

    if n > 6:
        return

    for scenario in enumerate_feasible_scenarios(instance)[:48]:
        got, want = optimal_makespan(scenario, instance), brute_min_makespan(scenario, instance)
        yield _ERD, got == want, (f"scenario {scenario.releases}: sorted-order makespan {got}, "
                                  f"enumeration {want}")

    schedules = [Schedule(tuple(rng.sample(range(1, n + 1), n))) for _ in range(12)]
    _, upper = extreme_scenarios(trimmed)
    for schedule in schedules:
        cost = robust_absolute_cost(schedule, trimmed)
        scenario = worst_case_scenario_absolute(schedule, trimmed)
        ev = evaluate(schedule, scenario, trimmed)
        crit = evaluate(schedule, upper, trimmed).critical_position
        jid = schedule.perm[crit - 1]
        suffix = int(trimmed.columns[0][schedule.indices[crit - 1 :]].sum())
        yield (_WORST_CASE, ev.makespan == cost and is_feasible(scenario, trimmed)
               and scenario.releases[jid - 1] + suffix == ev.makespan,
               f"perm {schedule.perm}: scenario {scenario.releases} "
               f"(cost {cost}, attained {ev.makespan})")

        got, want = max_regret(schedule, trimmed).regret, brute_max_regret(schedule, instance)
        yield _CANDIDATES, got == want, (f"perm {schedule.perm}: candidate-set regret {got}, "
                                         f"grid regret {want}")

    cost, want = solve_robust_absolute(instance)[1], brute_min_worst_cost(instance)
    yield _ABSOLUTE, cost == want, f"solver cost {cost}, enumeration {want}"

    want = brute_min_max_regret(instance)
    yield _REGRET, report.regret == want, f"solver regret {report.regret}, enumeration {want}"


def _shifted_checks(instance: Instance) -> Iterator[tuple[str, bool, str]]:
    """One record: the solvers on copies with every release moved up.

    The first copy moves releases up by 2**62. The second moves them to the
    64-bit edge, by MAX_TIME - (max r_hi + sum p), so that the instance's
    worst-case completion bound holds with equality. Shifting every release
    by the same amount shifts every makespan by it, so both solvers must
    return the same orders, the regret report must be unchanged and every
    optimum and the absolute cost must move by exactly the shift. The
    record's detail names the first copy that shows a problem.
    """
    p, r_lo, r_hi = instance.columns
    base = solve_robust_regret(instance)
    optima = all_optimal_makespans_fast(instance)
    sched, cost = solve_robust_absolute(instance)
    edge = MAX_TIME - int(r_hi.max()) - int(p.sum())
    problems = []
    for shift, label in ((2**62, "2**62"), (edge, f"{edge} (the 64-bit edge)")):
        shifted = Instance.from_arrays(p, r_lo + shift, r_hi + shift, instance.uncertainty)
        high = solve_robust_regret(shifted)
        if high != base:
            problems.append(f"regret {base.regret} -> {high.regret}")
        moved = all_optimal_makespans_fast(shifted)
        if not np.array_equal(moved, optima + shift):
            problems.append(f"optima {optima.tolist()} -> {moved.tolist()}")
        sched_high, cost_high = solve_robust_absolute(shifted)
        if sched_high != sched or cost_high != cost + shift:
            problems.append(f"absolute cost {cost} -> {cost_high}")
        if problems:
            break
    yield _SHIFTED, not problems, f"releases + {label}: {'; '.join(problems)}"


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise CliError(f"--trials must be non-negative, got {args.trials}")
    # (instance, whether to repeat its checks at shifted magnitude)
    instances = []
    if args.input:
        instances.append((load_instance(args.input), False))
    rng = random.Random(args.seed)
    instances.extend((_random_check_instance(rng), True) for _ in range(args.trials))
    if not instances:
        raise CliError("nothing to verify: give --input and/or --trials")
    counts = dict.fromkeys(_CHECKS, 0)
    for instance, shift in instances:
        for check, passed, detail in chain(_checks(instance, rng),
                                           _shifted_checks(instance) if shift else ()):
            if not passed:
                print(f"FAIL {check}: {detail}", file=sys.stderr)
                print("counterexample instance:", file=sys.stderr)
                print(dump_instance(instance), file=sys.stderr, end="")
                return EXIT_COUNTEREXAMPLE
            counts[check] += 1
    for check, count in counts.items():
        print(f"ok {check}: {count} cases")
    print(f"verified {len(instances)} instances")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="robust-makespan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--criterion", choices=("absolute", "regret"), required=True)
    solve.add_argument("--input", required=True)
    solve.add_argument("--output", help="solution file (default: stdout)")
    solve.set_defaults(func=cmd_solve)

    gen = sub.add_parser("generate", help="write a reproducible random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--r-range", type=int, nargs=2, default=(0, 100), metavar=("LO", "HI"))
    gen.add_argument("--p-range", type=int, nargs=2, default=(1, 100), metavar=("LO", "HI"))
    gen.add_argument("--width-range", type=int, nargs=2, default=(0, 20), metavar=("LO", "HI"))
    gen.add_argument("--model", choices=("U1", "U2"), default="U2")
    gen.add_argument("--gamma", type=int, required=True)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=cmd_generate)

    verify = sub.add_parser("verify", help="cross-check solvers against brute force")
    verify.add_argument("--input", help="instance file to verify")
    verify.add_argument("--trials", type=int, default=100, help="extra random instances")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
