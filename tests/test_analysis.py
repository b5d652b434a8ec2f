"""Windowed MCAV scoring, session summaries, verdicts, and the CSV logs."""

import csv
import io
import os
import random
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcascan.analysis import (
    LOG_HEADER,
    AnalysisConfig,
    VERDICT_ANOMALOUS,
    VERDICT_INSUFFICIENT,
    VERDICT_NORMAL,
    classify,
    compute_mcav_windows,
    open_table,
    read_presentations,
    session_summary,
    write_mcav_csv,
    write_presentations,
)
from dcascan.errors import ConfigError, ValidationError
from dcascan.events import ProcessEvent
from reference import recount_scores, write_log


def _rec(label, context):
    return label, context


def _summarize(records, config):
    return session_summary(compute_mcav_windows(records, config), config)


def _example_records():
    """25 records in three windows of 10: 6+4, 5+5, and a partial 5."""
    return (
        [_rec("nmap", 1)] * 6 + [_rec("firefox", 0)] * 4
        + [_rec("nmap", 1)] * 3 + [_rec("nmap", 0)] * 2 + [_rec("sshd", 0)] * 5
        + [_rec("nmap", 0)] * 5
    )


def test_window_partition_and_scores():
    windows = compute_mcav_windows(_example_records(), AnalysisConfig(window_size=10))
    assert windows == [
        (10, Counter(nmap=6, firefox=4), Counter(nmap=6)),
        (10, Counter(nmap=5, sshd=5), Counter(nmap=3)),
        (5, Counter(nmap=5), Counter()),
    ]


def test_exact_multiple_has_no_partial_window():
    config = AnalysisConfig(window_size=5)
    windows = compute_mcav_windows([_rec("a", 1)] * 10, config)
    assert [size for size, _, _ in windows] == [5, 5]
    assert session_summary(windows, config)["a"].windows == 2


def test_window_proportions_sum_to_one(tmp_path):
    rng = random.Random(4)
    records = [_rec(rng.choice("abc"), rng.randint(0, 1)) for _ in range(137)]
    windows = compute_mcav_windows(records, AnalysisConfig(window_size=25))
    write_mcav_csv(windows, tmp_path / "mcav.csv")
    with open(tmp_path / "mcav.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for index, (size, _, _) in enumerate(windows):
        mine = [row for row in rows if row["window"] == str(index)]
        assert sum(float(row["proportion"]) for row in mine) == pytest.approx(1.0, abs=1e-5)
        assert sum(int(row["presentations"]) for row in mine) == size


def _seed_17_records():
    rng = random.Random(17)
    labels = ["nmap", "pts", "firefox", "sshd"]
    return [_rec(rng.choice(labels), rng.randint(0, 1)) for _ in range(rng.randint(1, 1000))]


@given(pairs=st.lists(st.tuples(st.sampled_from(["nmap", "pts", "firefox", "sshd", "x"]),
                                st.integers(0, 1)), max_size=200),
       size=st.integers(1, 64))
@example(pairs=[], size=3)
@example(pairs=[_rec("a", 1)] * 6 + [_rec("b", 0)] * 6, size=4)  # an exact multiple
@example(pairs=[_rec("a", 0)] * 4 + [_rec("tail", 1)] * 2, size=4)  # "tail": partial window only
@example(pairs=_seed_17_records(), size=64)
def test_windows_match_brute_force_recount(pairs, size):
    config = AnalysisConfig(window_size=size)
    windows = compute_mcav_windows(pairs, config)
    rows, expected = recount_scores(pairs, size)
    assert sum(length for length, _, _ in windows) == len(pairs)
    with tempfile.TemporaryDirectory() as tmp:
        write_mcav_csv(windows, os.path.join(tmp, "mcav.csv"))
        with open(os.path.join(tmp, "mcav.csv"), newline="") as fh:
            assert list(csv.reader(fh))[1:] == rows
    summaries = session_summary(windows, config)
    assert list(summaries) == list(expected)
    for label, summary in summaries.items():
        n_windows, mean, std, presentations, proportion = expected[label]
        assert (summary.windows, summary.presentations) == (n_windows, presentations)
        assert summary.mean_mcav == pytest.approx(mean)
        assert summary.std_mcav == pytest.approx(std, abs=1e-12)
        assert summary.proportion == pytest.approx(proportion)


def test_scores_ignore_order_within_a_window():
    rng = random.Random(8)
    chunk = [_rec(rng.choice("xyz"), rng.randint(0, 1)) for _ in range(50)]
    shuffled = chunk[:]
    rng.shuffle(shuffled)
    config = AnalysisConfig(window_size=50)
    assert compute_mcav_windows(chunk, config) == compute_mcav_windows(shuffled, config)


def test_summary_uses_population_std():
    # one label, two full windows with MCAV 0 and 1
    records = [_rec("nmap", 0)] * 4 + [_rec("nmap", 1)] * 4
    summary = _summarize(records, AnalysisConfig(window_size=4))["nmap"]
    assert summary.windows == 2
    assert summary.mean_mcav == 0.5
    assert summary.std_mcav == 0.5  # population form; the sample form gives ~0.707
    assert summary.presentations == 8
    assert summary.proportion == 1.0


def test_summary_skips_windows_where_label_is_absent():
    records = [_rec("rare", 1)] * 2 + [_rec("common", 0)] * 2 + [_rec("common", 0)] * 4
    summaries = _summarize(records, AnalysisConfig(window_size=4))
    assert summaries["rare"].windows == 1
    assert summaries["rare"].mean_mcav == 1.0
    assert summaries["common"].windows == 2


def test_summary_partial_window_excluded_by_default():
    records = _example_records()
    default = _summarize(records, AnalysisConfig(window_size=10))
    assert default["nmap"].windows == 2
    assert default["nmap"].mean_mcav == pytest.approx(0.8)
    assert default["nmap"].std_mcav == pytest.approx(0.2)
    assert default["nmap"].presentations == 16
    assert default["nmap"].proportion == pytest.approx(16 / 25)


def test_summary_label_only_in_partial_window():
    records = [_rec("a", 0)] * 4 + [_rec("tail", 1)] * 2
    summaries = _summarize(records, AnalysisConfig(window_size=4))
    assert summaries["tail"].windows == 0
    assert summaries["tail"].mean_mcav == 0.0
    assert summaries["tail"].presentations == 2


def test_classify_three_verdicts():
    config = AnalysisConfig(window_size=4, mcav_threshold=0.5, min_confidence=5)
    records = (
        [_rec("hot", 1)] * 8          # mean MCAV 1.0, plenty of evidence
        + [_rec("cold", 0)] * 8       # mean MCAV 0.0
        + [_rec("thin", 1)] * 4       # anomalous-looking but too few records
    )
    verdicts = classify(_summarize(records, config), config)
    assert verdicts == {
        "hot": VERDICT_ANOMALOUS,
        "cold": VERDICT_NORMAL,
        "thin": VERDICT_INSUFFICIENT,
    }


def test_classify_without_a_complete_window_is_insufficient():
    # 6 records never fill a window of 10; mean_mcav 0.0 is a default, not evidence.
    config = AnalysisConfig(window_size=10, min_confidence=0)
    records = [_rec("nmap", 1)] * 6
    summaries = _summarize(records, config)
    assert summaries["nmap"].windows == 0
    assert classify(summaries, config) == {"nmap": VERDICT_INSUFFICIENT}


def test_classify_threshold_is_strict():
    config = AnalysisConfig(window_size=2, mcav_threshold=0.5, min_confidence=0)
    half = [_rec("even", 1), _rec("even", 0)] * 2
    verdicts = classify(_summarize(half, config), config)
    assert verdicts["even"] == VERDICT_NORMAL  # 0.5 is not above 0.5


def test_analysis_config_validation():
    with pytest.raises(ConfigError):
        AnalysisConfig(window_size=0)
    with pytest.raises(ConfigError):
        AnalysisConfig(mcav_threshold=1.5)
    with pytest.raises(ConfigError):
        AnalysisConfig(min_confidence=-1)


def test_empty_record_list():
    assert compute_mcav_windows([]) == []
    assert session_summary([], AnalysisConfig()) == {}
    assert classify({}) == {}


def test_presentation_log_round_trip(tmp_path):
    records = [
        (12, ProcessEvent(12.0, 3411, "nmap", "syscall"), 1),
        (12, ProcessEvent(12.5, 2864, "firefox", "syscall"), 0),
        (13, ProcessEvent(13.25, 3402, "pts", "syscall"), 1),
    ]
    path = tmp_path / "presentations.csv"
    write_log(records, path)
    loaded = list(read_presentations(path))
    assert len(loaded) == 3
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]  # the reader yields no pid or second
    for (second, antigen, context), (label, back_context), row in zip(records, loaded, rows):
        assert int(row[1]) == antigen.pid
        assert label == antigen.process_name
        assert back_context == context
        assert int(row[0]) == second


def test_presentation_log_rejects_bad_content(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ValidationError, match="header"):
        list(read_presentations(path))
    path.write_text("presented_at,pid,label,context\n1,5,x,7\n")
    with pytest.raises(ValidationError, match="context"):
        list(read_presentations(path))
    path.write_text("presented_at,pid,label,context\nnan?,5,x\n")
    with pytest.raises(ValidationError):
        list(read_presentations(path))
    # float() or int() reads these rows; a run writes none of them
    time, pid = "presented_at: bad numeric field: ", "pid: bad numeric field: "
    for row, fragment in [("nan,5,nmap,1", f"{time}'nan'"), ("inf,3,nmap,1", f"{time}'inf'"),
                          ("-1,5,nmap,1", "presented_at must lie in [0, inf], got -1"),
                          ("1_0,5,nmap,0", f"{time}'1_0'"), ("+3,5,nmap,1", f"{time}'+3'"),
                          (" 2,5,nmap,1", f"{time}' 2'"), ("1e1,5,nmap,1", f"{time}'1e1'"),
                          ("1.0,5,nmap,1", f"{time}'1.0'"), ("12.5,5,nmap,1", f"{time}'12.5'"),
                          ("05,5,nmap,1", f"{time}'05'"), ("\u0663,5,nmap,1", f"{time}'\u0663'"),
                          ("1,\u0663,nmap,0", f"{pid}'\u0663'"), ("1,x,nmap,0", f"{pid}'x'"),
                          ("1,-5,nmap,1", "pid must be positive, got -5"),
                          ("1,0,nmap,1", "pid must be positive, got 0"), ("1,+3,nmap,1", f"{pid}'+3'"),
                          ("1,05,nmap,1", f"{pid}'05'"), ("1,1_0,nmap,1", f"{pid}'1_0'"),
                          ("1,5,nmap,+1", "context: bad numeric field: '+1'"),
                          ("1,5,nmap,2", "context must lie in [0, 1], got 2"),
                          ("1,5,a\0b,1", "line contains NUL"),
                          ("1,5,\x1b[2Jnmap,1", "label '\\x1b[2Jnmap' is not printable")]:
        path.write_text(f"presented_at,pid,label,context\n1,5,x,1\n{row}\n")
        with pytest.raises(ValidationError, match=f"^row 3: {re.escape(fragment)}"):
            list(read_presentations(path))


def _read_log_text(text: str) -> list[tuple[str, int]] | None:
    """The pairs ``read_presentations`` yields for a log of ``text``, or None if it
    raises ValidationError; any other exception propagates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        try:
            return list(read_presentations(path))
        except ValidationError:
            return None


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# Texts int() or float() reads as n.  A run writes n only as str(n), drawn half the time,
# and each other column as a run writes it half the time too.
_SPELLING = st.just(str) | st.sampled_from((
    "+{}".format, " {}".format, "0{}".format, "{}.0".format, "{}e0".format,
    lambda n: "_".join(str(n)), lambda n: str(n).translate(_ARABIC_INDIC)))
_NUMBER = st.tuples(st.integers(-3, 10**6), _SPELLING).map(lambda drawn: (drawn[0], drawn[1](drawn[0])))
_LABEL = (st.sampled_from(["nmap", "fire fox", 'a,"b"'])
          | st.text(st.characters(codec="utf-8", exclude_characters="\0")))
_CONTEXT = st.sampled_from(["0", "1"]) | st.sampled_from(["01", "+1", " 1", "2", "\u0661", "1.0"])
_LOG_ROW = st.tuples(_NUMBER, _NUMBER, _LABEL, _CONTEXT)


@settings(deadline=None, max_examples=200)
@given(text=st.text() | st.text().map(lambda tail: ",".join(LOG_HEADER) + "\n" + tail),
       rows=st.lists(_LOG_ROW, max_size=6))
def test_log_reader_reads_only_rows_a_run_writes(text, rows):
    pairs = _read_log_text(text)
    assert pairs is None or all(type(label) is str and context in (0, 1) for label, context in pairs)
    # The reader takes a row only as a run writes it, csv quoting included.
    lines = io.StringIO()
    writer = csv.writer(lines)
    writer.writerow(LOG_HEADER)
    writer.writerows([t, pid, label, context] for (_, t), (_, pid), label, context in rows)
    written = all(t == str(n) and n >= 0 and pid == str(p) and p > 0 and label.isprintable()
                  and context in ("0", "1") for (n, t), (p, pid), label, context in rows)
    expected = [(label, int(context)) for _, _, label, context in rows] if written else None
    assert _read_log_text(lines.getvalue()) == expected


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 86_400), st.integers(1, 2**31),
                          st.text(st.characters(exclude_categories=("C", "Z"), include_characters=" ")),
                          st.integers(0, 1)), max_size=20))
def test_every_written_log_row_reads_back_as_its_pair(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.csv")
        with open_table(path, LOG_HEADER) as write:
            for second, pid, label, context in rows:
                write_presentations([(ProcessEvent(second, pid, label, "syscall"), context)],
                                    second, write)
        assert list(read_presentations(path)) == [(label, context) for _, _, label, context in rows]


def test_mcav_csv_layout(tmp_path):
    windows = compute_mcav_windows(_example_records(), AnalysisConfig(window_size=10))
    path = tmp_path / "mcav.csv"
    write_mcav_csv(windows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "window,label,presentations,mature,mcav,proportion"
    assert lines[1] == "0,firefox,4,0,0.000000,0.400000"
    assert lines[2] == "0,nmap,6,6,1.000000,0.600000"
    assert len(lines) == 1 + 2 + 2 + 1
