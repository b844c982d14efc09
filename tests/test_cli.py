"""Command-line surface: commands, output formats, and exit codes."""

import csv
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import types
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import chain_topology, run_cli
from trustpath import (
    Topology,
    TrustPair,
    display_round,
    fixture_topology,
    generate_mesh,
    parse_topology,
    serialize_topology,
)
from trustpath import cli
from trustpath.cli import ARROW, main

# The directory a spawned interpreter imports trustpath from (PYTHONPATH).
SRC = os.path.dirname(os.path.dirname(cli.__file__))


def _trustpath(*argv: str) -> list[str]:
    """The command `python -m trustpath ARGV`, run by this interpreter."""
    return [sys.executable, "-m", "trustpath", *argv]


def _child_env(unbuffered: bool = False, **variables: str) -> dict:
    """The environment of a child that imports trustpath from SRC, its streams buffered or not."""
    env = {**os.environ, "PYTHONPATH": SRC, **variables}
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def test_check_unknown_edge_is_input_error(demo_file, capsys):
    code, _, err = run_cli(capsys, "check", "S,D", "-t", demo_file)
    assert code == 1
    assert "no edge" in err


def test_check_empty_node_id_is_input_error(demo_file, capsys):
    code, out, err = run_cli(capsys, "check", "S,,D", "-t", demo_file)
    assert (code, out, err) == (1, "", "error: empty node id in path spec 'S,,D'\n")


def test_rank_json_shape(demo_file, capsys):
    code, out, _ = run_cli(capsys, "rank", "-t", demo_file, "--format", "json", "--top", "1")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "inputs", "results"]
    assert payload["command"] == "rank"
    assert payload["inputs"]["topology"] == demo_file
    assert payload["results"]["count"] == 48
    best = payload["results"]["paths"][0]
    assert best["rank"] == 1
    assert best["path"] == ["S", "1", "7", "11", "D"]
    assert best["mean_trust"] == 0.825
    assert best["class"] == "H"


def test_rank_top_beyond_count_lists_every_path(demo_file, capsys):
    code, out, _ = run_cli(capsys, "rank", "-t", demo_file, "--top", "1000", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["count"] == 48
    assert [row["rank"] for row in results["paths"]] == list(range(1, 49))


def test_rank_rejects_bad_top(demo_file, capsys):
    code, _, err = run_cli(capsys, "rank", "-t", demo_file, "--top", "0")
    assert code == 1
    assert "--top" in err


def test_enumerate_cap_exits_three(demo_file, capsys):
    code, out, err = run_cli(capsys, "enumerate", "-t", demo_file, "--cap", "10")
    assert code == 3
    assert out == ""
    assert "raise the cap" in err


def test_enumerate_cap_one_lists_a_single_path(tmp_path, capsys):
    path = tmp_path / "one-edge.trust"
    path.write_text("node S\nnode D\nsource S\ndest D\nedge S D 0.9\n", encoding="utf-8")
    assert run_cli(capsys, "enumerate", "-t", str(path), "--cap", "1") == (0, "1 S→D\n", "")


def test_stdin_closed_is_one_error_line(capsys, monkeypatch):
    # a process started with stdin closed (`trustpath route -t - <&-`) has sys.stdin None
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run_cli(capsys, "route", "-t", "-")
    assert (code, out, err) == (1, "", "error: no standard input to read\n")


# A node id made of the byte 0xff, which is not UTF-8.
_NOT_UTF8 = b"node S\nnode \xff\nnode D\nsource S\ndest D\nedge S \xff 0.9\nedge \xff D 0.9\n"
# The same document with the UTF-8 id "\u00e9".
_ACCENTED = _NOT_UTF8.replace(b"\xff", "\u00e9".encode("utf-8"))


def _from_file_and_from_stdin(tmp_path, document: bytes, io_encoding: str, *argv: str):
    """`python -m trustpath ARGV -t FILE`, then `... -t - < FILE`, under PYTHONIOENCODING."""
    path = tmp_path / "document.trust"
    path.write_bytes(document)
    env = _child_env(PYTHONIOENCODING=io_encoding)
    runs = []
    for source in (str(path), "-"):
        with open(path, "rb") as stdin:
            command = _trustpath(*argv, "-t", source)
            runs.append(subprocess.run(command, env=env, stdin=stdin, capture_output=True))
    return runs


def test_a_document_that_is_not_utf8_is_the_same_error_from_stdin(tmp_path):
    # stdin's own decoder would let 0xff through as "\udcff" and exit 0
    runs = _from_file_and_from_stdin(tmp_path, _NOT_UTF8, "utf-8:surrogateescape", "route")
    error = b"error: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte\n"
    assert [(run.returncode, run.stdout, run.stderr) for run in runs] == [(1, b"", error)] * 2


def test_node_ids_read_the_same_whatever_the_locale(tmp_path):
    # a latin-1 stdin would read the two bytes of "\u00e9" as "\u00c3\u00a9"
    argv = ("enumerate", "--format", "json")
    runs = _from_file_and_from_stdin(tmp_path, _ACCENTED, "latin-1", *argv)
    assert [run.returncode for run in runs] == [0, 0]
    results = [json.loads(run.stdout)["results"] for run in runs]
    assert results == [{"count": 1, "paths": [{"index": 1, "path": ["S", "\u00e9", "D"]}]}] * 2


def test_line_ends_are_the_parsers_from_a_file_and_from_stdin(tmp_path):
    document = b"node S\rnode a\rnode D\rsource S\rdest D\redge S a 0.9\redge a D 1.5\r"
    runs = _from_file_and_from_stdin(tmp_path, document, "utf-8", "route")
    assert [run.returncode for run in runs] == [1, 1]
    assert all(run.stderr.startswith(b"error: line 7: ") for run in runs)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_the_topology_is_utf8_and_its_bytes_are_freed_before_the_parse(
    source, tmp_path, capsys, monkeypatch
):
    path = tmp_path / "accented.trust"
    path.write_bytes(_ACCENTED)
    # a stdin whose text layer decodes as latin-1: the bytes below it are what counts
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(_ACCENTED), encoding="latin-1"))
    held = []

    def parse(text, strict):
        caller = sys._getframe(1).f_locals.values()
        held.extend(value for value in caller if isinstance(value, (bytes, memoryview)))
        return parse_topology(text, strict=strict)

    monkeypatch.setattr(cli, "parse_topology", parse)
    code, out, err = run_cli(capsys, "route", "-t", str(path) if source == "file" else "-")
    assert (code, out.splitlines()[0], err, held) == (0, "route S\u2192\u00e9\u2192D", "", [])


@pytest.mark.skipif(sys.platform == "win32", reason="O_NONBLOCK is POSIX")
def test_a_non_blocking_stdin_is_read_to_its_end(demo_file):
    with open(demo_file, "rb") as handle:
        document = handle.read()
    env = _child_env()
    command = _trustpath("enumerate", "-t")
    whole = subprocess.run([*command, demo_file], env=env, capture_output=True)
    reader, writer = os.pipe()
    os.set_blocking(reader, False)  # a read of the empty pipe returns None, not waits
    with subprocess.Popen(
        [*command, "-"], env=env, stdin=reader, stdout=subprocess.PIPE
    ) as process:
        os.close(reader)
        with open(writer, "wb", buffering=0) as pipe:
            for part in (document[: len(document) // 2], document[len(document) // 2 :]):
                time.sleep(0.4)  # the child reads what has come so far, or nothing
                pipe.write(part)
        out, _ = process.communicate(timeout=60)
    assert (process.returncode, out.count(b"\n"), out) == (0, 48, whole.stdout)


@pytest.mark.skipif(sys.platform == "win32", reason="no pseudo-terminals")
@pytest.mark.parametrize("nonblocking", [False, True])
def test_a_terminal_stdin_ends_at_one_end_of_file_key(nonblocking, demo_file):
    import pty

    with open(demo_file, "rb") as handle:
        document = handle.read()
    primary, terminal = pty.openpty()
    os.set_blocking(terminal, not nonblocking)  # non-blocking, a read with no line returns None
    with subprocess.Popen(
        _trustpath("enumerate", "-t", "-"),
        env=_child_env(),
        stdin=terminal,
        stdout=subprocess.PIPE,
    ) as process:
        os.close(terminal)
        try:
            for part in (document[: len(document) // 2], document[len(document) // 2 :]):
                time.sleep(0.4)  # the child reads the lines that have come so far, or none
                os.write(primary, part)
            os.write(primary, b"\x04")  # Ctrl-D at a line start
            out, _ = process.communicate(timeout=60)  # a second read would wait for another
        finally:
            process.kill()
            os.close(primary)
    assert (process.returncode, out.count(b"\n")) == (0, 48)


def test_a_read_that_returns_none_is_waited_on(monkeypatch):
    # a non-blocking stream with nothing yet: the reader waits on it, not spins
    reads = iter([None, b"node S\n", None, b"node D\n", b""])
    raw = types.SimpleNamespace(read=lambda size: next(reads))
    waits = []
    monkeypatch.setattr("select.select", lambda *fds: waits.append(fds))
    assert (cli._read(raw), waits) == ("node S\nnode D\n", [([raw], [], [])] * 2)


def test_simulate_rejects_bad_packet_count(demo_file, capsys):
    code, _, err = run_cli(capsys, "simulate", "-t", demo_file, "--packets", "0")
    assert code == 1
    assert "packets" in err


def test_missing_topology_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "route")
    assert code == 1
    assert "topology" in err


def test_unreadable_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "route", "-t", "/nonexistent/nope.trust")
    assert code == 1
    assert err.startswith("error:")


def test_comment_with_a_form_feed_routes(tmp_path, capsys):
    path = tmp_path / "feed.trust"
    path.write_text(
        "node S\nnode D\nsource S\ndest D # see\x0cedge S D 0.1\nedge S D 0.9\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "route", "-t", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("route S→D\n")


def test_parse_error_reports_line_and_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.trust"
    bad.write_text("edge S D 1.5 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "route", "-t", str(bad))
    assert code == 1
    assert "line 1" in err


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    marked = tmp_path / "bom.trust"
    marked.write_text(serialize_topology(fixture_topology()), encoding="utf-8-sig")
    code, out, err = run_cli(capsys, "route", "-t", str(marked))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "route S→3→7→11→D"


def _chain_check(tmp_path, capsys, trust: float, fmt: str):
    chain = chain_topology(2000, trust)
    document = tmp_path / "chain.trust"
    document.write_text(serialize_topology(chain), encoding="utf-8")
    return run_cli(
        capsys, "check", ",".join(chain.nodes), "-t", str(document),
        "--chaining", "output", "--format", fmt,
    )


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_output_chaining_overflow_exits_one(tmp_path, capsys, fmt):
    # trust-0.0 edges grow the output about 1.5 times per hop, past the
    # largest float before hop 2,000
    code, out, err = _chain_check(tmp_path, capsys, 0.0, fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: hop ") and err.endswith("overflows the float range\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_output_chaining_huge_finite_values_render(tmp_path, capsys, fmt):
    # trust-0.3 edges reach about 1e255 by hop 2,000, still finite
    code, out, err = _chain_check(tmp_path, capsys, 0.3, fmt)
    assert (code, err) == (2, "")  # hop 1 is not acceptable
    if fmt == "text":
        last = out.splitlines()[-2].split()
        assert last[:2] == ["hop", "2000"]
        assert len(last[3].removeprefix("trust=")) == 255 + 1 + 2
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2001
        assert 1e254 < float(rows[-1][4]) < 1e256
    else:
        hops = _strict_json(out)["results"]["evaluations"][0]["hops"]
        assert 1e254 < hops[-1]["trust"] < 1e256


def test_nonstrict_flag_allows_relaxed_pairs(tmp_path, capsys):
    text = "node S\nnode D\nsource S\ndest D\nedge S D 0.9 0.3\n"
    relaxed = tmp_path / "relaxed.trust"
    relaxed.write_text(text, encoding="utf-8")
    strict_code, _, strict_err = run_cli(capsys, "route", "-t", str(relaxed))
    assert strict_code == 1
    assert "sum to 1" in strict_err
    assert "strict=False" in strict_err and "--no-strict" in strict_err
    code, out, _ = run_cli(capsys, "route", "-t", str(relaxed), "--no-strict")
    assert code == 0
    assert out.splitlines()[0] == "route S→D"


def test_usage_error_exits_one(capsys):
    code = main(["check"])  # missing the PATH argument
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("route", "--top", "3"),
        ("check", "S,3,7,11,D", "--top", "3"),
        ("enumerate", "--top", "3"),
        ("simulate", "--top", "3"),
        ("simulate", "--pack", "2"),
    ],
)
def test_options_are_not_abbreviated(argv, demo_file, capsys):
    # argparse would otherwise read --top as --topology and --pack as --packets.
    code, out, err = run_cli(capsys, argv[0], "-t", demo_file, *argv[1:])
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [f"trustpath: error: unrecognized arguments: {' '.join(argv[-2:])}"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "COMMAND" in captured.out


def test_module_process_exit_codes():
    # `python -m trustpath` runs __main__.py, which passes main()'s code to sys.exit;
    # argparse's own usage-error exit (2) must reach the shell as 1.
    def run(*argv):
        return subprocess.run(
            _trustpath(*argv),
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
        )

    bare = run()
    assert (bare.returncode, bare.stdout) == (1, "")
    assert bare.stderr.startswith("usage: trustpath")
    assert bare.stderr.endswith(
        "trustpath: error: the following arguments are required: COMMAND\n"
    )
    typo = run("route", "--decimals", "x")
    assert typo.returncode == 1
    assert typo.stderr.endswith(
        "trustpath route: error: argument --decimals: invalid int value: 'x'\n"
    )
    assert run("--help").returncode == 0


def test_command_table_and_parser_agree(capsys, monkeypatch):
    # Content, not layout: whitespace is collapsed and the width fixed, so a
    # Python version that lays help out differently still passes.
    monkeypatch.setenv("COLUMNS", "200")
    own_options = {
        "check": (r"\bPATH\b", r"--mode\b"),
        "rank": (r"--top\b",),
        "simulate": (r"--packets\b",),
    }
    assert list(cli._COMMANDS) == ["check", "rank", "route", "enumerate", "fixture", "simulate"]
    code, out, _ = run_cli(capsys, "--help")
    listing = " ".join(out.split())
    assert code == 0
    positions = [
        listing.index(f" {name} {summary}") for name, (_, summary, _) in cli._COMMANDS.items()
    ]
    assert positions == sorted(positions)
    for name, (_, _, description) in cli._COMMANDS.items():
        code, out, _ = run_cli(capsys, name, "--help")
        assert code == 0
        assert description in " ".join(out.split())
        for owner, patterns in own_options.items():
            for pattern in patterns:
                assert bool(re.search(pattern, out)) is (owner == name), (name, pattern)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(enabled, demo_file, dead_end_file, capsys, monkeypatch):
    cases = [
        (0, ["route", "-t", demo_file]),
        (1, ["route", "-t", "/nonexistent/nope.trust"]),
        (2, ["route", "-t", dead_end_file]),
        (3, ["enumerate", "-t", demo_file, "--cap", "10"]),
        (1, ["check"]),  # argparse error
        (0, ["--help"]),
    ]
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        raise RuntimeError("unexpected")

    monkeypatch.setitem(cli._COMMANDS, "fixture", (handler, *cli._COMMANDS["fixture"][1:]))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        for code, argv in cases:
            assert main(argv) == code
            assert gc.isenabled() is enabled, argv
        with pytest.raises(RuntimeError):
            main(["fixture"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    capsys.readouterr()
    assert seen == [False]  # the collector is paused while a command runs


def test_constants_flags_change_verdicts(tmp_path, capsys):
    text = "node S\nnode m\nnode D\nsource S\ndest D\nedge S m 0.5\nedge m D 0.5\n"
    marginal = tmp_path / "marginal.trust"
    marginal.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", "S,m,D", "-t", str(marginal))
    assert code == 0  # 0.51 beats the 0.50 untrust component on every hop
    code, out, _ = run_cli(capsys, "check", "S,m,D", "-t", str(marginal), "--theta-min", "0.49")
    assert code == 2  # lowering the matrix entry flips both hops
    assert "not_acceptable" in out


def test_constants_flags_are_range_checked(demo_file, capsys):
    code, _, err = run_cli(capsys, "route", "-t", demo_file, "--theta-min", "1.5")
    assert code == 1
    assert "theta_min" in err


def test_global_options_are_checked_constants_then_cap_then_decimals(demo_file, capsys):
    bad = ["--theta-min", "1.5", "--cap", "0", "--decimals", "13"]
    for expected in ("theta_min 1.5 outside [0, 1]", "cap must be >= 1, got 0", "decimals"):
        code, out, err = run_cli(capsys, "route", "-t", demo_file, *bad)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert expected in err
        bad = bad[2:]


def test_negative_zero_edge_renders_as_zero(tmp_path, capsys):
    text = "node S\nnode a\nnode D\nsource S\ndest D\nedge S a -0 0\nedge a D 1 0\n"
    path = tmp_path / "negative-zero.trust"
    path.write_text(text, encoding="utf-8")
    _, out, _ = run_cli(capsys, "route", "-t", str(path), "--no-strict")
    assert "edge_trust=0.00 " in out
    assert "-0" not in out


def test_negative_zero_constants_render_as_zero(demo_file, capsys):
    flags = ["--theta-min", "-0", "--theta-max", "-0"]
    _, out, _ = run_cli(capsys, "check", "S,3,7,11,D", "-t", demo_file, *flags)
    assert "hop 1 S→3 trust=0.00 " in out
    assert "-0" not in out
    _, out, _ = run_cli(capsys, "check", "S,3,7,11,D", "-t", demo_file, *flags, "--format", "json")
    constants = json.loads(out)["inputs"]["constants"]
    assert (constants["theta_min"], constants["theta_max"]) == (0.0, 0.0)
    assert "-0.0" not in out


def test_decimals_flag_widths(demo_file, capsys):
    _, out2, _ = run_cli(capsys, "rank", "-t", demo_file, "--top", "1", "--decimals", "2")
    _, out3, _ = run_cli(capsys, "rank", "-t", demo_file, "--top", "1", "--decimals", "3")
    _, out6, _ = run_cli(capsys, "rank", "-t", demo_file, "--top", "1", "--decimals", "6")
    assert "0.82" in out2 and "0.825" not in out2
    assert "0.825" in out3
    assert "0.825000" in out6
    # the two ends of the range, through main
    _, out0, _ = run_cli(capsys, "route", "-t", demo_file, "--decimals", "0")
    _, out12, _ = run_cli(capsys, "route", "-t", demo_file, "--decimals", "12")
    assert "\nmean_trust 0\n" in out0
    assert " edge_trust=0.950000000000 " in out12


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_decimals_out_of_range_exits_one(command, fmt, demo_file, capsys):
    # main refuses it before any command runs, whether or not the format rounds
    argv = [*_INVOCATIONS[command], "-t", demo_file, "--format", fmt, "--decimals", "13"]
    assert run_cli(capsys, *argv) == (1, "", "error: decimals must be in [0, 12], got 13\n")


def test_formats_agree_on_values(demo_file, capsys):
    _, text_out, _ = run_cli(capsys, "check", "S,3,7,11,D", "-t", demo_file)
    _, csv_out, _ = run_cli(capsys, "check", "S,3,7,11,D", "-t", demo_file, "--format", "csv")
    _, json_out, _ = run_cli(capsys, "check", "S,3,7,11,D", "-t", demo_file, "--format", "json")
    csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    json_hops = json.loads(json_out)["results"]["evaluations"][0]["hops"]
    text_hops = [line for line in text_out.splitlines() if line.startswith("hop ")]
    for row, hop, line in zip(csv_rows, json_hops, text_hops):
        assert float(row[4]) == hop["trust"]
        assert float(row[5]) == hop["untrust"]
        assert f"trust={display_round(hop['trust'], 2)}" in line
        assert f"untrust={display_round(hop['untrust'], 2)}" in line


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as under `trustpath ... | head -c 10`."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", ["rank", "enumerate"])
def test_closed_stdout_is_one_error_line(command, fmt, demo_file, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = main([command, "-t", demo_file, "--format", fmt])
    assert (code, capsys.readouterr().err) == (1, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv", [["--help"], ["route", "--help"]])
def test_help_to_a_closed_stdout_is_one_error_line(argv, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert (main(argv), capsys.readouterr().err) == (1, "error: [Errno 32] Broken pipe\n")


def test_help_and_usage_errors_to_a_closed_stream_write_nothing(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", None)  # as under `trustpath --help >&-`
    assert main(["--help"]) == 0
    monkeypatch.setattr("sys.stderr", None)  # as under `trustpath route --bogus 2>&-`
    assert main(["route", "--bogus"]) == 1
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


# One valid invocation of each command on the demo file.
_INVOCATIONS = {
    "check": ["check", "S,3,7,11,D"],
    "rank": ["rank"],
    "route": ["route"],
    "enumerate": ["enumerate"],
    "fixture": ["fixture"],
    "simulate": ["simulate", "--packets", "5"],
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_closed_stdout_writes_nothing_and_keeps_the_exit_code(
    command, fmt, demo_file, capsys, monkeypatch
):
    argv = [*_INVOCATIONS[command], "-t", demo_file, "--format", fmt]
    code = main(argv)
    assert capsys.readouterr().err == ""
    monkeypatch.setattr("sys.stdout", None)  # as under `trustpath ... >&-`
    assert main(argv) == code
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


class _FullDevice(io.StringIO):
    """A stream whose device is full, as stderr under `2>/dev/full`."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("stderr", [None, _FullDevice()], ids=["closed", "full"])
@pytest.mark.parametrize(
    ("argv", "code"), [(["enumerate", "--cap", "3"], 3), (["route", "--decimals", "13"], 1)]
)
def test_an_error_line_that_cannot_be_written_keeps_the_exit_code(
    argv, code, stderr, demo_file, capsys, monkeypatch
):
    monkeypatch.setattr("sys.stderr", stderr)  # None as under `trustpath ... 2>&-`
    assert main([*argv, "-t", demo_file]) == code
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


class _WriteLog:
    """A stdout that keeps each write call's text, in order."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_document_reaches_stdout_in_one_write(command, fmt, demo_file, monkeypatch):
    log = _WriteLog()
    monkeypatch.setattr("sys.stdout", log)
    both = ["--mode", "both"] if command == "check" else []
    assert main([*_INVOCATIONS[command], *both, "-t", demo_file, "--format", fmt]) == 0
    document, *rest = [text for text in log.writes if text]
    assert rest == []
    assert "\n" in document.rstrip("\n")  # several lines, all in that one write


def test_text_written_before_main_comes_out_first(demo_file, capsys, monkeypatch):
    main(["route", "-t", demo_file])
    document = capsys.readouterr().out
    written = io.BytesIO()
    stdout = io.TextIOWrapper(io.BufferedWriter(written), encoding="utf-8")
    monkeypatch.setattr("sys.stdout", stdout)
    stdout.write("a caller's line\n")  # still in stdout's buffer when main starts
    assert main(["route", "-t", demo_file]) == 0
    stdout.flush()
    assert written.getvalue().decode("utf-8") == "a caller's line\n" + document


class _ShortPipe(io.RawIOBase):
    """A pipe whose reader takes 10 bytes of the first write and goes away.

    Later writes raise BrokenPipeError, or return None as a non-blocking
    pipe that would block does. An empty write returns 0, as on a Linux pipe.
    It has no file descriptor, so waiting on it after a None fails: select
    raises io.UnsupportedOperation, an OSError, and that is one error line.
    """

    def __init__(self, blocks):
        self.taken, self.blocks = b"", blocks

    def writable(self):
        return True

    def write(self, data):
        if not data:
            return 0
        if self.taken:
            if self.blocks:
                return None
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        self.taken = bytes(data[:10])
        return len(self.taken)


def _assert_a_short_write_is_one_error_line(argv, blocks, capsys, monkeypatch):
    main(argv)
    document = capsys.readouterr().out.encode("utf-8")
    pipe = _ShortPipe(blocks)
    # stdout as under `python -u`: a text layer straight over the raw pipe
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(pipe, encoding="utf-8", write_through=True))
    code = main(argv)
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert (code, err.count("\n"), err[:7], err[-1:]) == (1, 1, "error: ", "\n")
    assert pipe.taken == document[:10]


@pytest.mark.parametrize("blocks", [False, True])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_short_write_is_one_error_line(command, fmt, blocks, demo_file, capsys, monkeypatch):
    argv = [*_INVOCATIONS[command], "-t", demo_file, "--format", fmt]
    _assert_a_short_write_is_one_error_line(argv, blocks, capsys, monkeypatch)


@pytest.mark.parametrize("blocks", [False, True])
@pytest.mark.parametrize("argv", [["--help"], ["route", "--help"]])
def test_help_cut_short_is_one_error_line(argv, blocks, capsys, monkeypatch):
    _assert_a_short_write_is_one_error_line(argv, blocks, capsys, monkeypatch)


def _enumerate_into_a_pipe(tmp_path, unbuffered: bool, nonblocking: bool):
    """`enumerate` on a 10^4-path mesh, its stdout a pipe; the process and the read end.

    About 300 KB of text: more than a pipe holds, so the writer is still writing.
    """
    mesh = tmp_path / "mesh.trust"
    mesh.write_text(serialize_topology(generate_mesh((10,) * 4)), encoding="utf-8")
    reader, writer = os.pipe()
    if nonblocking:  # a write to the full pipe returns None, not waits
        os.set_blocking(writer, False)
    process = subprocess.Popen(
        _trustpath("enumerate", "-t", str(mesh)),
        env=_child_env(unbuffered),
        stdin=subprocess.DEVNULL,
        stdout=writer,
        stderr=subprocess.PIPE,
    )
    os.close(writer)
    return process, open(reader, "rb")


_NON_BLOCKING = pytest.param(
    True, marks=pytest.mark.skipif(sys.platform == "win32", reason="O_NONBLOCK is POSIX")
)


@pytest.mark.parametrize("nonblocking", [False, _NON_BLOCKING])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_goes_away_ends_the_process_with_one_error_line(
    unbuffered, nonblocking, tmp_path
):
    process, stdout = _enumerate_into_a_pipe(tmp_path, unbuffered, nonblocking)
    with process, stdout:
        assert stdout.read(10) == "1 S→1→".encode("utf-8")
        stdout.close()  # as `head -c 10` does
        _, err = process.communicate(timeout=60)
    assert (process.returncode, err) == (1, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(sys.platform == "win32", reason="O_NONBLOCK is POSIX")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_non_blocking_stdout_that_would_block_is_waited_on(unbuffered, tmp_path):
    process, stdout = _enumerate_into_a_pipe(tmp_path, unbuffered, nonblocking=True)
    with process, stdout:
        time.sleep(1)  # a slow reader: the pipe fills, and the next write would block
        out = stdout.read()
        _, err = process.communicate(timeout=60)
    assert (process.returncode, out.count(b"\n"), err) == (0, 10_000, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    ("argv", "full", "code"),
    [
        (["enumerate", "--cap", "3"], "stderr", 3),
        (["route", "--decimals", "13"], "stderr", 1),
        (["enumerate"], "stdout", 1),
        (["enumerate"], "both", 1),
        (["--help"], "stdout", 1),
        (["route", "--bogus"], "stderr", 1),
        (["enumerate", "--cap", "3"], "closed", 3),
    ],
)
def test_a_full_device_keeps_the_exit_code(argv, full, code, unbuffered, demo_file):
    # Buffered, a byte left in a stream's buffer made the exit-time flush fail: exit 120.
    # "closed" is stderr's fd 2 closed, as under `2>&-`: sys.stderr is None in the child.
    command = _trustpath(*argv, "-t", demo_file)
    with open("/dev/full", "wb") as device:
        run = subprocess.run(
            ["sh", "-c", 'exec "$0" "$@" 2>&-', *command] if full == "closed" else command,
            env=_child_env(unbuffered),
            stdin=subprocess.DEVNULL,
            stdout=device if full in ("stdout", "both") else subprocess.PIPE,
            stderr=subprocess.PIPE if full == "stdout" else device,
        )
    error = b"error: [Errno 28] No space left on device\n" if full == "stdout" else None
    assert (run.returncode, run.stdout or None, run.stderr) == (code, None, error)


def test_an_unencodable_document_is_one_error_line(demo_file):
    routed = subprocess.run(
        _trustpath("route", "-t", demo_file),
        env=_child_env(PYTHONIOENCODING="ascii"),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
    )
    assert (routed.returncode, routed.stdout, routed.stderr) == (
        1,
        "",
        "error: 'ascii' codec can't encode character '\\u2192' in position 7: "
        "ordinal not in range(128)\n",
    )


def _cap_graph(inner: int) -> Topology:
    """S→D, S→each inner node, and the inner nodes as a complete digraph: one path.

    The inner nodes come before D in declaration order, so the search walks every
    trail through them, none of which reaches D, before it takes S→D.
    """
    ids = [str(number) for number in range(1, inner + 1)]
    edges = [("S", "D"), *(("S", dst) for dst in ids)]
    edges += [(src, dst) for src in ids for dst in ids if src != dst]
    return Topology(["S", *ids, "D"], dict.fromkeys(edges, TrustPair(0.5, 0.5)), "S", "D")


# The inputs of the budget table: the demo, a mesh with 10^7 paths (ten times the
# default --cap) and the graph above at 20 inner nodes.
_BUDGET_INPUTS = {
    "fixture": fixture_topology,
    "mesh": lambda: generate_mesh((10,) * 7),
    "cap-graph": lambda: _cap_graph(20),
}
_BIG = str(10**20)


def _known_hang(reason: str):
    return pytest.mark.xfail(raises=subprocess.TimeoutExpired, strict=True, reason=reason)


# Arguments that only look big: (argv, input, exit code, wall-clock budget in seconds).
# Each command must end with its code within the budget. On a 2-vCPU host a fixture row
# takes about 0.1 s and a mesh row about 1 s. A known hang waits out its 1 s budget.
_BUDGETS = [
    (["rank", "--top", _BIG], "fixture", 0, 5),
    (["rank", "--cap", _BIG], "fixture", 0, 5),
    (["enumerate", "--cap", _BIG], "fixture", 0, 5),
    (["route", "--theta-min", "1e308"], "fixture", 1, 5),
    (["route", "--decimals", _BIG], "fixture", 1, 5),
    (["check", "S,3,7,11,D", "--chaining", "output", "--theta-max", "1e-320"], "fixture", 2, 5),
    (["simulate", "--packets", f"-{_BIG}"], "fixture", 1, 5),
    (["rank", "--top", f"-{_BIG}"], "fixture", 1, 5),
    (["enumerate", "--cap", f"-{_BIG}"], "fixture", 1, 5),
    (["enumerate"], "mesh", 3, 10),
    (["rank", "--top", "5"], "mesh", 3, 10),
    pytest.param(
        ["simulate", "--packets", _BIG], "fixture", 0, 1,
        marks=_known_hang("ROADMAP item 2: simulate walks the route once per packet"),
    ),
    pytest.param(
        ["enumerate", "--cap", "10"], "cap-graph", 0, 1,
        marks=_known_hang("ROADMAP item 11: --cap bounds the paths found, not the search"),
    ),
]


@pytest.mark.parametrize(
    ("argv", "source", "code", "budget"),
    _BUDGETS,
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_an_argument_that_only_looks_big_ends_within_its_budget(
    argv, source, code, budget, tmp_path
):
    document = tmp_path / f"{source}.trust"
    document.write_text(serialize_topology(_BUDGET_INPUTS[source]()), encoding="utf-8")
    run = subprocess.run(
        _trustpath(*argv, "-t", str(document)),
        env=_child_env(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=budget,
    )
    if code in (0, 2):
        assert (run.returncode, run.stderr) == (code, b"")
    else:  # one error line
        assert (run.returncode, run.stderr[:7], run.stderr.count(b"\n")) == (code, b"error: ", 1)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_formats_format_only_what_they_write(command, fmt, demo_file, capsys, monkeypatch):
    # Text rounds each score it shows: route 4 steps x 3 scores and the mean, check
    # 2 modes x 4 hops x 2 scores, rank 48 paths x 2 means. CSV and JSON round none.
    calls = []

    def counted(value, decimals):
        calls.append(value)
        return display_round(value, decimals)

    monkeypatch.setattr(cli, "display_round", counted)
    both = ["--mode", "both"] if command == "check" else []
    main([*_INVOCATIONS[command], *both, "-t", demo_file, "--format", fmt])
    expected = {"route": 13, "check": 16, "rank": 96} if fmt == "text" else {}
    assert len(calls) == expected.get(command, 0)


# Node ids that a CSV cell must quote ('"') or that are not ASCII.
_QUOTED_IDS = (
    "node S\nnode \"q\nnode x'y\nnode é\nnode D\nsource S\ndest D\n"
    "edge S \"q 0.9 0.1\nedge \"q x'y 0.8 0.2\nedge x'y é 0.9 0.1\n"
    "edge é D 0.9 0.1\nedge S é 0.6 0.4\n"
)


def _arrows(sequences):
    return [ARROW.join(sequence) for sequence in sequences]


# Each command's arguments, and the ids and paths it writes, arrow-joined, as read
# from its CSV rows (header dropped) and from its JSON results.
_ID_READERS = {
    "check": (
        ["check", "S,\"q,x'y,é,D"],
        lambda rows: _arrows(row[2:4] for row in rows),
        lambda results: _arrows(
            (hop["from"], hop["to"]) for hop in results["evaluations"][0]["hops"]
        ),
    ),
    "rank": (
        ["rank"],
        lambda rows: [row[1] for row in rows],
        lambda results: _arrows(record["path"] for record in results["paths"]),
    ),
    "route": (
        ["route"],
        lambda rows: _arrows(row[1:3] for row in rows),
        lambda results: _arrows((step["from"], step["to"]) for step in results["steps"]),
    ),
    "enumerate": (
        ["enumerate"],
        lambda rows: [row[1] for row in rows],
        lambda results: _arrows(record["path"] for record in results["paths"]),
    ),
    "simulate": (
        ["simulate", "--packets", "5"],
        lambda rows: [row[1] for row in rows if row[0] == "route"],
        lambda results: _arrows(use["path"] for use in results["route_usage"]),
    ),
}


@pytest.mark.parametrize("command", list(_ID_READERS))
def test_ids_that_csv_quotes_read_back_unchanged(command, tmp_path, capsys):
    document = tmp_path / "quoted.trust"
    document.write_text(_QUOTED_IDS, encoding="utf-8")
    argv, from_csv, from_json = _ID_READERS[command]
    outputs = {
        fmt: run_cli(capsys, *argv, "-t", str(document), "--format", fmt)
        for fmt in ("text", "csv", "json")
    }
    assert {code for code, _, _ in outputs.values()} == {0}
    text, csv_out, json_out = (out for _, out, _ in outputs.values())
    assert '""q' in csv_out  # the cell is quoted and its '"' doubled
    named = from_json(json.loads(json_out)["results"])
    assert {node for ids in named for node in ids.split(ARROW)} >= {'"q', "x'y", "é"}
    assert from_csv(list(csv.reader(io.StringIO(csv_out)))[1:]) == named
    assert all(ids in text for ids in named)


def _start_up_imports(*names: str) -> list[str]:
    """Which of names `import trustpath.cli` adds to a fresh interpreter started without site."""
    script = (
        "import sys; before = set(sys.modules); import trustpath.cli; "
        f"print(*sorted(set({names!r}) & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.split()


def test_start_up_imports_neither_decimal_nor_csv():
    # Each serves one branch (display_round's exponent form, CSV output), which imports it.
    assert _start_up_imports("decimal", "csv") == []


def test_start_up_imports_neither_dataclasses_nor_json():
    # dataclasses brings inspect, and with it ast, dis and tokenize; only a misused
    # TrustPair needs it. json serves JSON output alone, which imports it.
    assert _start_up_imports("dataclasses", "inspect", "ast", "dis", "tokenize", "json") == []


# Quotes, backslashes, control characters, non-ASCII text and lone surrogates.
_JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f→'),
        st.characters(categories=["Cs"]),
        st.characters(),
    )
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 5e-324, 1e255)),
    _JSON_TEXT,
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_JSON_TEXT, max_size=4).map(tuple),  # a node sequence
        st.dictionaries(_JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(document=_JSON_DOCUMENTS)
@example(document=[])
@example(document=())
@example(document={})
@example(document={"a": [], "b": {}})
def test_json_writer_matches_json_dumps(document):
    assert cli._json(document) == json.dumps(document, indent=2, allow_nan=False)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite_floats(value):
    for document in (value, [value], {"paths": [{"path": ("S", "D"), "mean": value}]}):
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            cli._json(document)


class _Level(IntEnum):
    ONE = 1


@pytest.mark.parametrize("value", [_Level.ONE, {1, 2}, object()])
def test_json_writer_refuses_other_types(value):
    for document in (value, ["S", value], {"results": value}):
        with pytest.raises(TypeError, match="is not JSON serializable$"):
            cli._json(document)
