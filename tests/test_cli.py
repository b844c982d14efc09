"""Command-line surface: commands, output formats, and exit codes."""

import csv
import gc
import io
import json
import re

import pytest

from helpers import chain_topology, run_cli
from trustpath import (
    display_round,
    fixture_topology,
    parse_topology,
    rank_paths,
    serialize_topology,
)
from trustpath import cli
from trustpath.cli import main

DEAD_END = (
    "node S\nnode a\nnode D\nsource S\ndest D\n"
    "edge S a 0.05 0.95\nedge a D 1 0\n"
)


@pytest.fixture()
def dead_end_file(tmp_path):
    path = tmp_path / "deadend.trust"
    path.write_text(DEAD_END, encoding="utf-8")
    return str(path)


def test_check_reference_path_text(demo_file, capsys):
    code, out, err = run_cli(capsys, "check", "S,3,7,11,D", "--topology", demo_file)
    assert code == 0
    assert err == ""
    hops = [line for line in out.splitlines() if line.startswith("hop ")]
    assert hops == [
        "hop 1 S→3 trust=0.51 untrust=0.05 acceptable",
        "hop 2 3→7 trust=0.53 untrust=0.40 acceptable",
        "hop 3 7→11 trust=0.70 untrust=0.26 acceptable",
        "hop 4 11→D trust=0.55 untrust=0.23 acceptable",
    ]
    assert "confidential yes" in out


def test_check_untrust_mode(demo_file, capsys):
    code, out, _ = run_cli(capsys, "check", "S,3,7,11,D", "-t", demo_file, "--mode", "untrust")
    assert code == 0
    hops = [line for line in out.splitlines() if line.startswith("hop ")]
    assert hops == [
        "hop 1 S→3 trust=0.50 untrust=0.00 acceptable",
        "hop 2 3→7 trust=0.50 untrust=0.02 acceptable",
        "hop 3 7→11 trust=0.66 untrust=0.19 acceptable",
        "hop 4 11→D trust=0.53 untrust=0.04 acceptable",
    ]


def test_check_both_modes(demo_file, capsys):
    code, out, _ = run_cli(capsys, "check", "S,3,7,11,D", "-t", demo_file, "--mode", "both")
    assert code == 0
    assert out.count("confidential yes") == 2
    assert out.count("mode trust") == 1
    assert out.count("mode untrust") == 1


def test_check_failing_path_exits_two(dead_end_file, capsys):
    code, out, _ = run_cli(capsys, "check", "S,a,D", "-t", dead_end_file)
    assert code == 2
    assert "not_acceptable" in out
    assert "confidential no" in out


def test_check_unknown_edge_is_input_error(demo_file, capsys):
    code, _, err = run_cli(capsys, "check", "S,D", "-t", demo_file)
    assert code == 1
    assert "no edge" in err


def test_check_empty_node_id_is_input_error(demo_file, capsys):
    code, out, err = run_cli(capsys, "check", "S,,D", "-t", demo_file)
    assert (code, out, err) == (1, "", "error: empty node id in path spec 'S,,D'\n")


def test_check_output_chaining_flag(demo_file, capsys):
    code, out, _ = run_cli(
        capsys, "check", "S,3,7,11,D", "-t", demo_file, "--chaining", "output", "--decimals", "4"
    )
    assert code == 0
    hops = [line for line in out.splitlines() if line.startswith("hop ")]
    assert "trust=0.3101" in hops[1]
    assert "untrust=0.2290" in hops[1]


def test_rank_text_table(demo_file, capsys):
    code, out, _ = run_cli(capsys, "rank", "-t", demo_file, "--top", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["rank", "path", "mean_trust", "mean_untrust", "class"]
    assert lines[1].split() == ["1", "S→1→7→11→D", "0.82", "0.17", "H"]
    assert lines[2].split() == ["2", "S→3→7→11→D", "0.81", "0.18", "H"]


def test_rank_csv_full_precision(demo_file, capsys):
    code, out, _ = run_cli(capsys, "rank", "-t", demo_file, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rank", "path", "mean_trust", "mean_untrust", "class"]
    _count, ranked = rank_paths(fixture_topology())
    assert len(rows) - 1 == len(ranked) == 48
    for row, entry in zip(rows[1:], ranked):
        assert int(row[0]) == entry.rank
        assert row[1] == "→".join(entry.path)
        assert float(row[2]) == entry.mean_trust
        assert float(row[3]) == entry.mean_untrust
        assert row[4] == entry.trust_class.code


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


def test_route_text(demo_file, capsys):
    code, out, _ = run_cli(capsys, "route", "-t", demo_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "route S→3→7→11→D"
    assert len([line for line in lines if line.startswith("step ")]) == 4
    assert "reached yes" in lines
    assert "mean_trust 0.81" in lines


def test_route_dead_end_exits_two(dead_end_file, capsys):
    code, out, _ = run_cli(capsys, "route", "-t", dead_end_file)
    assert code == 2
    assert "route S" in out.splitlines()[0]
    assert "reached no" in out
    assert "stuck S" in out


def test_route_json_payload(demo_file, capsys):
    code, out, _ = run_cli(capsys, "route", "-t", demo_file, "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["reached"] is True
    assert results["path"] == ["S", "3", "7", "11", "D"]
    assert results["stuck"] is None
    assert results["mean_trust"] == 0.8125
    assert [step["to"] for step in results["steps"]] == ["3", "7", "11", "D"]


def test_route_csv_denormalizes_mean(demo_file, capsys):
    code, out, _ = run_cli(capsys, "route", "-t", demo_file, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "mean_trust"
    assert len(rows) == 5
    assert {row[-1] for row in rows[1:]} == {"0.8125"}


def test_enumerate_text(demo_file, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-t", demo_file)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 48
    assert lines[0] == "1 S→1→5→8→D"
    assert lines[35] == "36 S→3→7→11→D"
    assert lines[47] == "48 S→4→7→11→D"


def test_enumerate_cap_exits_three(demo_file, capsys):
    code, out, err = run_cli(capsys, "enumerate", "-t", demo_file, "--cap", "10")
    assert code == 3
    assert out == ""
    assert "raise the cap" in err


def test_fixture_emits_reparsable_demo(capsys):
    code, out, err = run_cli(capsys, "fixture")
    assert code == 0
    assert err == ""
    assert "edge S 3 0.95 0.05" in out.splitlines()
    reparsed = parse_topology(out)
    assert reparsed == fixture_topology()


def test_fixture_pipes_into_route(capsys, monkeypatch):
    _, document, _ = run_cli(capsys, "fixture")
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, out, _ = run_cli(capsys, "route", "-t", "-")
    assert code == 0
    assert out.splitlines()[0] == "route S→3→7→11→D"


def test_stdin_closed_is_one_error_line(capsys, monkeypatch):
    # a process started with stdin closed (`trustpath route -t - <&-`) has sys.stdin None
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run_cli(capsys, "route", "-t", "-")
    assert (code, out, err) == (1, "", "error: no standard input to read\n")


def test_simulate_text(demo_file, capsys):
    code, out, _ = run_cli(capsys, "simulate", "-t", demo_file, "--packets", "25")
    assert code == 0
    lines = out.splitlines()
    assert "packets_sent 25" in lines
    assert "delivered 25" in lines
    assert "dropped 0" in lines
    assert "route S→3→7→11→D packets=25" in lines


def test_simulate_json_counts(demo_file, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "-t", demo_file, "--packets", "8", "--format", "json"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["packets_sent"] == 8
    assert results["delivered"] == 8
    assert results["route_usage"] == [{"path": ["S", "3", "7", "11", "D"], "packets": 8}]
    assert results["drop_points"] == []


def test_simulate_with_drops_still_exits_zero(dead_end_file, capsys):
    code, out, _ = run_cli(capsys, "simulate", "-t", dead_end_file, "--packets", "4")
    assert code == 0
    assert "dropped 4" in out
    assert "drop S packets=4" in out


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


def test_decimals_out_of_range_exits_one(demo_file, capsys):
    code, _, err = run_cli(capsys, "rank", "-t", demo_file, "--decimals", "13")
    assert code == 1
    assert "decimals" in err


def test_reruns_are_byte_identical(demo_file, capsys):
    for fmt in ("text", "csv", "json"):
        first = run_cli(capsys, "rank", "-t", demo_file, "--format", fmt)
        second = run_cli(capsys, "rank", "-t", demo_file, "--format", fmt)
        assert first == second


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
