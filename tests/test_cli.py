import dataclasses
import hashlib
import json
import math
import random
import re

import pytest

from arcsupport import (MOUNTAIN, VALLEY, build_arc, build_profile,
                        find_pair, melkman_hull, render_pair_svg)
from arcsupport.cli import main
from arcsupport.render import HEIGHT, MARGIN, WIDTH
from families import FALLBACK_VERTICES, convex_arc, walk_arc

PI = math.pi


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1]]}))
    return str(path)


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [3, 0], [3, 1], [2, 1]]}))
    return str(path)


def test_analyze_text(e1_file, capsys):
    assert main(["analyze", e1_file]) == 0
    out = capsys.readouterr().out
    assert "3 vertices" in out
    assert "2.35619449" in out  # both extreme step widths are 3*pi/4


def test_analyze_json(e2_file, capsys):
    assert main(["analyze", e2_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["levels"] == [0.0, 3.0, 4.0, 5.0]
    assert doc["apex_step_width"] == pytest.approx(math.atan(0.5))
    assert len(doc["jumps"]) == 4


PINNED_ARCS = {
    "e1": [[0, 0], [1, 0], [1, 1]],
    "e2": [[0, 0], [3, 0], [3, 1], [2, 1]],
    "fallback": FALLBACK_VERTICES,
}
PINNED_COMMANDS = {
    "analyze": [],
    "analyze --json": ["--json"],
    "find-pair": ["--mode", "both", "--delta", "3.141592653589793"],
}
# sha256 of each command's stdout: a change that keeps behaviour keeps
# every byte of it
CLI_DIGESTS = {
    ("e1", "analyze"):
        "876bdba557200c0cf52e3201593fd7e897139c4e7ff556e9ace29a2966c99e6d",
    ("e1", "analyze --json"):
        "f3b8c006ac36649d2b864fbebb022a0fd17613a5f4f2f4892768b325794e7664",
    ("e1", "find-pair"):
        "35fb5ab356e112013e4ac25fc717ec1242e28f64ec5f1b93d59de0ad87504a72",
    ("e2", "analyze"):
        "48b24c1d1980034315fd9dd752ea74a9ca63e4793b3a60dac41c75ce7dcb7c52",
    ("e2", "analyze --json"):
        "6e54a6b72e9573db2c1482f0683c14d997bf011488d9e24d8fcdd7b702d0f0a9",
    ("e2", "find-pair"):
        "203eea9a77477e5b6d413079cb6c6a95c42a0fdbe288cbccf44dc78504d63dbc",
    ("fallback", "analyze"):
        "4db0680cd2edf0ada5e11bc61637dadbeabbbf2761ba53c3a73d97b76075199b",
    ("fallback", "analyze --json"):
        "d0e5d52166f49849367ffb0b455c75323919b4727c7b3170b5e34b2e20323ef3",
    ("fallback", "find-pair"):
        "786f462ac48b974003814876cc35e68ef6e05298b6de6cf838e414448b63045f",
}


@pytest.mark.parametrize("arc", sorted(PINNED_ARCS))
def test_cli_output_is_byte_identical(arc, tmp_path, capsys):
    path = tmp_path / "arc.json"
    path.write_text(json.dumps({"vertices": PINNED_ARCS[arc]}))
    for command, args in PINNED_COMMANDS.items():
        assert main([command.split()[0], str(path), *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            CLI_DIGESTS[arc, command]), command


# sha256 of the SVG that render writes for each pinned arc at delta pi
RENDER_DIGESTS = {
    "e1": "705491a35a5b5bd047556b19cf663a1e18eb176182d1042c39f23d2f77ea7b15",
    "e2": "738b38dad0062f7295d045c84b092bb9f0bccab4681634eec0b8070927fdf2e1",
    "fallback":
        "9c1ef3f44a62cead226487cb4889247daf9ba6e56decff97e22a26dd9cf213a1",
}


@pytest.mark.parametrize("arc", sorted(PINNED_ARCS))
def test_render_output_is_byte_identical(arc, tmp_path, capsys):
    path = tmp_path / "arc.json"
    path.write_text(json.dumps({"vertices": PINNED_ARCS[arc]}))
    out = tmp_path / "pair.svg"
    assert main(["render", str(path), "--delta", repr(PI),
                 "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        RENDER_DIGESTS[arc])


def fstring_points(arc, hull):
    """The points attributes of the hull polygon and the arc polyline,
    formatted as render once did: one f-string per point, so a convex
    vertex was formatted twice."""
    xs, ys = arc.xs, arc.ys
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    scale = min((WIDTH - 2 * MARGIN) / (max_x - min_x),
                (HEIGHT - 2 * MARGIN) / (max_y - min_y))
    hull_pts = " ".join(
        f"{MARGIN + (xs[i] - min_x) * scale:.3f},"
        f"{HEIGHT - (MARGIN + (ys[i] - min_y) * scale):.3f}"
        for i in hull.corners)
    arc_pts = " ".join(
        f"{MARGIN + (x - min_x) * scale:.3f},"
        f"{HEIGHT - (MARGIN + (y - min_y) * scale):.3f}"
        for x, y in zip(xs, ys))
    return hull_pts, arc_pts


def test_render_points_match_the_fstring_reference(fuzz_pool):
    arcs = [arc for arc, _ in fuzz_pool]
    rng = random.Random(400)
    arcs += [build_arc(make(400, rng)) for make in (convex_arc, walk_arc)]
    shape = re.compile(r'<(polygon|polyline) points="([^"]*)"')
    for arc in arcs:
        hull = melkman_hull(arc)
        profile = build_profile(hull)
        want = fstring_points(arc, hull)
        for mode in (MOUNTAIN, VALLEY):
            for delta in (1.0, PI, 5.0):
                pair = find_pair(profile, delta, mode)
                svg = render_pair_svg(arc, hull, pair)
                # a profile is a hull: drawn from it, the figure is the same
                assert render_pair_svg(arc, profile, pair) == svg
                got = shape.findall(svg)
                assert [tag for tag, _ in got] == ["polygon", "polyline"]
                assert tuple(pts for _, pts in got) == want


# the whole stderr of analyze on an arc each check refuses: the messages
# that name a vertex print it as a Point2
REFUSALS = {
    "duplicate_vertex": (
        b'{"vertices": [[0, 0], [1, 0], [1, 0], [1, 1]]}',
        "DuplicateVertex: consecutive vertices coincide near "
        "Point2(x=1.0, y=0.0)"),
    "back_tracking": (
        b'{"vertices": [[0, 0], [2, 0], [1, 0], [1, 1]]}',
        "SelfIntersecting: back-tracking at vertex Point2(x=2.0, y=0.0)"),
    "crossing": (
        b'{"vertices": [[0, 0], [2, 0], [1, 1], [1, -1]]}',
        "SelfIntersecting: segments 0 and 2 intersect"),
    "nan_vertex": (
        b'{"vertices": [[0, 0], [1, 0], [NaN, 1]]}',
        "ArcError: non-finite vertex Point2(x=nan, y=1.0)"),
    "infinite_vertex": (
        b'{"vertices": [[0, 0], [1, 0], [1, -Infinity]]}',
        "ArcError: non-finite vertex Point2(x=1.0, y=-inf)"),
    "exterior_angle": (
        b'{"vertices": [[0, 0], [1, 1e-10], [2, 0]]}',
        "StraightArc: degenerate exterior angle 2.000000165480742e-10 "
        "at corner Point2(x=1.0, y=1e-10)"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_message_is_byte_identical(case, tmp_path, capsys):
    contents, line = REFUSALS[case]
    path = tmp_path / "arc.json"
    path.write_bytes(contents)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_analyze_straight_arc_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [2, 0]]}))
    assert main(["analyze", str(path)]) == 2
    assert "StraightArc" in capsys.readouterr().err


def test_analyze_self_intersecting_exits_2(tmp_path, capsys):
    path = tmp_path / "cross.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [1, 1], [1, -1]]}))
    assert main(["analyze", str(path)]) == 2
    assert "SelfIntersecting" in capsys.readouterr().err


@pytest.mark.parametrize("first", [["a", 1], [1]])
def test_malformed_vertex_exits_2(first, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [first, [1, 0], [1, 1]]}))
    assert main(["analyze", str(path)]) == 2
    assert "vertices" in capsys.readouterr().err


MALFORMED = {
    "missing_key": b'{"points": [[0, 0], [1, 0], [1, 1]]}',
    "vertices_number": b'{"vertices": 5}',
    "vertices_string": b'{"vertices": "abc"}',
    "vertices_null": b'{"vertices": null}',
    "nested_vertex": b'{"vertices": [[[0, 0]], [1, 0], [1, 1]]}',
    "nan": b'{"vertices": [[NaN, 0], [1, 0], [1, 1]]}',
    "infinity": b'{"vertices": [[0, 0], [1, 0], [1, Infinity]]}',
    "string_coordinate": b'{"vertices": [["0", "0"], [1, 0], [1, 1]]}',
    "bool_coordinate": b'{"vertices": [[0, 0], [1, 0], [true, 1]]}',
    "extra_coordinate": b'{"vertices": [[0, 0, 9], [1, 0], [1, 1]]}',
    "single_vertex": b'{"vertices": [[0, 0]]}',
    "top_level_list": b'[[0, 0], [1, 0], [1, 1]]',
    "float_overflow": b'{"vertices": [[0, 0], [1, 0], [1, 1' + b"0" * 400 + b']]}',
    "digit_limit": b'{"vertices": [[0, 0], [1, 0], [1, 1' + b"0" * 5000 + b']]}',
    "bad_utf8": b'{"vertices": [[0, 0], [1, 0], [1, 1]], "x": "\xff"}',
    "deep_nesting": b'[' * 100_000,
}
COMMANDS = {
    "analyze": [],
    "find-pair": ["--delta", "3.0"],
    "render": ["--delta", "3.0", "-o", "out.svg"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_input_exits_2(shape, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED[shape])
    argv = [command, str(path)] + [
        str(tmp_path / a) if a.endswith(".svg") else a
        for a in COMMANDS[command]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    assert not (tmp_path / "out.svg").exists()


E1 = [[0, 0], [1, 0], [1, 1]]
# name: (arc file contents or None, argv, exit code, start of the one
# stderr line); {arc} is the arc file, {out} a directory that exists,
# {missing} one that does not
FAILURES = {
    "unreadable_input": (None, ["analyze", "{missing}/arc.json"],
                         4, "FileNotFoundError: "),
    "bad_json": (b"{", ["analyze", "{arc}"], 2, "ArcError: bad JSON in "),
    "no_vertices": (b'{"points": []}', ["find-pair", "{arc}", "--delta", "3"],
                    2, "ArcError: expected "),
    "self_intersecting": ([[0, 0], [2, 0], [1, 1], [1, -1]],
                          ["analyze", "{arc}"], 2, "SelfIntersecting: "),
    "collinear": ([[0, 0], [1, 0], [2, 0]], ["analyze", "{arc}"],
                  2, "StraightArc: "),
    "flat_triangle": ([[0, 0], [1, 1e-10], [2, 0]], ["analyze", "{arc}"],
                      2, "StraightArc: degenerate exterior angle"),
    "segment_hull": ([[0, 0], [1e-3, 0], [2e-3, 1e-12], [1000, 0]],
                     ["analyze", "{arc}"],
                     2, "StraightArc: hull degenerates to a segment"),
    "span": ([[0, 0], [1e154, 0], [1e154, 1e154]], ["analyze", "{arc}"],
             2, "ArcError: bounding-box diagonal "),
    "find_pair_delta": (E1, ["find-pair", "{arc}", "--delta", "7"],
                        3, "InvalidDelta: "),
    "render_delta_zero": (E1, ["render", "{arc}", "--delta", "0",
                               "-o", "{out}/pair.svg"], 3, "InvalidDelta: "),
    "render_unwritable": (E1, ["render", "{arc}", "--delta", "3",
                               "-o", "{missing}/pair.svg"],
                          4, "FileNotFoundError: "),
    "fuzz_unwritable": (None, ["fuzz", "--trials", "1",
                               "-o", "{missing}/fuzz.csv"],
                        4, "FileNotFoundError: "),
    "fuzz_exhausted": (None, ["fuzz", "--trials", "1", "-o", "{out}/fuzz.csv"],
                       5, "GenerationExhausted: "),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_each_failure_exits_with_its_code_and_one_line(case, tmp_path,
                                                       monkeypatch, capsys):
    from arcsupport import cli
    from arcsupport.oracle import GenerationExhausted

    def exhausted(config, trial_index):
        raise GenerationExhausted(f"no simple arc (trial {trial_index})")

    contents, argv, code, head = FAILURES[case]
    if contents is not None:
        if not isinstance(contents, bytes):
            contents = json.dumps({"vertices": contents}).encode()
        (tmp_path / "arc.json").write_bytes(contents)
    if code == 5:
        monkeypatch.setattr(cli, "_arc_and_hull", exhausted)
    paths = {"arc": tmp_path / "arc.json", "out": tmp_path,
             "missing": tmp_path / "no" / "such"}
    assert main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(head), lines
    # nothing written: no SVG, no CSV
    assert [p.name for p in tmp_path.iterdir()] == (
        [] if contents is None else ["arc.json"])


def test_render_straight_arc_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [2, 0]]}))
    assert main(["render", str(path), "--delta", repr(PI),
                 "-o", str(tmp_path / "flat.svg")]) == 2
    assert "StraightArc" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze"], ["find-pair", "--delta", "3"]],
                         ids=["analyze", "find-pair"])
def test_profile_failure_exits_2_with_one_line(argv, tmp_path, monkeypatch,
                                               capsys):
    # build_profile's shape check is a validation failure like the
    # others: handed a hull that starts one corner late, the command
    # exits 2 with one stderr line, not a traceback
    from arcsupport import Hull, cli

    def rotated(hull):
        return build_profile(Hull(*[col[1:] + col[:1] for col in (
            hull.corners, hull.levels, hull.starts, hull.widths)]))

    monkeypatch.setattr(cli, "build_profile", rotated)
    path = tmp_path / "arc.json"
    path.write_text(json.dumps({"vertices": E1}))
    assert main([argv[0], str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "NotRiseThenFall: level sequence [1.0, 2.0, 0.0] is not "
        "rise-then-fall"]


def test_far_offset_e2(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"vertices": [
        [x + 1e12, y + 1e12] for x, y in [[0, 0], [3, 0], [3, 1], [2, 1]]]}))
    assert main(["find-pair", str(path), "--delta", repr(PI)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identical"] is True
    for mode in ("mountain", "valley"):
        assert doc[mode]["strict"] and doc[mode]["verified"]
        assert doc[mode]["s"] == pytest.approx([0.0, 3.0, 5.0])
    out_path = tmp_path / "far.svg"
    assert main(["render", str(path), "--delta", repr(PI),
                 "-o", str(out_path)]) == 0
    assert out_path.read_text().count("<circle") == 3


def test_find_pair_both(e1_file, capsys):
    assert main(["find-pair", e1_file, "--delta", repr(PI)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identical"] is True
    m = doc["mountain"]
    assert m["theta_single"] == pytest.approx(PI / 4, abs=1e-9)
    assert m["theta_double"] == pytest.approx(5 * PI / 4, abs=1e-9)
    assert m["s"] == pytest.approx([0.0, 1.0, 2.0])
    assert m["strict"] and m["verified"] and m["unique_count"] == 1


def test_find_pair_mountain_e2(e2_file, capsys):
    assert main(["find-pair", e2_file, "--delta", repr(PI),
                 "--mode", "mountain"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta_single"] == pytest.approx(0.4636476090008061, abs=1e-9)
    assert doc["theta_double"] == pytest.approx(3.6052402625905993, abs=1e-9)
    assert doc["s"] == pytest.approx([0.0, 3.0, 5.0])


def test_find_pair_degenerate_regime(e1_file, capsys):
    assert main(["find-pair", e1_file, "--delta", repr(11 * PI / 8),
                 "--mode", "mountain"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["strict"] is False
    assert doc["unique_count"] == 0


def test_find_pair_bad_delta_exits_3(e1_file, capsys):
    assert main(["find-pair", e1_file, "--delta", "7.0"]) == 3
    assert "InvalidDelta" in capsys.readouterr().err


def test_find_pair_degrees(e1_file, capsys):
    assert main(["find-pair", e1_file, "--delta", "180", "--degrees",
                 "--mode", "mountain"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta_single"] == pytest.approx(45.0, abs=1e-6)
    assert doc["theta_double"] == pytest.approx(225.0, abs=1e-6)


def test_find_pair_angles_have_full_precision(e2_file, capsys):
    main(["find-pair", e2_file, "--delta", repr(PI), "--mode", "mountain"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    # round-trips: printed angles re-parse to at least 12 significant digits
    assert abs(doc["theta_double"] - (PI + math.atan(0.5))) < 1e-12


def test_render_e1(e1_file, tmp_path, capsys):
    out_path = tmp_path / "pair.svg"
    assert main(["render", e1_file, "--delta", repr(PI),
                 "-o", str(out_path)]) == 0
    svg = out_path.read_text()
    lines = re.findall(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"',
                       svg)
    assert len(lines) == 2
    for x1, y1, x2, y2 in lines:
        slope = (float(y2) - float(y1)) / (float(x2) - float(x1))
        assert abs(slope) == pytest.approx(math.tan(PI / 4), abs=1e-6)
    assert svg.count("<circle") == 3


def test_render_e2_touch_points(e2_file, tmp_path):
    out_path = tmp_path / "pair2.svg"
    assert main(["render", e2_file, "--delta", repr(PI),
                 "-o", str(out_path)]) == 0
    assert "<svg" in out_path.read_text()


def test_render_missing_dir_exits_4(e1_file, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.svg"
    assert main(["render", e1_file, "--delta", repr(PI),
                 "-o", str(missing)]) == 4


def test_missing_input_exits_4(tmp_path):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 4


def test_fuzz_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["fuzz", "--trials", "25", "--seed", "42",
                 "-o", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["fuzz", "--trials", "25", "--seed", "42",
                 "-o", str(out2)]) == 0
    second = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert first == second
    assert "strict existence rate : 25/25" in first


def test_fuzz_nonpositive_trials_exits_2(capsys):
    # rejected by argparse, like a count that is not a number
    for trials in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--trials", trials])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--trials" in err
        assert "Traceback" not in err


def test_fuzz_generation_exhausted_exits_5(monkeypatch, tmp_path, capsys):
    from arcsupport import cli
    from arcsupport.oracle import GenerationExhausted

    def exhausted(config, trial_index):
        raise GenerationExhausted(f"no simple arc (trial {trial_index})")

    monkeypatch.setattr(cli, "_arc_and_hull", exhausted)
    out = tmp_path / "fuzz.csv"
    assert main(["fuzz", "--trials", "3", "-o", str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.err == "GenerationExhausted: no simple arc (trial 0)\n"
    assert captured.out == ""
    assert not out.exists()


def test_fuzz_missing_output_dir_exits_4_before_the_campaign(
        monkeypatch, tmp_path, capsys):
    from arcsupport import cli

    def never(config, trial_index):
        raise AssertionError(f"sampler called for trial {trial_index}")

    monkeypatch.setattr(cli, "_arc_and_hull", never)
    out = tmp_path / "no" / "such" / "x.csv"
    assert main(["fuzz", "--trials", "2000", "-o", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("FileNotFoundError: [Errno 2] No such file or "
                            f"directory: {str(out)!r}\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
    # an existing directory: the error open() would raise, and nothing
    # written into it
    out = tmp_path / "d"
    out.mkdir()
    assert main(["fuzz", "--trials", "300", "-o", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("IsADirectoryError: [Errno 21] Is a directory: "
                            f"{str(out)!r}\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


def test_fuzz_full_range_never_crashes(tmp_path, capsys):
    out = tmp_path / "full.csv"
    assert main(["fuzz", "--trials", "40", "--seed", "7",
                 "--policy", "full_range", "-o", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "trial,n,delta,mode,strict,unique_count,verified,near_tie"
    assert len(text) == 41


@pytest.mark.parametrize("seed", [7, 42, 8001])
def test_full_range_fuzz_reports_no_anomaly(seed):
    # guaranteed holds exactly inside the safe range, and every scan
    # there is strict, so a full-range campaign has nothing to flag
    from arcsupport.cli import run_fuzz
    from arcsupport.oracle import FuzzConfig
    rows, summary = run_fuzz(FuzzConfig(trials=2000, seed=seed,
                                        delta_policy="full_range"))
    assert summary["anomalies"] == []
    assert not all(r["strict"] for r in rows)  # degenerate deltas were drawn


def test_fuzz_csv_is_byte_identical():
    # a change that keeps behaviour keeps this digest: full_range rows
    # hold only RNG draws, counts and flags, so a changed decision shows
    from arcsupport.cli import fuzz_csv, run_fuzz
    from arcsupport.oracle import FuzzConfig
    rows, summary = run_fuzz(FuzzConfig(trials=300, seed=7,
                                        delta_policy="full_range"))
    assert hashlib.sha256(fuzz_csv(rows).encode()).hexdigest() == (
        "c31602f3caf3b14d7c18b3b4dd762cbd6bbc65daa0f36d30c7062982d7a624cc")
    assert summary == {"trials": 300, "strict": 160, "unique": 160,
                       "unique_total": 160, "corollary_at_pi": 300,
                       "anomalies": []}


# sha256 of the CSV of each 300-trial campaign and its summary's strict
# and unique counts; corollary_at_pi is 300 and anomalies empty in all
FUZZ_CSV_DIGESTS = {
    (7, "safe_range"): (
        "195531fb882872e0acefe56578a293190de8acb49234d30e88aeb290c176de7b",
        300, 300),
    (7, "full_range"): (
        "c31602f3caf3b14d7c18b3b4dd762cbd6bbc65daa0f36d30c7062982d7a624cc",
        160, 160),
    (42, "safe_range"): (
        "ff57463459c0bfc6b5b8c085c6c7a6cd08cbd690dca51575b37e35bf7f0ea402",
        300, 300),
    (42, "full_range"): (
        "4cd5f593b9222ca5d420c61592e12565206b408fe0c5ea0fda29ec77333a8bf9",
        144, 144),
    (8001, "safe_range"): (
        "d2e01810d615072f4958e6d25a1301e36aa49d9ff5b8dbcf5d5436a944760b14",
        300, 300),
    (8001, "full_range"): (
        "5cb7af11c2507c2c40b2edaa2d442b798f429f455d76582ef9868bc86b0c41d3",
        142, 142),
}


@pytest.mark.parametrize("seed, policy", sorted(FUZZ_CSV_DIGESTS))
def test_fuzz_csv_digests_are_pinned(seed, policy):
    from arcsupport.cli import fuzz_csv, run_fuzz
    from arcsupport.oracle import FuzzConfig
    digest, strict, unique = FUZZ_CSV_DIGESTS[seed, policy]
    rows, summary = run_fuzz(FuzzConfig(trials=300, seed=seed,
                                        delta_policy=policy))
    assert hashlib.sha256(fuzz_csv(rows).encode()).hexdigest() == digest
    assert summary == {"trials": 300, "strict": strict, "unique": unique,
                       "unique_total": unique, "corollary_at_pi": 300,
                       "anomalies": []}
    # trials are independent: no state passes from one trial to the
    # next, so a 40-trial campaign repeats the first 40 rows
    assert run_fuzz(FuzzConfig(trials=40, seed=seed,
                               delta_policy=policy))[0] == rows[:40]


def test_fuzz_records_a_failed_verification_as_an_anomaly(monkeypatch,
                                                          capsys):
    # a verifier that fails the third trial's check: the campaign must
    # name that trial, in the summary and on stdout
    from arcsupport import cli
    from arcsupport.oracle import FuzzConfig
    verify = cli.verify_triple
    calls = 0

    def failing_third(arc, pair):
        nonlocal calls
        calls += 1
        report = verify(arc, pair)
        return (dataclasses.replace(report, ordering=False) if calls == 3
                else report)

    monkeypatch.setattr(cli, "verify_triple", failing_third)
    rows, summary = cli.run_fuzz(FuzzConfig(trials=5, seed=7))
    assert summary["anomalies"] == [2]
    assert [r["verified"] for r in rows] == [True, True, False, True, True]
    calls = 0
    assert main(["fuzz", "--trials", "5", "--seed", "7"]) == 0
    assert "anomalies             : 1 at trials [2]\n" in (
        capsys.readouterr().out)
