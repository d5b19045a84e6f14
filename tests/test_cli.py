import contextlib
import hashlib
import io
import json
import os
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from angulator.annulus import AnnulusAngulation, AnnulusConfig, initial_bridges
from angulator import cli, verify
from angulator.cli import main
from angulator.disk import DiskAngulation, DiskConfig, NotInAngulation, initial_fan

PENTAGON_FAN = json.dumps(
    {"type": "disk", "m": 1, "sides": 5, "diagonals": [[1, 3], [1, 4]]}
)
QUIVER_M2 = json.dumps(
    {
        "m": 2,
        "vertices": 2,
        "arrows": [
            {"from": 0, "to": 1, "color": 0, "mult": 1},
            {"from": 1, "to": 0, "color": 2, "mult": 1},
        ],
    }
)
ANNULUS_11 = json.dumps(
    {
        "type": "annulus",
        "m": 1,
        "p": 1,
        "q": 1,
        "arcs": [
            {"kind": "bridge", "outer": 1, "inner": 1, "winding": 0},
            {"kind": "bridge", "outer": 1, "inner": 1, "winding": 1},
        ],
    }
)

# a device on which every write fails with ENOSPC
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMutate:
    def test_round_trip_shift(self, capsys):
        code, out, _ = run(capsys, "mutate", QUIVER_M2, "-k", "0")
        assert code == 0
        data = json.loads(out)
        assert {(a["from"], a["to"], a["color"]) for a in data["arrows"]} == {
            (0, 1, 2),
            (1, 0, 0),
        }

    def test_inverse_round_trip(self, capsys):
        code, out, _ = run(capsys, "mutate", QUIVER_M2, "-k", "0", "--inverse")
        assert code == 0
        code, out2, _ = run(capsys, "mutate", out, "-k", "0")
        assert code == 0
        assert json.loads(out2) == json.loads(QUIVER_M2)

    def test_procedural_matches(self, capsys):
        _, a, _ = run(capsys, "mutate", QUIVER_M2, "-k", "1")
        _, b, _ = run(capsys, "mutate", QUIVER_M2, "-k", "1", "--procedural")
        assert a == b

    def test_arrowless_unchanged(self, capsys):
        quiver = json.dumps({"m": 1, "vertices": 3, "arrows": []})
        code, out, _ = run(capsys, "mutate", quiver, "-k", "2")
        assert code == 0 and json.loads(out)["arrows"] == []

    def test_malformed_json_exit_2(self, capsys):
        code, _, err = run(capsys, "mutate", "{not json", "-k", "0")
        assert code == 2 and "error" in err

    def test_invalid_quiver_exit_3(self, capsys):
        bad = json.dumps(
            {"m": 1, "vertices": 2,
             "arrows": [{"from": 0, "to": 1, "color": 0, "mult": 1}]}
        )
        code, _, err = run(capsys, "mutate", bad, "-k", "0")
        assert code == 3 and "symmetry" in err

    def test_vertex_out_of_range_exit_4(self, capsys):
        code, _, _ = run(capsys, "mutate", QUIVER_M2, "-k", "7")
        assert code == 4

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "mutate", QUIVER_M2, "-k", "0", "--format", "dot")
        assert code == 0 and out.startswith("digraph")


    @pytest.mark.parametrize("flag", [(), ("--procedural",)])
    def test_cost_independent_of_m(self, capsys, flag):
        m = 10_000_000
        quiver = json.dumps({"m": m, "vertices": 2, "arrows": [
            {"from": 0, "to": 1, "color": 0, "mult": 1},
            {"from": 1, "to": 0, "color": m, "mult": 1},
        ]})
        start = time.perf_counter()
        code, out, _ = run(capsys, "mutate", quiver, "-k", "0", *flag)
        elapsed = time.perf_counter() - start
        # out of k: 0 - 1 wraps to m; into k: m + 1 wraps to 0
        assert code == 0
        assert json.loads(out) == {"m": m, "vertices": 2, "arrows": [
            {"from": 0, "to": 1, "color": m, "mult": 1},
            {"from": 1, "to": 0, "color": 0, "mult": 1},
        ]}
        assert elapsed < 0.5


class TestFlip:
    def test_pentagon(self, capsys):
        code, out, _ = run(capsys, "flip", PENTAGON_FAN, "--arc", "0")
        assert code == 0
        assert json.loads(out)["diagonals"] == [[1, 4], [2, 4]]

    def test_double_flip_identity_m1(self, capsys):
        _, out, _ = run(capsys, "flip", PENTAGON_FAN, "--arc", "1")
        flipped = json.loads(out)
        original = json.loads(PENTAGON_FAN)["diagonals"]
        (new_arc,) = [d for d in flipped["diagonals"] if d not in original]
        new_index = flipped["diagonals"].index(new_arc)
        _, out2, _ = run(capsys, "flip", json.dumps(flipped), "--arc", str(new_index))
        assert json.loads(out2) == json.loads(PENTAGON_FAN)

    def test_annulus_winding_increment(self, capsys):
        code, out, _ = run(capsys, "flip", ANNULUS_11, "--arc", "0")
        assert code == 0
        windings = sorted(a["winding"] for a in json.loads(out)["arcs"])
        assert windings == [1, 2]

    def test_bad_index_exit_4(self, capsys):
        code, _, _ = run(capsys, "flip", PENTAGON_FAN, "--arc", "5")
        assert code == 4

    def test_invalid_angulation_exit_3(self, capsys):
        bad = json.dumps(
            {"type": "disk", "m": 1, "sides": 5, "diagonals": [[1, 3]]}
        )
        code, _, err = run(capsys, "flip", bad, "--arc", "0")
        assert code == 3 and "invalid" in err

    def test_refused_flip_exit_3(self, capsys):
        # the flip at B(O2,I1,1) would leave the model
        ang = initial_bridges(AnnulusConfig(1, 2, 1))
        code, out, err = run(capsys, "flip", json.dumps(ang.to_json_dict()), "--arc", "2")
        assert (code, out) == (3, "")
        assert err == "error: arc would enclose the inner boundary (outside the model)\n"

    def test_no_arcs_exit_4(self, capsys):
        empty = json.dumps({"type": "disk", "m": 2, "sides": 4, "diagonals": []})
        code, _, err = run(capsys, "flip", empty, "--arc", "0")
        assert code == 4
        assert err == "error: arc index 0: the angulation has no arcs\n"


class TestCostAtLargeM:
    """quiver and flip work on the arcs and the gaps between them, not on
    the boundary vertices: a rank-1 disk and a rank-2 annulus at
    m = 1,000,000 answer at once, with the answers worked out by hand."""

    M = 1_000_000
    DISK = json.dumps({"type": "disk", "m": M, "sides": 2 * M + 2,
                       "diagonals": [[1, M + 2]]})
    ANNULUS = json.dumps({"type": "annulus", "m": M, "p": 1, "q": 1, "arcs": [
        {"kind": "bridge", "outer": 1, "inner": 1, "winding": 0},
        {"kind": "bridge", "outer": 1, "inner": 1, "winding": 1},
    ]})

    def answer(self, capsys, *argv):
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0
        return json.loads(out)

    def test_disk_quiver(self, capsys):
        # one diagonal: one vertex, and no arrow
        assert self.answer(capsys, "quiver", self.DISK) == {
            "m": self.M, "vertices": 1, "arrows": []}

    def test_disk_flip(self, capsys):
        # the twist joins the vertices after 1 and after M + 2
        out = self.answer(capsys, "flip", self.DISK, "--arc", "0")
        assert out["diagonals"] == [[2, self.M + 3]]

    def test_annulus_quiver(self, capsys):
        # both (M+2)-gon cells hold both bridges, with no side between
        # them one way round and M sides the other: colours 0 and M, once
        # from each cell
        assert self.answer(capsys, "quiver", self.ANNULUS) == {
            "m": self.M, "vertices": 2, "arrows": [
                {"from": 0, "to": 1, "color": 0, "mult": 2},
                {"from": 1, "to": 0, "color": self.M, "mult": 2},
            ]}

    def test_annulus_flip(self, capsys):
        out = self.answer(capsys, "flip", self.ANNULUS, "--arc", "0")
        assert sorted(a["winding"] for a in out["arcs"]) == [1, 2]


class TestVertexOutOfRange:
    DISK = json.dumps(
        {"type": "disk", "m": 1, "sides": 5, "diagonals": [[1, 3], [1, 9]]}
    )
    ANNULUS = json.dumps(
        dict(json.loads(ANNULUS_11), arcs=[
            {"kind": "bridge", "outer": 4, "inner": 1, "winding": 0},
            {"kind": "bridge", "outer": 1, "inner": 1, "winding": 1},
        ])
    )

    @pytest.mark.parametrize("model", [DISK, ANNULUS], ids=["disk", "annulus"])
    @pytest.mark.parametrize("argv", [["flip", "--arc", "0"], ["quiver"], ["validate"]])
    def test_exit_4(self, capsys, model, argv):
        code, out, err = run(capsys, argv[0], model, *argv[1:])
        assert code == 4 and out == "" and err.startswith("error:")


class TestQuiverVertexOutOfRange:
    # an index beyond the vertices exits 4 wherever it stands, as -k does
    def quiver(self, n, *arrows):
        return json.dumps({"m": 1, "vertices": n, "arrows": [
            {"from": i, "to": j, "color": 0, "mult": 1} for i, j in arrows]})

    @pytest.mark.parametrize("argv", [["validate"], ["mutate", "-k", "0"]])
    def test_arrow_beyond_the_vertices_exit_4(self, capsys, argv):
        bad = self.quiver(2, (0, 2), (2, 0))
        code, out, err = run(capsys, argv[0], bad, *argv[1:])
        assert (code, out) == (4, "")
        assert err == "error: arrow (0, 2) outside 0..1\n"

    def test_no_vertices(self, capsys):
        code, out, err = run(capsys, "mutate", self.quiver(0), "-k", "0")
        assert (code, out, err) == (4, "", "error: vertex 0: the quiver has no vertices\n")
        code, out, err = run(capsys, "validate", self.quiver(0, (0, 1)))
        assert (code, out) == (4, "")
        assert err == "error: arrow (0, 1): the quiver has no vertices\n"


class TestUsageErrors:
    def expect_usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_integer_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("ANGULATOR_GUARD", "x")
        self.expect_usage_error(capsys, "enumerate", "--m", "1", "--sides", "5")
        self.expect_usage_error(capsys, "verify", "--suite", "cut", "--steps", "1")

    def test_env_guard_unused_by_other_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("ANGULATOR_GUARD", "x")
        assert run(capsys, "validate", PENTAGON_FAN)[0] == 0

    def test_inverse_and_procedural_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", QUIVER_M2, "-k", "0", "--inverse", "--procedural"])
        assert exc.value.code == 2
        assert "argument --procedural: not allowed with argument --inverse" \
            in capsys.readouterr().err

    def test_negative_steps_and_guard(self, capsys):
        self.expect_usage_error(capsys, "verify", "--steps", "-1")
        self.expect_usage_error(capsys, "verify", "--guard", "-3")
        self.expect_usage_error(capsys, "enumerate", "--m", "1", "--sides", "5",
                                "--guard", "-1")


class TestParserReuse:
    """Repeated in-process main calls share a parser while the guard value
    stays the same."""

    def test_env_guard_read_per_call(self, capsys, monkeypatch):
        argv = ("enumerate", "--m", "1", "--sides", "12")
        monkeypatch.setenv("ANGULATOR_GUARD", "3")
        assert run(capsys, *argv)[0] == 5
        monkeypatch.delenv("ANGULATOR_GUARD")
        assert run(capsys, *argv)[1] == "16796\n"
        monkeypatch.setenv("ANGULATOR_GUARD", "x")
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        monkeypatch.setenv("ANGULATOR_GUARD", "3")
        assert run(capsys, *argv)[0] == 5

    def test_flags_do_not_leak(self, capsys):
        _, inverse, _ = run(capsys, "mutate", QUIVER_M2, "-k", "0", "--inverse")
        _, dot, _ = run(capsys, "mutate", QUIVER_M2, "-k", "0", "--format", "dot")
        code, plain, _ = run(capsys, "mutate", QUIVER_M2, "-k", "0")
        assert inverse != plain and dot.startswith("digraph")
        assert code == 0
        assert json.loads(plain) == json.loads(QUIVER_M2) | {"arrows": [
            {"from": 0, "to": 1, "color": 2, "mult": 1},
            {"from": 1, "to": 0, "color": 0, "mult": 1},
        ]}

    def test_rebound_command_is_called(self, capsys, monkeypatch):
        assert run(capsys, "validate", QUIVER_M2)[0] == 0
        calls = []

        def spy(args):
            calls.append(args.input)
            return 0

        monkeypatch.setattr(cli, "cmd_validate", spy)
        assert run(capsys, "validate", QUIVER_M2) == (0, "", "")
        assert calls == [QUIVER_M2]


class TestQuiverCmd:
    def test_pentagon_fan(self, capsys):
        code, out, _ = run(capsys, "quiver", PENTAGON_FAN)
        assert code == 0
        arrows = {(a["from"], a["to"]): a["color"] for a in json.loads(out)["arrows"]}
        assert arrows == {(0, 1): 1, (1, 0): 0}

    def test_annulus_kronecker(self, capsys):
        code, out, _ = run(capsys, "quiver", ANNULUS_11)
        assert code == 0
        arrows = json.loads(out)["arrows"]
        assert all(a["mult"] == 2 for a in arrows) and len(arrows) == 2

    def test_single_diagonal_disk(self, capsys):
        data = json.dumps(
            {"type": "disk", "m": 2, "sides": 6, "diagonals": [[1, 4]]}
        )
        code, out, _ = run(capsys, "quiver", data)
        assert code == 0 and json.loads(out)["arrows"] == []


    def test_rank_zero_disk_builds_no_polygon(self, capsys):
        # the quiver of a disk without diagonals is empty, whatever its size
        data = json.dumps(
            {"type": "disk", "m": 2_000_000, "sides": 2_000_002, "diagonals": []}
        )
        start = time.perf_counter()
        code, out, _ = run(capsys, "quiver", data)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert json.loads(out) == {"m": 2_000_000, "vertices": 0, "arrows": []}
        assert elapsed < 0.5


class TestValidate:
    def test_valid(self, capsys):
        assert run(capsys, "validate", PENTAGON_FAN)[0] == 0
        assert run(capsys, "validate", QUIVER_M2)[0] == 0

    def test_invalid(self, capsys):
        bad = json.dumps(
            {"type": "disk", "m": 1, "sides": 5, "diagonals": [[1, 3], [2, 4]]}
        )
        assert run(capsys, "validate", bad)[0] == 3

    def test_annulus_cells_must_be_m_plus_2_gons(self, capsys):
        # three noncrossing bridges, p + q of them, but a cell of the wrong
        # size: the cut disk has no angulation with these diagonals
        bad = json.dumps({
            "type": "annulus", "m": 3, "p": 2, "q": 1,
            "arcs": [
                {"kind": "bridge", "outer": 1, "inner": 1, "winding": 0},
                {"kind": "bridge", "outer": 1, "inner": 1, "winding": 1},
                {"kind": "bridge", "outer": 3, "inner": 1, "winding": 1},
            ],
        })
        for argv in (["validate", bad], ["quiver", bad], ["flip", bad, "--arc", "0"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert "B(O3,I1,1) is not an m-diagonal of the cut" in err


def _bridge(outer, inner, winding):
    return {"kind": "bridge", "outer": outer, "inner": inner, "winding": winding}


def _chord(kind, start, span):
    return {"kind": f"{kind}_chord", "start": start, "span": span}


def _disk(*diagonals):
    return {"type": "disk", "m": 2, "sides": 8, "diagonals": [list(d) for d in diagonals]}


def _annulus(*arcs, m=2, p=2, q=2):
    return {"type": "annulus", "m": m, "p": p, "q": q, "arcs": list(arcs)}


# each invalid input with its violations() in full, in order
VIOLATIONS = {
    "disk non-m-diagonal": (_disk((1, 4), (1, 3)), ["(1,3) is not an m-diagonal"]),
    "disk crossing": (_disk((1, 4), (2, 5)), ["(1,4) crosses (2,5)"]),
    "disk count": (_disk((1, 4)), ["1 diagonals, expected 2"]),
    "disk all": (_disk((1, 3), (1, 4), (2, 5)), [
        "(1,3) is not an m-diagonal", "(1,3) crosses (2,5)",
        "(1,4) crosses (2,5)", "3 diagonals, expected 2",
    ]),
    "annulus non-m-diagonal": (
        _annulus(_bridge(1, 1, 0), _bridge(3, 1, 1), _bridge(1, 3, 0),
                 _chord("outer", 1, 2)),
        ["OC(O1,2) is not an m-diagonal"],
    ),
    "annulus crossing": (
        _annulus(_bridge(1, 1, 0), _bridge(3, 1, 1), _bridge(1, 3, 0),
                 _bridge(3, 1, -1)),
        ["B(O1,I1,0) crosses B(O3,I1,-1)", "B(O1,I3,0) crosses B(O3,I1,-1)",
         "B(O3,I1,-1) crosses B(O3,I1,1)"],
    ),
    "annulus count": (
        _annulus(_bridge(1, 1, 0), _bridge(3, 1, 1), _bridge(1, 3, 0)),
        ["3 arcs, expected 4"],
    ),
    "annulus no bridge": (
        _annulus(_chord("outer", 1, 3), _chord("inner", 1, 3)),
        ["2 arcs, expected 4", "no bridge present"],
    ),
    "annulus cells": (
        _annulus(_bridge(1, 1, 0), _bridge(1, 1, 1), _bridge(3, 1, 1), m=3, p=2, q=1),
        ["B(O3,I1,1) is not an m-diagonal of the cut along B(O1,I1,0)"],
    ),
    "annulus all": (
        _annulus(_chord("outer", 1, 2), _chord("outer", 2, 3), _chord("inner", 1, 3)),
        ["OC(O1,2) is not an m-diagonal", "OC(O1,2) crosses OC(O2,3)",
         "3 arcs, expected 4", "no bridge present"],
    ),
}


class TestRepeatedArc:
    # the angulation holds a set, so a repeat is named apart, and exits 3
    # like any other invalid angulation
    DISK = {"type": "disk", "m": 1, "sides": 5, "diagonals": [[1, 3], [1, 3]]}
    ANNULUS = dict(json.loads(ANNULUS_11), arcs=[_bridge(1, 1, 0)] * 3)

    @pytest.mark.parametrize("argv", [["validate"], ["quiver"], ["flip", "--arc", "0"]])
    @pytest.mark.parametrize("data, expected", [
        (DISK, "(1,3) is listed 2 times; 1 diagonals, expected 2"),
        (ANNULUS, "B(O1,I1,0) is listed 3 times; 1 arcs, expected 2"),
    ], ids=["disk", "annulus"])
    def test_named_and_exit_3(self, capsys, argv, data, expected):
        code, out, err = run(capsys, argv[0], json.dumps(data), *argv[1:])
        assert (code, out) == (3, "")
        assert err == f"error: invalid angulation: {expected}\n"

    def test_a_repeat_in_a_valid_set_exit_3(self, capsys):
        fan = json.loads(PENTAGON_FAN)
        again = dict(fan, diagonals=fan["diagonals"] + [[1, 4]])
        code, out, err = run(capsys, "validate", json.dumps(again))
        assert (code, out, err) == (3, "", "error: invalid angulation: (1,4) is listed 2 times\n")


class TestModelType:
    @pytest.mark.parametrize("kind", ["sphere", ["disk"], {"disk": 1}, None, 3],
                             ids=repr)
    def test_unknown_model_type_exit_2(self, capsys, kind):
        bad = with_field(PENTAGON_FAN, ["type"], kind)
        for argv in (["validate"], ["quiver"], ["flip", "--arc", "0"]):
            code, out, err = run(capsys, argv[0], bad, *argv[1:])
            assert (code, out, err) == (2, "", f"error: unknown model type {kind!r}\n")


class TestViolationMessages:
    @pytest.mark.parametrize("case", list(VIOLATIONS))
    def test_messages(self, capsys, case):
        data, expected = VIOLATIONS[case]
        model = DiskAngulation if data["type"] == "disk" else AnnulusAngulation
        assert model.from_json_dict(data).violations() == expected
        code, out, err = run(capsys, "validate", json.dumps(data))
        assert (code, out) == (3, "")
        assert err == "error: invalid angulation: " + "; ".join(expected) + "\n"


    @pytest.mark.parametrize("kind", ["loop", ["x"]], ids=repr)
    def test_unknown_arc_kind(self, capsys, kind):
        data = _annulus(_bridge(1, 1, 0), {"kind": kind, "start": 1, "span": 3})
        code, out, err = run(capsys, "validate", json.dumps(data))
        assert (code, out) == (2, "")
        assert err == f"error: malformed angulation JSON: unknown arc kind {kind!r}\n"


class TestLargeAngulation:
    # the m = 1 fan of rank 1,300 has more diagonals than the interpreter's
    # default recursion limit allows nested calls
    FAN = json.dumps({"type": "disk", "m": 1, "sides": 1303,
                      "diagonals": [[1, k] for k in range(3, 1303)]})

    @pytest.mark.parametrize("argv", [["quiver"], ["flip", "--arc", "5"]])
    def test_fan_of_rank_1300(self, capsys, argv):
        code, out, err = run(capsys, argv[0], self.FAN, *argv[1:])
        assert (code, err) == (0, "")
        assert json.loads(out)


class TestEnumerate:
    def test_counts(self, capsys):
        assert run(capsys, "enumerate", "--m", "1", "--sides", "5")[1] == "5\n"
        assert run(capsys, "enumerate", "--m", "2", "--sides", "8")[1] == "12\n"

    def test_guard_exit_5(self, capsys):
        code, _, _ = run(capsys, "enumerate", "--m", "1", "--sides", "40",
                         "--guard", "6")
        assert code == 5

    def test_dot_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run(capsys, "enumerate", "--m", "1", "--sides", "5",
                           "--dot", str(target))
        assert code == 0 and out == "5\n"
        assert target.read_text().startswith("graph")

    @pytest.mark.parametrize("where", ["missing/graph.dot", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_dot_exit_2(self, capsys, tmp_path, where):
        # opened before the count, so nothing reaches stdout
        code, out, err = run(capsys, "enumerate", "--m", "1", "--sides", "5",
                             "--dot", str(tmp_path / where))
        assert code == 2 and out == "" and "error: cannot write DOT:" in err

    @needs_dev_full
    def test_failed_dot_write_exit_2(self, capsys):
        # the count is printed before the graph is written
        code, out, err = run(capsys, "enumerate", "--m", "2", "--sides", "8",
                             "--dot", "/dev/full")
        assert code == 2 and out == "12\n"
        assert err.startswith("error: cannot write DOT: [Errno 28]")

    def test_reads_env_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("ANGULATOR_GUARD", "3")
        code, _, _ = run(capsys, "enumerate", "--m", "1", "--sides", "12")
        assert code == 5


class TestVerifyCmd:
    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_cut_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cut", "--steps", "3")
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "cut"
        assert all(r["passed"] for r in data["reports"])
        assert all("elapsed" not in r for r in data["reports"])

    def test_byte_identical_given_seed(self, capsys):
        _, a, _ = run(capsys, "verify", "--suite", "cut", "--steps", "3", "--seed", "9")
        _, b, _ = run(capsys, "verify", "--suite", "cut", "--steps", "3", "--seed", "9")
        assert a == b

    def test_all_suites_output_pinned(self, capsys, monkeypatch):
        # a refactor must leave the report bytes as they are; the digest
        # changes only with a deliberate change to a suite or its cases
        monkeypatch.delenv("ANGULATOR_GUARD", raising=False)
        code, out, _ = run(capsys, "verify", "--suite", "all", "--steps", "20",
                           "--seed", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "39d5bc7a90c65ea34d85ab413b32457486206327470249c5c3d6f8f37190bd2a"
        )


    def test_timings_file_leaves_stdout_pinned(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("ANGULATOR_GUARD", raising=False)
        target = tmp_path / "timings.json"
        code, out, _ = run(capsys, "verify", "--suite", "all", "--steps", "20",
                           "--seed", "1", "--timings", str(target))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "39d5bc7a90c65ea34d85ab413b32457486206327470249c5c3d6f8f37190bd2a"
        )
        timings = json.loads(target.read_text())
        reports = json.loads(out)["reports"]
        assert [(t["suite"], t["cases"]) for t in timings] == [
            (r["suite"], r["cases"]) for r in reports
        ]
        assert all(set(t) == {"suite", "cases", "elapsed"} for t in timings)
        assert all(isinstance(t["elapsed"], float) and t["elapsed"] >= 0
                   for t in timings)

    def test_unwritable_timings_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "timings.json"
        code, out, err = run(capsys, "verify", "--suite", "cut", "--steps", "3",
                             "--timings", str(target))
        assert code == 2 and out == "" and "cannot write timings" in err

    @needs_dev_full
    def test_failed_timings_write_exit_2(self, capsys):
        # the file is closed before the report is printed
        code, out, err = run(capsys, "verify", "--suite", "cut", "--steps", "2",
                             "--timings", "/dev/full")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write timings: [Errno 28]")

    def test_fault_inside_a_suite_propagates(self, monkeypatch):
        # the program's own NotInAngulation is no usage error
        def fault(cfg):
            raise NotInAngulation("(1,3) not in angulation")

        monkeypatch.setattr(verify, "check_gabriel", fault)
        with pytest.raises(NotInAngulation):
            main(["verify", "--suite", "counts", "--steps", "1"])


class TestFileInput(object):
    def test_path_input(self, capsys, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(PENTAGON_FAN)
        code, out, _ = run(capsys, "quiver", str(path))
        assert code == 0 and json.loads(out)["vertices"] == 2

    def test_missing_file_exit_2(self, capsys):
        assert run(capsys, "quiver", "no-such-file.json")[0] == 2

    def test_nesting_too_deep_exit_2(self, capsys, tmp_path):
        # deeper than the decoder's recursion limit
        depth = 100_000
        text = '{"a": ' + "[" * depth + "]" * depth + "}"
        path = tmp_path / "deep.json"
        path.write_text(text)
        for spec in (str(path), "-", text):
            with mock.patch("sys.stdin", io.StringIO(text)):
                code, out, err = run(capsys, "validate", spec)
            assert code == 2 and out == "", spec[:8]
            assert err.startswith("error: cannot read input:"), spec[:8]


class TestGuardExit:
    """A guard exceeded mid-command exits 5 and leaves the output files
    that the command opened empty."""

    def test_enumerate_dot(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, err = run(capsys, "enumerate", "--m", "1", "--sides", "40",
                             "--guard", "6", "--dot", str(target))
        assert (code, out) == (5, "")
        assert err == "error: rank 37 exceeds the enumeration guard 6\n"
        assert target.read_text() == ""

    def test_verify_timings(self, capsys, tmp_path):
        target = tmp_path / "timings.json"
        code, out, err = run(capsys, "verify", "--suite", "compat", "--steps", "3",
                             "--guard", "3", "--timings", str(target))
        assert (code, out) == (5, "")
        assert err == "error: rank 4 exceeds the enumeration guard 3\n"
        assert target.read_text() == ""


def with_field(model: str, path, value) -> str:
    """``model`` with the entry at ``path`` (keys and indices) set to ``value``."""
    data = json.loads(model)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(data)


# argv tails of the subcommands that read a model, after the input spec
READERS = [["validate"], ["quiver"], ["flip", "--arc", "0"], ["mutate", "-k", "0"]]


class TestJsonShape:
    """Only a JSON object is a model; anything else is malformed input."""

    @pytest.mark.parametrize("argv", READERS, ids=lambda a: a[0])
    @pytest.mark.parametrize("text", ["[1, 2]", "[]", "3", '"disk"', "null", "true"])
    def test_non_object_exit_2(self, capsys, tmp_path, argv, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == "" and err.startswith("error:")
        with mock.patch("sys.stdin", io.StringIO(text)):
            code, out, err = run(capsys, argv[0], "-", *argv[1:])
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("model, path, value", [
        pytest.param(QUIVER_M2, ["m"], True, id="quiver-m-bool"),
        pytest.param(QUIVER_M2, ["vertices"], 2.0, id="quiver-vertices-float"),
        pytest.param(QUIVER_M2, ["arrows", 0, "mult"], 1.5, id="quiver-mult-float"),
        pytest.param(QUIVER_M2, ["arrows", 0, "from"], False, id="quiver-from-bool"),
        pytest.param(QUIVER_M2, ["arrows", 1, "color"], 2.0, id="quiver-color-float"),
        pytest.param(PENTAGON_FAN, ["m"], True, id="disk-m-bool"),
        pytest.param(PENTAGON_FAN, ["sides"], 5.0, id="disk-sides-float"),
        pytest.param(PENTAGON_FAN, ["diagonals", 0, 1], 3.0, id="disk-endpoint-float"),
        pytest.param(PENTAGON_FAN, ["diagonals", 1, 0], True, id="disk-endpoint-bool"),
        pytest.param(ANNULUS_11, ["p"], 1.0, id="annulus-p-float"),
        pytest.param(ANNULUS_11, ["arcs", 0, "winding"], False, id="annulus-winding-bool"),
        pytest.param(ANNULUS_11, ["arcs", 1, "outer"], True, id="annulus-outer-bool"),
    ])
    def test_non_integer_field_exit_2(self, capsys, model, path, value):
        bad = with_field(model, path, value)
        commands = [["validate"], ["mutate", "-k", "0"]] if model is QUIVER_M2 \
            else [["validate"], ["quiver"], ["flip", "--arc", "0"]]
        for argv in commands:
            code, out, err = run(capsys, argv[0], bad, *argv[1:])
            assert code == 2 and out == "" and err.startswith("error:"), argv


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)
MODELS = [
    PENTAGON_FAN, QUIVER_M2, ANNULUS_11,
    json.dumps(initial_fan(DiskConfig(2, 10)).to_json_dict()),
    json.dumps(initial_bridges(AnnulusConfig(2, 2, 1)).to_json_dict()),
    json.dumps(initial_bridges(AnnulusConfig(2, 2, 1)).quiver_of().to_json_dict()),
]


def slots(value):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return
    for key, child in items:
        yield value, key
        yield from slots(child)


@st.composite
def near_valid_models(draw):
    """A valid model with one entry deleted, nudged or replaced."""
    data = json.loads(draw(st.sampled_from(MODELS)))
    container, key = draw(st.sampled_from(list(slots(data))))
    action = draw(st.sampled_from(("delete", "nudge", "replace")))
    if action == "delete":
        del container[key]
    elif action == "nudge":
        container[key] = draw(st.integers(-2, 12) | st.booleans()
                              | st.floats(-2, 12))
    else:
        container[key] = draw(JSON_VALUES)
    return data


@settings(max_examples=300, deadline=None)
@given(data=JSON_VALUES | near_valid_models(), argv=st.sampled_from(READERS))
def test_any_json_ends_in_a_documented_exit(data, argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(data))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], "-", *argv[1:]])
    assert code in {0, 2, 3, 4, 5}
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
