import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qnl
from qnl.cli import MAX_GRID, MAX_MAP_AXIS, main
from qnl.states import save_state, validate, werner
from qnl.werner_analytic import concurrence_ad, fidelity_ad


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


def fail_allocation(*args, **kwargs):
    raise AssertionError("a grid was allocated")


def run_cli_process(args, timeout):
    """Run ``python -m qnl.cli`` in a child process, so that a hang fails the test."""
    src = str(Path(qnl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "qnl.cli", *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


class TestMeasuresCommand:
    def test_bell_singlet(self, runner):
        doc = json.loads(run_ok(runner, ["measures", "--state", "bell:singlet"]))
        assert doc["concurrence"] == pytest.approx(1.0, abs=1e-9)
        assert doc["bell"] == pytest.approx(2.8284271, abs=1e-6)
        assert doc["n_value"] == pytest.approx(3.0, abs=1e-9)
        assert doc["class"] == "BEYOND_GISIN"

    def test_werner_half(self, runner):
        doc = json.loads(run_ok(runner, ["measures", "--state", "werner:p=0.5"]))
        assert doc["fidelity"] == pytest.approx(0.75, abs=1e-12)
        assert doc["class"] == "TELEPORT_NOT_BELL"

    def test_mems_spec(self, runner):
        doc = json.loads(
            run_ok(runner, ["measures", "--state", "mems:p1=1,p2=0,p3=0,p4=0"])
        )
        assert doc["concurrence"] == pytest.approx(1.0, abs=1e-9)

    def test_file_spec(self, runner, tmp_path):
        path = tmp_path / "w.json"
        save_state(werner(0.5), str(path))
        doc = json.loads(run_ok(runner, ["measures", "--state", f"file:{path}"]))
        assert doc["fidelity"] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize(
        "spec",
        ["werner:p=2", "bell:triplet", "nonsense", "werner:x=1",
         "mems:p1=1", "file:/does/not/exist.json", "mems:p1=0.5,p2=0.5,p3=0.5,p4=0.5"],
    )
    def test_bad_specs_exit_2(self, runner, spec):
        result = runner.invoke(main, ["measures", "--state", spec])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "spec, message",
        [("mems:p1=0.9,p1=0.6,p2=0.2,p3=0.15,p4=0.05", "mems spec names 'p1' twice"),
         ("mems:p1=0.6,p2=0.2,p3=0.15,p4=0.05,", "mems spec item '' is not 'key=value'"),
         ("mems:p1=0.6,p2,p3=0.15,p4=0.05", "mems spec item 'p2' is not 'key=value'")],
    )
    def test_malformed_mems_items_exit_2(self, runner, spec, message):
        result = runner.invoke(main, ["measures", "--state", spec])
        assert result.exit_code == 2
        assert message in result.output


class TestScanCommand:
    def test_header_and_first_row(self, runner):
        out = run_ok(
            runner,
            ["scan", "--state", "bell:singlet", "--channel", "amplitude-damping",
             "--qmin", "0", "--qmax", "1", "--steps", "101"],
        )
        lines = out.strip().split("\n")
        assert lines[0] == "q,concurrence,fidelity,bell"
        assert len(lines) == 102
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-9)
        assert first[3].startswith("2.8284271")

    def test_werner_rows_match_closed_forms(self, runner):
        out = run_ok(runner, ["scan", "--state", "werner:p=0.8", "--steps", "11"])
        for line in out.strip().split("\n")[1:]:
            q, c, f, _ = map(float, line.split(","))
            assert c == pytest.approx(concurrence_ad(0.8, q), abs=1e-10)
            assert f == pytest.approx(fidelity_ad(0.8, q), abs=1e-10)

    # SHA-256 of the scan stdout: printed curves are byte-reproducible, so a
    # faster evolution or formatting must keep these bytes.
    def test_golden_stdout_werner(self, runner):
        out = run_ok(runner, ["scan", "--state", "werner:p=0.9", "--channel", "depolarizing",
                              "--steps", "10007"])
        digest = "489108ca48c026c754af3c6d5cb147a25cc7aeacd220e023e09a8863c5153eed"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_stdout_non_x_file_state(self, runner, tmp_path):
        # 0.8 |psi><psi| + 0.05 I, entangled and not an X-state.
        psi = np.array([0.64, 0.48j, 0.36, 0.48])
        path = tmp_path / "state.json"
        save_state(validate(0.8 * np.outer(psi, psi.conj()) + 0.05 * np.eye(4)), str(path))
        out = run_ok(runner, ["scan", "--state", f"file:{path}", "--channel",
                              "amplitude-damping", "--steps", "4005"])
        digest = "01528d534d7fd8c1eaca43bb74c44309f94ccf1b9557582eed96873ae3ff4be4"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_steps_one_rejected(self, runner):
        result = runner.invoke(main, ["scan", "--state", "bell:singlet", "--steps", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("steps", ["10000000000000", "99999999999999999999999"])
    def test_absurd_steps_rejected_before_allocating(self, runner, monkeypatch, steps):
        monkeypatch.setattr(np, "linspace", fail_allocation)
        result = runner.invoke(main, ["scan", "--state", "bell:singlet", "--steps", steps])
        assert result.exit_code == 2
        assert f"[2, {MAX_GRID}]" in result.output

    def test_bad_range_rejected(self, runner):
        result = runner.invoke(
            main, ["scan", "--state", "bell:singlet", "--qmin", "0.8", "--qmax", "0.2"]
        )
        assert result.exit_code == 2

    def test_collapsed_grid_is_a_usage_error(self, runner):
        # qmax is the float after qmin: qmin < qmax, but five steps repeat floats.
        result = runner.invoke(main, ["scan", "--state", "bell:singlet", "--qmin", "0.5",
                                      "--qmax", "0.5000000000000001", "--steps", "5"])
        assert result.exit_code == 2
        assert "strictly increasing" in result.output
        assert "numerical failure" not in result.output


class TestThresholdsCommand:
    def test_bell_singlet(self, runner):
        doc = json.loads(run_ok(runner, ["thresholds", "--state", "bell:singlet"]))
        assert doc["q_F"] == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-6)
        assert doc["q_B"] == pytest.approx(0.5, abs=1e-6)
        assert doc["q_C"] is None
        assert doc["hierarchy_ok"] is True

    def test_maximally_mixed_from_file(self, runner, tmp_path):
        path = tmp_path / "mixed.json"
        save_state(validate(np.eye(4) / 4), str(path))
        doc = json.loads(run_ok(runner, ["thresholds", "--state", f"file:{path}"]))
        assert doc["q_G"] == doc["q_B"] == doc["q_F"] == doc["q_C"] == 0.0
        assert doc["hierarchy_ok"] is True

    def test_bad_tol(self, runner):
        result = runner.invoke(
            main, ["thresholds", "--state", "bell:singlet", "--tol", "0.5"]
        )
        assert result.exit_code == 2

    def test_tol_below_float_spacing_returns(self, runner):
        # Brackets narrow to adjacent floats long before 1e-16; the locator
        # must stop there instead of bisecting the same bracket forever.
        spec = ["thresholds", "--state", "werner:p=0.9"]
        result = run_cli_process([*spec, "--tol", "1e-16"], timeout=60)
        assert result.returncode == 0, result.stderr
        tiny = json.loads(result.stdout)
        ref = json.loads(run_ok(runner, [*spec, "--tol", "1e-12"]))
        for key in ("q_G", "q_B", "q_F"):
            assert tiny[key] == pytest.approx(ref[key], abs=1e-11)
        assert tiny["q_C"] is ref["q_C"] is None


class TestSampleMemsCommand:
    def test_small_run(self, runner, tmp_path):
        out_path = tmp_path / "records.csv"
        output = run_ok(
            runner, ["sample-mems", "--n", "25", "--seed", "7", "--out", str(out_path)]
        )
        assert "25 records" in output
        lines = out_path.read_text().split("\n")
        assert lines[0] == "p1,p2,p3,p4,q_G,q_B,q_F,q_C,gap_GB,gap_BF,gap_FC"
        rows = [line for line in lines[1:] if line]
        assert len(rows) == 25
        for row in rows:
            cells = row.split(",")
            for cell in cells[8:]:
                if cell:
                    assert float(cell) >= -1e-6

    def test_deterministic_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(runner, ["sample-mems", "--n", "10", "--seed", "3", "--out", str(a)])
        run_ok(runner, ["sample-mems", "--n", "10", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_n_zero_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sample-mems", "--n", "0", "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2

    def test_n_above_the_row_bound_rejected_before_drawing(self, runner, monkeypatch, tmp_path):
        monkeypatch.setattr(qnl.sampling, "_accepted_weights", fail_allocation)
        out_path = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["sample-mems", "--n", str(MAX_GRID + 1), "--out", str(out_path)]
        )
        assert result.exit_code == 2
        assert f"[1, {MAX_GRID}]" in result.output
        assert not out_path.exists()

    def test_reports_the_locator_self_check(self, runner, tmp_path):
        out_path = tmp_path / "x.csv"
        output = run_ok(runner, ["sample-mems", "--n", "4", "--seed", "1", "--out", str(out_path)])
        assert output == (f"wrote 4 records to {out_path}; "
                          "locator self-check: 4 of 4 ordered q_G <= q_B <= q_F <= q_C\n")

    def test_negative_seed_rejected(self, runner, tmp_path):
        out_path = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["sample-mems", "--n", "2", "--seed", "-1", "--out", str(out_path)]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert not out_path.exists()

    @pytest.mark.parametrize("parent", ["missing", "a-file"])
    def test_unwritable_out_exits_2_before_the_experiment(self, runner, monkeypatch, tmp_path,
                                                          parent):
        monkeypatch.setattr(qnl.sampling, "hierarchy_experiment", fail_allocation)
        (tmp_path / "a-file").write_text("")
        out_path = tmp_path / parent / "x.csv"
        result = runner.invoke(main, ["sample-mems", "--n", "100000", "--out", str(out_path)])
        assert result.exit_code == 2
        assert "cannot write" in result.output
        assert not out_path.exists()

    def test_tol_below_float_spacing_returns(self, tmp_path):
        out_path = tmp_path / "x.csv"
        result = run_cli_process(
            ["sample-mems", "--n", "5", "--seed", "1", "--tol", "1e-17", "--out", str(out_path)],
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert len(out_path.read_text().splitlines()) == 6

    # SHA-256 of `sample-mems --n 1000 --seed 7` per channel: the experiment's
    # output is byte-reproducible, so any refactor must keep these bytes.
    @pytest.mark.parametrize(
        "channel, digest",
        [("amplitude-damping", "e89240114c6f8965fc8a3fdead618dc21fe7a6c194f20ac1468fd1e727a09d35"),
         ("phase-damping", "0bb74fdf7e0c10abb62e35b1b90e8a7243ed77412c99ad200971fcc6dbabab5d"),
         ("depolarizing", "38ddd5f0eb50262e0869cb875a5694ca1fae49487d2af78f9a477d45d101c6b3")],
    )
    def test_golden_csv(self, runner, tmp_path, channel, digest):
        out_path = tmp_path / "records.csv"
        run_ok(runner, ["sample-mems", "--n", "1000", "--seed", "7", "--channel", channel,
                        "--out", str(out_path)])
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    # The same at --n 10000, which x_threshold_sets locates in three blocks of states.
    @pytest.mark.parametrize(
        "channel, digest",
        [("amplitude-damping", "857e68ced5de550aff3daff049d62dd3cba4b4c70528d8f8dacd069febcd3d33"),
         ("phase-damping", "e2b7d7ad46a76e225b13865afad415cf6c2ab8a2ebd4906db8d4abce8b8227f4"),
         ("depolarizing", "568c8c3f04ea90a539a120c32e44a0211655b4af2e893c7e5d4eadb09efa0838")],
    )
    def test_golden_csv_of_three_blocks(self, runner, tmp_path, channel, digest):
        out_path = tmp_path / "records.csv"
        run_ok(runner, ["sample-mems", "--n", "10000", "--seed", "7", "--channel", channel,
                        "--out", str(out_path)])
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


class TestWernerMapCommand:
    # SHA-256 of the map CSV: the labels and their formatting are
    # byte-reproducible, so a faster evaluation must keep these bytes.
    @pytest.mark.parametrize(
        "grid, digest",
        [("101", "42dff4108e358c381b5050a897fd7b05f29908274c9b9e8af60eb868add2e5d1"),
         ("201", "1fda0eb5ff37d195941c0dcaca9c2da35c3e62e4a9ec4c689c9effc863145d1f")],
    )
    def test_golden_csv(self, runner, tmp_path, grid, digest):
        out_path = tmp_path / "map.csv"
        run_ok(runner, ["werner-map", "--grid", grid, "--out", str(out_path)])
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_lattice(self, runner, tmp_path):
        out_path = tmp_path / "map.csv"
        run_ok(runner, ["werner-map", "--grid", "11", "--out", str(out_path)])
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "p,q,region"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 121
        assert all(r[2] in {"R1", "R2", "R3", "R4", "R5"} for r in rows)
        table = {(r[0], r[1]): r[2] for r in rows}
        assert table[("0.2", "0.5")] == "R1"
        assert table[("1", "0.5")] == "R3"

    @pytest.mark.parametrize("grid", ["10000000000000", "99999999999999999999999"])
    def test_absurd_grid_rejected_before_allocating(self, runner, monkeypatch, tmp_path, grid):
        monkeypatch.setattr(np, "linspace", fail_allocation)
        result = runner.invoke(
            main, ["werner-map", "--grid", grid, "--out", str(tmp_path / "m.csv")]
        )
        assert result.exit_code == 2
        assert f"[2, {MAX_MAP_AXIS}]" in result.output
        assert not (tmp_path / "m.csv").exists()

    def test_grid_above_the_row_bound_rejected(self, runner, tmp_path):
        # 1001^2 rows exceed MAX_GRID; the largest map has 1000^2.
        result = runner.invoke(
            main, ["werner-map", "--grid", str(MAX_MAP_AXIS + 1), "--out", str(tmp_path / "m.csv")]
        )
        assert MAX_MAP_AXIS == 1000
        assert result.exit_code == 2
        assert not (tmp_path / "m.csv").exists()

    def test_grid_one_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main, ["werner-map", "--grid", "1", "--out", str(tmp_path / "m.csv")]
        )
        assert result.exit_code == 2


class TestFailureExits:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", ["measures", "thresholds"])
    def test_non_finite_file_state_exits_2(self, runner, tmp_path, command, bad):
        doc = {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        doc["re"][0][1] = doc["re"][1][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, "--state", f"file:{path}"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "finite" in result.output

    def test_nan_mems_weight_exits_2(self, runner):
        result = runner.invoke(
            main, ["measures", "--state", "mems:p1=nan,p2=0.5,p3=0.3,p4=0.2"]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("tol", ["nan", "0", "0.01"])
    @pytest.mark.parametrize("command", ["thresholds", "sample-mems"])
    def test_bad_tol_exits_2(self, runner, tmp_path, command, tol):
        out_path = tmp_path / "records.csv"
        rest = (["--state", "bell:singlet"] if command == "thresholds"
                else ["--n", "1", "--out", str(out_path)])
        result = runner.invoke(main, [command, "--tol", tol, *rest])
        assert result.exit_code == 2
        assert not out_path.exists()

    def test_rejection_stall_exits_3_without_csv(self, runner, tmp_path, monkeypatch):
        import qnl.sampling

        monkeypatch.setattr(qnl.sampling, "MAX_DRAWS", 0)
        out_path = tmp_path / "records.csv"
        result = runner.invoke(main, ["sample-mems", "--n", "1", "--out", str(out_path)])
        assert result.exit_code == 3
        assert "numerical failure" in result.stderr
        assert result.stdout == ""
        assert not out_path.exists()
