"""End-to-end command-line tests: file schemas, units, exit codes."""

import argparse
import json
import math

import numpy as np
import pytest

from bcsecrecy import region_sweep
from bcsecrecy.cli import _build_parser, main, matrix_pairs
from bcsecrecy.linalg import LN2
from conftest import FIG_G, FIG_H, FIG_PT


def write_channel(path, h, g, pt=None):
    doc = {"H": matrix_pairs(np.asarray(h, dtype=complex)),
           "G": matrix_pairs(np.asarray(g, dtype=complex))}
    if pt is not None:
        doc["Pt"] = pt
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_constraint(path, s):
    path.write_text(json.dumps({"S": matrix_pairs(np.asarray(s, dtype=complex))}),
                    encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture
def fig_file(tmp_path):
    return write_channel(tmp_path / "ch.json", FIG_H, FIG_G, pt=12.0)


class TestRegion:
    def test_csv_roundtrip(self, tmp_path, fig_file):
        out = tmp_path / "region.csv"
        assert main(["region", "--channels", fig_file,
                     "--alpha-grid", "5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "R1_bits", "R2_bits", "provenance"]
        assert len(rows) == 5
        alphas = [float(r[0]) for r in rows]
        assert alphas == sorted(alphas) and alphas[0] == 0.0 and alphas[-1] == 1.0
        assert float(rows[0][1]) == 0.0
        assert float(rows[-1][2]) == 0.0
        assert all(r[3] == "avgpower" for r in rows)
        assert b"\r" not in out.read_bytes()

    def test_stdout_when_no_out(self, capsys, fig_file):
        assert main(["region", "--channels", fig_file, "--alpha-grid", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,R1_bits,R2_bits,provenance"
        assert len(lines) == 4

    def test_nats_scale(self, tmp_path, fig_file):
        bits = tmp_path / "bits.csv"
        nats = tmp_path / "nats.csv"
        main(["region", "--channels", fig_file, "--alpha-grid", "7", "--out", str(bits)])
        assert main(["region", "--channels", fig_file, "--alpha-grid", "7",
                     "--nats", "--out", str(nats)]) == 0
        header_n, rows_n = read_csv(nats)
        _, rows_b = read_csv(bits)
        assert header_n == ["alpha", "R1_nats", "R2_nats", "provenance"]
        for rb, rn in zip(rows_b, rows_n):
            assert float(rn[1]) == pytest.approx(float(rb[1]) * math.log(2), rel=1e-12)
            assert float(rn[2]) == pytest.approx(float(rb[2]) * math.log(2), rel=1e-12)

    @pytest.mark.parametrize("unit, scale", [("bits", 1.0), ("nats", LN2)])
    @pytest.mark.parametrize("grid", [2, 7, 101])
    def test_rows_are_the_sweep(self, tmp_path, fig_file, fig_channel, grid, unit, scale):
        # One row per split, bit for bit, in region_sweep's ascending order.
        out = tmp_path / "region.csv"
        argv = ["region", "--channels", fig_file, "--alpha-grid", str(grid), "--out", str(out)]
        assert main(argv + ["--nats"] * (unit == "nats")) == 0
        header, rows = read_csv(out)
        est = region_sweep(fig_channel, FIG_PT, grid)
        got = np.array([[float(v) for v in row[:3]] for row in rows])
        assert header[1:3] == [f"R1_{unit}", f"R2_{unit}"]
        assert np.array_equal(got[:, 0], est.alphas)
        assert np.all(np.diff(got[:, 0]) > 0)
        assert np.array_equal(got[:, 1:], est.rates * scale)
        assert [row[3] for row in rows] == est.provenance

    def test_power_flag_overrides_hint(self, tmp_path, fig_file):
        small = tmp_path / "small.csv"
        large = tmp_path / "large.csv"
        main(["region", "--channels", fig_file, "--alpha-grid", "3", "--out", str(small),
              "--power", "0.5"])
        main(["region", "--channels", fig_file, "--alpha-grid", "3", "--out", str(large)])
        _, rows_s = read_csv(small)
        _, rows_l = read_csv(large)
        assert float(rows_s[-1][1]) < float(rows_l[-1][1])

    def test_dump_sw_solves_to_orthogonal_corner(self, tmp_path, fig_file, capsys):
        sw = tmp_path / "sw.json"
        assert main(["region", "--channels", fig_file, "--alpha-grid", "3",
                     "--out", str(tmp_path / "r.csv"),
                     "--dump-sw", str(sw), "--dump-sw-alpha", "0.3"]) == 0
        assert main(["corner", "--channels", fig_file, "--constraint", str(sw)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"R1_bits", "R2_bits", "b", "defect"}
        assert doc["defect"] <= 1e-8
        assert doc["R1_bits"] > 0.0 and doc["R2_bits"] > 0.0

    def test_same_out_and_dump_path_keeps_the_dump(self, tmp_path, fig_file):
        # As when the two are written in turn, the later output wins, however
        # the second path spells the same file.
        both = tmp_path / "both.json"
        for dump in (str(both), f"{tmp_path}/./both.json"):
            assert main(["region", "--channels", fig_file, "--alpha-grid", "3",
                         "--out", str(both), "--dump-sw", dump]) == 0
            assert set(json.loads(both.read_text(encoding="utf-8"))) == {"S"}

    def test_bad_dump_alpha_writes_nothing(self, tmp_path, fig_file, capsys):
        # A bad split, or an output that cannot be opened, leaves no output at
        # all; without --out, the CSV does not reach stdout either.
        for out, sw, alpha in (("r.csv", "sw.json", "1.5"), (None, "sw.json", "1.5"),
                               ("r.csv", "nodir/sw.json", "0.5"),
                               (None, "nodir/sw.json", "0.5"),
                               ("nodir/r.csv", "sw.json", "0.5")):
            paths = [tmp_path / name for name in (out, sw) if name is not None]
            argv = ["region", "--channels", fig_file, "--dump-sw", str(paths[-1]),
                    "--dump-sw-alpha", alpha]
            assert main(argv + (["--out", str(paths[0])] if out else [])) == 2
            assert capsys.readouterr().out == ""
            assert not any(path.exists() for path in paths)
        # An --out that existed before the run, a file or a link to one, is kept.
        kept, link = tmp_path / "kept.csv", tmp_path / "link.csv"
        kept.write_text("old\n", encoding="utf-8")
        link.symlink_to(kept)
        for out in (kept, link):
            assert main(["region", "--channels", fig_file, "--out", str(out),
                         "--dump-sw", str(tmp_path / "nodir" / "sw.json")]) == 2
            assert out.exists()
        assert link.is_symlink()


class TestCorner:
    def test_zero_constraint_zero_rates(self, tmp_path, fig_file, capsys):
        c = write_constraint(tmp_path / "s.json", np.zeros((2, 2)))
        assert main(["corner", "--channels", fig_file, "--constraint", c]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["R1_bits"] == 0.0 and doc["R2_bits"] == 0.0

    def test_scaled_identity(self, tmp_path, fig_file, capsys):
        c = write_constraint(tmp_path / "s.json", 6.0 * np.eye(2))
        assert main(["corner", "--channels", fig_file, "--constraint", c]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["R1_bits", "R2_bits", "b", "defect"]
        assert doc["R1_bits"] >= 0.0 and doc["R2_bits"] >= 0.0
        assert doc["b"] in (0, 1, 2)


class TestMiso:
    def test_schema_and_endpoints(self, tmp_path, capsys):
        ch = write_channel(tmp_path / "m.json",
                           [[0.9 + 0.1j, 0.4 - 0.2j]], [[0.2, 1.1 + 0.5j]], pt=10.0)
        assert main(["miso", "--channels", ch, "--alpha-grid", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,C1,C2,R1,R2"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 5
        for alpha, c1, c2, r1, r2 in rows:
            assert r1 <= c1 + 1e-9 and r2 <= c2 + 1e-9
        assert rows[0][3] == pytest.approx(rows[0][1], abs=1e-9)
        assert rows[-1][4] == pytest.approx(rows[-1][2], abs=1e-9)

    def test_matrix_channel_rejected(self, tmp_path, fig_file, capsys):
        assert main(["miso", "--channels", fig_file]) == 2
        assert "miso:" in capsys.readouterr().err


class TestBaseline:
    def test_reproducible_output(self, tmp_path, fig_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["baseline", "--channels", fig_file, "--samples", "25", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hull_rows(self, tmp_path, fig_file):
        out = tmp_path / "base.csv"
        assert main(["baseline", "--channels", fig_file, "--samples", "10",
                     "--seed", "1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["alpha", "R1_bits", "R2_bits", "provenance"]
        assert all(math.isnan(float(r[0])) for r in rows)
        assert all(r[3] == "baseline-hull" for r in rows)
        r1 = [float(r[1]) for r in rows]
        assert r1 == sorted(r1)


class TestCheck:
    def test_battery_passes(self, capsys):
        assert main(["check", "--trials", "3", "--dim", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        report = json.loads(out[-1])
        assert report["ok"] is True
        assert len(out) == len(report["invariants"]) + 1

    def test_injected_fault_detected(self, capsys):
        assert main(["check", "--trials", "2", "--dim", "3", "--seed", "1",
                     "--inject-fault", "gevd"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_zero_trials(self):
        assert main(["check", "--trials", "0", "--dim", "2", "--seed", "0"]) == 2

    def test_negative_trials(self):
        assert main(["check", "--trials", "-5", "--dim", "2", "--seed", "0"]) == 2


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert main(["region", "--channels", "/nonexistent/ch.json"]) == 2
        assert "region:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert main(["region", "--channels", str(bad), "--power", "1"]) == 2

    def test_top_level_not_object(self, tmp_path):
        bad = tmp_path / "arr.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        assert main(["region", "--channels", str(bad), "--power", "1"]) == 2

    def test_missing_matrix_key(self, tmp_path):
        bad = tmp_path / "nog.json"
        bad.write_text(json.dumps({"H": [[[1.0, 0.0]]]}), encoding="utf-8")
        assert main(["region", "--channels", str(bad), "--power", "1"]) == 2

    def test_ragged_matrix(self, tmp_path):
        bad = tmp_path / "ragged.json"
        bad.write_text(json.dumps({"H": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]],
                                   "G": [[[1.0, 0.0]]]}), encoding="utf-8")
        assert main(["region", "--channels", str(bad), "--power", "1"]) == 2

    def test_entries_not_pairs(self, tmp_path):
        bad = tmp_path / "plain.json"
        bad.write_text(json.dumps({"H": [[1.0, 0.0]], "G": [[1.0, 0.0]]}),
                       encoding="utf-8")
        assert main(["region", "--channels", str(bad), "--power", "1"]) == 2

    def test_channel_shape_mismatch(self, tmp_path):
        bad = write_channel(tmp_path / "mismatch.json",
                            np.ones((1, 2)), np.ones((1, 3)))
        assert main(["region", "--channels", bad, "--power", "1"]) == 2

    def test_non_psd_constraint(self, tmp_path, fig_file):
        c = write_constraint(tmp_path / "s.json", np.diag([1.0, -1.0]))
        assert main(["corner", "--channels", fig_file, "--constraint", c]) == 2

    def test_non_hermitian_constraint(self, tmp_path, fig_file):
        c = write_constraint(tmp_path / "s.json", np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert main(["corner", "--channels", fig_file, "--constraint", c]) == 2

    def test_power_missing_everywhere(self, tmp_path):
        ch = write_channel(tmp_path / "np.json", FIG_H, FIG_G)
        assert main(["region", "--channels", ch]) == 2

    def test_negative_power_flag(self, fig_file):
        for power in ("-2", "nan", "inf"):
            assert main(["region", "--channels", fig_file, "--power", power]) == 2

    def test_huge_power(self, tmp_path, fig_file, capsys):
        # 1e100 still has a representable water level; 1e300 does not.
        out = tmp_path / "huge.csv"
        assert main(["region", "--channels", fig_file, "--power", "1e100", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(math.isfinite(float(r[1])) and math.isfinite(float(r[2])) for r in rows)
        assert main(["region", "--channels", fig_file, "--power", "1e300"]) == 2
        assert "supported range" in capsys.readouterr().err

    def test_nonpositive_pt_in_file(self, tmp_path, capsys):
        # Pt must be a positive JSON number; a bool is not a number.
        for pt in (0.0, [1], {"a": 1}, "12", True):
            ch = write_channel(tmp_path / "p0.json", FIG_H, FIG_G, pt=pt)
            assert main(["region", "--channels", ch]) == 2
            assert "Pt must be a positive number" in capsys.readouterr().err

    def test_alpha_grid_too_small(self, fig_file):
        assert main(["region", "--channels", fig_file, "--alpha-grid", "1"]) == 2

    def test_negative_samples(self, fig_file):
        assert main(["baseline", "--channels", fig_file, "--samples", "-5"]) == 2


class TestNumericalFailure:
    def test_nan_channel_is_input_error(self, tmp_path, capsys):
        ch = write_channel(tmp_path / "nan.json",
                           np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2), pt=1.0)
        assert main(["region", "--channels", ch]) == 2
        assert "non-finite" in capsys.readouterr().err
        # An integer beyond the float range reads as inf, not as an overflow.
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"H": [[[10**400, 0]]], "G": [[[1, 0]]], "Pt": 1}),
                       encoding="utf-8")
        assert main(["region", "--channels", str(big)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_library_failure_exits_3(self, fig_file, capsys, monkeypatch):
        import bcsecrecy.cli as cli_mod
        from bcsecrecy.errors import NoConvergenceError

        def boom(*args, **kwargs):
            raise NoConvergenceError("eigh failed to converge")

        monkeypatch.setattr(cli_mod, "region_sweep", boom)
        assert main(["region", "--channels", fig_file]) == 3
        assert "region: eigh failed to converge" in capsys.readouterr().err


# Every flag of every subcommand: option strings -> (dest, default, type,
# choices, required, nargs).  nargs 0 is a switch.
SURFACE = {
    "region": {
        ("--channels",): ("channels", None, None, None, True, None),
        ("--power",): ("power", None, float, None, False, None),
        ("--alpha-grid",): ("alpha_grid", 101, int, None, False, None),
        ("--out",): ("out", None, None, None, False, None),
        ("--nats",): ("nats", False, None, None, False, 0),
        ("--dump-sw",): ("dump_sw", None, None, None, False, None),
        ("--dump-sw-alpha",): ("dump_sw_alpha", 0.5, float, None, False, None),
    },
    "corner": {
        ("--channels",): ("channels", None, None, None, True, None),
        ("--constraint",): ("constraint", None, None, None, True, None),
    },
    "miso": {
        ("--channels",): ("channels", None, None, None, True, None),
        ("--power",): ("power", None, float, None, False, None),
        ("--alpha-grid",): ("alpha_grid", 101, int, None, False, None),
        ("--out",): ("out", None, None, None, False, None),
    },
    "baseline": {
        ("--channels",): ("channels", None, None, None, True, None),
        ("--power",): ("power", None, float, None, False, None),
        ("--samples",): ("samples", 1000, int, None, False, None),
        ("--seed",): ("seed", 0, int, None, False, None),
        ("--out",): ("out", None, None, None, False, None),
    },
    "check": {
        ("--trials",): ("trials", 20, int, None, False, None),
        ("--dim",): ("dim", 4, int, None, False, None),
        ("--seed",): ("seed", 0, int, None, False, None),
        ("--inject-fault",): ("inject_fault", None, None, ("gevd",), False, None),
    },
}


def test_cli_surface():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(SURFACE)
    for name, command in sub.choices.items():
        got = {tuple(a.option_strings): (a.dest, a.default, a.type, a.choices,
                                         a.required, a.nargs)
               for a in command._actions if a.dest != "help"}
        assert got == SURFACE[name], name
