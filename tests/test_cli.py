import contextlib
import csv
import dataclasses
import fractions
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magnoncavity as mc
from magnoncavity import cells, cli, magnetostatics
from magnoncavity.cli import main
from magnoncavity.scattering import OBSERVABLES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def run(args):
    return main([str(a) for a in args])


# bench/golden.json is read, never rewritten, here
GOLDEN_DIGESTS = json.loads(GOLDEN.read_text(encoding="utf-8"))["configs"]
# The command behind each recorded digest, as argv with paths relative to configs/.
GOLDEN_ARGV = {
    "bare_cavity": ["spectrum", "bare_cavity.yaml"],
    "sphere_0p45mm_spectrum": ["spectrum", "sphere_0p45mm_spectrum.yaml"],
    "sphere_0p45mm_map": ["map", "sphere_0p45mm_map.yaml"],
    "sphere_0p75mm_map": ["map", "sphere_0p75mm_map.yaml"],
    "sphere_1p0mm_offset_map": ["map", "sphere_1p0mm_offset_map.yaml"],
    "walker_modes": ["modes", "walker_modes.yaml"],
    "derive_0p45mm": ["derive", "derive_0p45mm.yaml"],
    "derive_0p75mm": ["derive", "derive_0p75mm.yaml"],
    "derive_1p0mm": ["derive", "derive_1p0mm.yaml"],
    "scaling_g_kittel": ["scaling", "scaling_g_kittel.yaml", "--data", "points_g_kittel.csv"],
    "scaling_g_msm": ["scaling", "scaling_g_kittel.yaml", "--data", "points_g_msm.csv"],
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_output_matches_the_golden_digest(tmp_path, key):
    args = [CONFIG_DIR / a if a.endswith((".yaml", ".csv")) else a for a in GOLDEN_ARGV[key]]
    out = tmp_path / "out.csv"
    assert run(args + ["--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[key]


def test_importing_the_cli_leaves_scipy_out():
    # scipy is a test-only dependency: importing it would add about 0.6 s to every command's start-up
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, magnoncavity.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("command", ["spectrum", "map", "modes", "derive", "scaling"])
def test_the_cell_module_is_imported_only_when_a_cell_is_made(tmp_path, command):
    # where bytecode is not cached, compiling magnoncavity.cells at every start-up would cost about 2.5 ms and 0.6 MB
    src = Path(cli.__file__).resolve().parent.parent
    golden = next(argv for argv in GOLDEN_ARGV.values() if argv[0] == command)
    argv = [str(CONFIG_DIR / a) if a.endswith((".yaml", ".csv")) else a for a in golden]
    code = (
        "import sys, magnoncavity.cli as cli; imported = 'magnoncavity.cells' in sys.modules; "
        f"cli.main({argv + ['--out', str(tmp_path / 'out.csv')]!r}); "
        "print(imported, 'magnoncavity.cells' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == f"False {command in ('spectrum', 'map', 'modes')}\n"


class TestSpectrumCommand:
    def test_bare_cavity_lorentzian(self, tmp_path):
        out = tmp_path / "bare.csv"
        assert run(["spectrum", CONFIG_DIR / "bare_cavity.yaml", "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 801
        peak = max(rows, key=lambda r: float(r["abs2_s21"]))
        assert float(peak["f_hz"]) == pytest.approx(10.632e9, abs=1e5)
        assert float(peak["abs2_s21"]) == pytest.approx((2 * 2.1 / 2.7) ** 2, rel=1e-3)
        # bare cavity: no per-mode columns, eta column still present and zero
        assert "re_s31_kittel" not in rows[0]
        assert float(peak["eta"]) == 0.0

    def test_resonant_cross_section_has_two_peaks(self, tmp_path):
        out = tmp_path / "dip.csv"
        assert run(["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml", "--out", out]) == 0
        rows = read_csv(out)
        f = np.array([float(r["f_hz"]) for r in rows])
        power = np.array([float(r["abs2_s21"]) for r in rows])
        eta = np.array([float(r["eta"]) for r in rows])
        below = f < 10.632e9
        assert f[below][np.argmax(power[below])] == pytest.approx(10.632e9 - 28.6e6, abs=2e6)
        assert f[~below][np.argmax(power[~below])] == pytest.approx(10.632e9 + 28.6e6, abs=2e6)
        # conversion spectrum mirrors the transmission structure
        assert eta[below][np.argmax(power[below])] > 10 * eta[np.argmin(np.abs(f - 10.632e9))]

    def test_column_order_contract(self, tmp_path):
        out = tmp_path / "cols.csv"
        run(["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml", "--out", out])
        with open(out, newline="") as handle:
            header = handle.readline().strip().split(",")
        assert header == [
            "f_hz",
            "re_s21", "im_s21", "abs2_s21", "arg_s21",
            "re_s11", "im_s11", "abs2_s11", "arg_s11",
            "re_s31_kittel", "im_s31_kittel", "abs2_s31_kittel", "arg_s31_kittel",
            "eta",
        ]

    def test_single_point_grid(self, tmp_path):
        config = yaml.safe_load((CONFIG_DIR / "sphere_0p45mm_spectrum.yaml").read_text())
        config["sweep"]["frequency"] = {"start": 10.632e9, "stop": 10.632e9, "count": 1}
        path = tmp_path / "one.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "one.csv"
        assert run(["spectrum", path, "--out", out]) == 0
        assert len(read_csv(out)) == 1

    def test_beta_db_flag_scales_conversion(self, tmp_path):
        plain = tmp_path / "plain.csv"
        boosted = tmp_path / "boost.csv"
        run(["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml", "--out", plain])
        run(["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml", "--out", boosted, "--beta-db", "30"])
        a = read_csv(plain)
        b = read_csv(boosted)
        k = len(a) // 2
        assert float(b[k]["eta"]) == pytest.approx(1000 * float(a[k]["eta"]), rel=1e-9)
        # transmission is untouched by the amplification factor
        assert float(b[k]["abs2_s21"]) == float(a[k]["abs2_s21"])

    def test_unwrap_flag(self, tmp_path):
        out = tmp_path / "wrapped.csv"
        out2 = tmp_path / "unwrapped.csv"
        run(["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml", "--out", out])
        run(["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml", "--out", out2, "--unwrap"])
        wrapped = [float(r["arg_s21"]) for r in read_csv(out)]
        unwrapped = [float(r["arg_s21"]) for r in read_csv(out2)]
        jumps = lambda xs: sum(1 for a, b in zip(xs, xs[1:]) if abs(b - a) > math.pi)
        assert jumps(unwrapped) == 0
        assert np.allclose(np.unwrap(wrapped), unwrapped)


class TestMapCommand:
    def test_long_format_and_size(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["map", CONFIG_DIR / "sphere_0p45mm_map.yaml", "--out", out]) == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["B_T", "f_hz", "value"]
        assert len(rows) == 22 * 601
        # row-major: bias field varies slowest
        assert float(rows[0]["B_T"]) == float(rows[600]["B_T"])
        assert float(rows[601]["B_T"]) > float(rows[0]["B_T"])

    def test_double_avoided_crossing(self, tmp_path):
        out = tmp_path / "map75.csv"
        assert run(["map", CONFIG_DIR / "sphere_0p75mm_map.yaml", "--out", out]) == 0
        rows = read_csv(out)
        values = np.array([float(r["value"]) for r in rows]).reshape(25, 601)
        f = np.array([float(r["f_hz"]) for r in rows[:601]])
        B = np.array([float(r["B_T"]) for r in rows[::601]])
        # at the uniform-mode degeneracy field the splitting is ~2*g_K
        k = np.argmin(np.abs(B - 10.632e9 / 28e9))
        row = values[k]
        below, above = f < 10.632e9, f > 10.632e9
        left = f[below][np.argmax(row[below])]
        right = f[above][np.argmax(row[above])]
        assert right - left == pytest.approx(2 * 67.3e6, rel=0.05)
        # the second anticrossing leaves a visible dip on the (2,0) branch side
        mat = mc.MaterialParams(diameter=0.75e-3)
        B20 = B[np.argmin([abs(mc.msm20_frequency(b, mat) - 10.632e9) for b in B])]
        assert B20 < 10.632e9 / 28e9  # the (2,0) crossing sits at lower field

    def test_eta_map_zero_without_optical_coupling(self, tmp_path):
        config = yaml.safe_load((CONFIG_DIR / "sphere_0p45mm_map.yaml").read_text())
        config["observable"] = "eta"
        for mode in config["system"]["modes"]:
            mode["delta"] = 0.0
        config["sweep"]["field"]["count"] = 3
        config["sweep"]["frequency"]["count"] = 11
        path = tmp_path / "zero.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "zero.csv"
        assert run(["map", path, "--out", out]) == 0
        assert all(float(r["value"]) == 0.0 for r in read_csv(out))


    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize(
        "start, code, message",
        [
            (0.01, 3, "numeric domain error: (2,0) closed form needs B_ext/mu0_Ms > 1/3, got r = 0.0561798"),
            # msm20 holds at -0.1 T (r < -7/15) and fails from 0 T; walker fails at -0.1 T, the first field
            (-0.1, 2, "config error: B_ext must be positive and finite"),
        ],
        ids=["from_0.01T", "from_-0.1T"],
    )
    def test_failing_field_reports_the_first_failing_row_and_mode(
        self, tmp_path, capsys, monkeypatch, rows, start, code, message
    ):
        config = {
            "system": {
                "cavity": {"f_c": 10.632e9, "kappa_e": 2.1e6, "kappa_i": 0.6e6},
                "modes": [
                    {"label": "kittel", "g": 67.3e6, "gamma": 1.1e6, "field_map": {"kind": "kittel"}},
                    {"label": "msm20", "g": 4.0e6, "gamma": 1.5e6, "field_map": {"kind": "msm20"}},
                    {"label": "w22", "g": 6.0e6, "gamma": 1.2e6, "field_map": {"kind": "walker", "i": 2, "j": 2}},
                ],
                "material": {"diameter": 0.75e-3},
            },
            "sweep": {
                "field": {"start": start, "stop": 0.5, "count": 7},
                "frequency": {"start": 10.5e9, "stop": 10.7e9, "count": 5},
            },
            "observable": "eta",
        }
        if rows is not None:
            monkeypatch.setattr(mc.scattering, "_SWEEP_CELLS", rows * 5)
        path = tmp_path / "failing.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "map.csv"
        assert run(["map", path, "--out", out]) == code
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()


class TestModesCommand:
    def test_closed_forms_and_solver_agree(self, tmp_path):
        out = tmp_path / "modes.csv"
        assert run(["modes", CONFIG_DIR / "walker_modes.yaml", "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 7 * 6
        for row in rows:
            assert row["f_closed_hz"] != ""
            assert float(row["rel_diff"]) <= 1e-9

    def test_ambiguous_window_exits_with_domain_error(self, tmp_path):
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"]["indices"] = [[3, 1]]  # two roots, no closed form
        path = tmp_path / "ambiguous.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["modes", path, "--out", tmp_path / "x.csv"]) == 3

    @pytest.mark.parametrize(
        "start, failing, code, message",
        [
            (
                0.3, [3, 1], 3,
                "numeric domain error: window (9.240000e+08, 1.587600e+10) Hz contains 2 roots for (3,1)"
                " at 7.381349e+09, 8.678158e+09 Hz; narrow it",
            ),
            (
                0.3, [2, -1], 3,
                "numeric domain error: no root of the (2,-1) characteristic equation in (9.240000e+08, 1.587600e+10) Hz",
            ),
            (0.01, [2, 0], 3, "numeric domain error: (2,0) closed form needs B_ext/mu0_Ms > 1/3, got r = 0.0561798"),
        ],
        ids=["3_1_two_roots", "2_-1_no_root", "2_0_closed_form_domain"],
    )
    def test_failing_row_ends_the_table_where_it_stands(self, tmp_path, capsys, start, failing, code, message):
        # rows are B-major: the first field's (1, 1) row is written, then the failing pair's row raises
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"]["field"]["start"] = start
        config["modes_table"]["indices"] = [[1, 1], failing, [2, 2]]
        path = tmp_path / "failing.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["modes", path]) == code
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        config["modes_table"]["indices"] = [[1, 1]]
        path.write_text(yaml.safe_dump(config))
        assert run(["modes", path]) == 0
        header_and_first_row = capsys.readouterr().out.splitlines(keepends=True)[:2]
        assert header_and_first_row[0].startswith("B_T,i,j,")
        assert captured.out == "".join(header_and_first_row)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize(
        "failing, branch, message",
        [
            ([0, 0], "plus", "mode index i must be >= 1, got (0, 0)"),
            ([2, 3], "plus", "mode index j must satisfy -i <= j <= i, got (2, 3)"),
            ([2, 3], "minus", "mode index j must satisfy -i <= j <= i, got (2, 3)"),  # the j as written
        ],
        ids=["0_0", "2_3", "2_3_minus"],
    )
    def test_bad_index_pair_is_a_config_error_before_any_output(
        self, tmp_path, capsys, failing, branch, message, to_file
    ):
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"].update(indices=[[1, 1], failing, [2, 2]], sign_branch=branch)
        path = tmp_path / "bad_pair.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "modes.csv"
        assert run(["modes", path] + (["--out", out] if to_file else [])) == 2
        assert capsys.readouterr() == ("", f"config error: modes_table.indices[1]: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize(
        "grid", [{"start": -0.1, "stop": 0.5, "count": 7}, {"start": 0.0, "stop": 0.0}], ids=["from_-0.1T", "at_0T"]
    )
    def test_field_grid_reaching_zero_is_a_config_error_before_any_output(self, tmp_path, capsys, grid, to_file):
        # the Walker family (1, 1) would fail at the first field: the grid is rejected when the config is parsed
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"].update(field=grid, indices=[[1, 1], [2, 2]])
        path = tmp_path / "low_field.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "modes.csv"
        assert run(["modes", path] + (["--out", out] if to_file else [])) == 2
        message = f"config error: modes_table.field: bias fields must be positive, got start {grid['start']!r}\n"
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    @pytest.mark.parametrize("ij", [(4, 1), (3, 1), (2, 0), (2, 2)], ids=["4_1", "3_1", "2_0", "2_2"])
    def test_minus_branch_is_the_plus_table_of_the_negated_j(self, tmp_path, capsys, ij):
        # the branch sign multiplies j in the characteristic equation, so a minus
        # row of (i, j) solves (i, -j): same roots, windows and errors
        i, j = ij
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        path = tmp_path / "table.yaml"

        def table(signed_j, branch):
            config["modes_table"].update(indices=[[i, signed_j]], sign_branch=branch)
            path.write_text(yaml.safe_dump(config))
            code = run(["modes", path])
            captured = capsys.readouterr()
            return code, captured.err, [line.split(",") for line in captured.out.splitlines()]

        minus_code, minus_err, minus_rows = table(j, "minus")
        plus_code, plus_err, plus_rows = table(-j, "plus")
        assert (minus_code, minus_err) == (plus_code, plus_err)
        assert len(minus_rows) == len(plus_rows) >= 1
        for minus, plus in zip(minus_rows[1:], plus_rows[1:]):
            assert minus[1:4] == [str(i), str(j), "minus"]
            assert minus[:2] + minus[4:] == plus[:2] + plus[4:]

    def test_a_window_reaching_below_zero_keeps_the_positive_root(self, tmp_path, capsys):
        # (2,0) is even in f; from a window reaching below zero the solver
        # returned the mirror root -f_closed at 0.05935 T
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"].update(indices=[[2, 0]], field={"start": 0.05935, "stop": 0.0594, "count": 2})
        path = tmp_path / "low_2_0.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["modes", path]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["B_T"] for row in rows] == ["0.05935", "0.059400000000000001"]
        for row in rows:
            closed, root = float(row["f_closed_hz"]), float(row["f_solver_hz"])
            assert 0 < root and abs(root - closed) <= 1e-6 * closed
            assert float(row["rel_diff"]) <= 1e-6

    def test_a_closed_form_below_every_positive_window_ends_the_table(self, tmp_path, capsys):
        # the (2,1) closed form is -5.2e8 Hz at 0.005 T: no window is left above 1 Hz
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"].update(indices=[[1, 1], [2, 1]], field={"start": 0.005, "stop": 0.3, "count": 3})
        path = tmp_path / "low_2_1.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["modes", path]) == 3
        captured = capsys.readouterr()
        assert captured.err == "numeric domain error: search window -5.245333e+08 +/- 1.495200e+08 Hz lies below 1 Hz\n"
        # B-major: the (1, 1) row of the first field is written before the (2, 1) row raises
        rows = [line.split(",")[:3] for line in captured.out.splitlines()]
        assert rows == [["B_T", "i", "j"], ["0.0050000000000000001", "1", "1"]]

    def test_a_window_without_width_ends_the_table(self, tmp_path, capsys):
        # (3,-1) has no closed form: its default window at 5e29 T is 1.4e40 Hz +/- 7.5e9 Hz, which rounds away
        # (at 0.06 T that window holds one root)
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"].update(
            indices=[[3, 1]], sign_branch="minus", field={"start": 0.06, "stop": 1.0e30, "count": 3}
        )
        path = tmp_path / "huge_3_1.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["modes", path]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "numeric domain error: search window 1.400000e+40 +/- 7.476000e+09 Hz"
            " has no width: both edges round to 1.400000e+40 Hz\n"
        )
        rows = [line.split(",")[:3] for line in captured.out.splitlines()]
        assert rows == [["B_T", "i", "j"], ["0.059999999999999998", "3", "1"]]

    def test_a_window_that_overflows_is_one_stderr_line(self, tmp_path):
        # gamma_e * B overflows to inf at 1e300 T: the error line alone, with no RuntimeWarning before it
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"].update(indices=[[3, 1]], field={"start": 1.0e300, "stop": 1.0e308, "count": 3})
        path = tmp_path / "overflow_3_1.yaml"
        path.write_text(yaml.safe_dump(config))
        done = run_process(["modes", path])
        assert (done.returncode, done.stderr) == (
            3, "numeric domain error: search window inf +/- 7.476000e+09 Hz has no width: both edges round to inf Hz\n"
        )
        assert done.stdout == "B_T,i,j,sign_branch,f_closed_hz,f_solver_hz,rel_diff\n"

    def test_a_table_that_fails_early_builds_only_its_first_error(self, tmp_path, capsys, monkeypatch):
        # 2001 fields of (1, 1) and (3, 1) from 0.3 T: the (3,1) default window holds two roots at each field; the
        # table ends at the first, whose error alone is built
        built = []

        class CountedDomainError(mc.DomainError):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(magnetostatics, "DomainError", CountedDomainError)
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"].update(indices=[[1, 1], [3, 1]], field={"start": 0.3, "stop": 1.0, "count": 2001})
        path = tmp_path / "early_3_1.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["modes", path]) == 3
        captured = capsys.readouterr()
        assert len(built) == 1
        assert captured.err == (
            "numeric domain error: window (9.240000e+08, 1.587600e+10) Hz contains 2 roots for (3,1)"
            " at 7.381349e+09, 8.678158e+09 Hz; narrow it\n"
        )
        rows = [line.split(",")[:4] for line in captured.out.splitlines()]
        assert rows == [["B_T", "i", "j", "sign_branch"], ["0.29999999999999999", "1", "1", "plus"]]

    def test_minus_branch_of_the_walker_table_has_no_kittel_root(self, tmp_path, capsys):
        # minus (1, 1) is (1, -1), which has no root in the default window at 0.3 T
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"]["sign_branch"] = "minus"
        path = tmp_path / "minus.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["modes", path]) == 3
        assert capsys.readouterr().err == (
            "numeric domain error: no root of the (1,-1) characteristic equation in (9.240000e+08, 1.587600e+10) Hz\n"
        )


class TestDeriveCommand:
    @pytest.mark.parametrize("name", ["derive_0p45mm.yaml", "derive_0p75mm.yaml", "derive_1p0mm.yaml"])
    def test_reports_cells_and_deviations(self, tmp_path, name):
        out = tmp_path / "derive.csv"
        assert run(["derive", CONFIG_DIR / name, "--out", out]) == 0
        rows = read_csv(out)
        by_key = {(r["mode"], r["quantity"]): r for r in rows}
        for mode in ("kittel", "msm"):
            for quantity in ("g_B", "N", "C", "V_m", "n", "G", "delta"):
                assert (mode, quantity) in by_key
        # deviations against the published cells stay small where quoted
        for (mode, quantity), row in by_key.items():
            if row["reference"]:
                limit = 0.16 if quantity == "C" else 0.02
                assert float(row["rel_dev"]) <= limit, (mode, quantity)

    def test_exit_zero_even_when_deviation_large(self, tmp_path):
        config = yaml.safe_load((CONFIG_DIR / "derive_0p45mm.yaml").read_text())
        config["derive"]["reference"] = {"kittel": {"N": 1.0}}
        path = tmp_path / "off.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["derive", path, "--out", tmp_path / "r.csv"]) == 0

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_failing_second_mode_writes_nothing(self, tmp_path, capsys, to_file):
        # a mode without g (default 0) has no spins: the first mode's rows must not be written either
        config = yaml.safe_load((CONFIG_DIR / "derive_0p45mm.yaml").read_text())
        config["system"]["modes"].append({"label": "uncoupled", "gamma": 1.0e6})
        path = tmp_path / "uncoupled.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "derive.csv"
        assert run(["derive", path] + (["--out", out] if to_file else [])) == 2
        assert capsys.readouterr() == ("", "config error: mode 'uncoupled': spin density must be positive\n")
        assert not out.exists()


class TestFitCommand:
    def synthesize_data(self, tmp_path):
        truth = mc.HybridSystem(
            cavity=mc.CavityParams(f_c=10.632e9, kappa_e=2.1e6, kappa_i=0.6e6),
            modes=(
                mc.MagnonMode(
                    label="kittel", g=28.6e6, gamma=2.3e6,
                    field_map=mc.FieldMap(kind="fixed", frequency=10.632e9),
                ),
            ),
        )
        grid = np.linspace(10.482e9, 10.782e9, 1201)
        spec = mc.synthesize_noisy_spectrum(truth, 0.0, grid, noise_sigma=0.01, seed=4)
        data = tmp_path / "measured.csv"
        with open(data, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["f_hz", "re_s21", "im_s21"])
            for f, v in zip(spec.frequencies, spec.values):
                writer.writerow([repr(float(f)), repr(float(v.real)), repr(float(v.imag))])
        return data

    def test_extracts_parameters_from_csv(self, tmp_path):
        data = self.synthesize_data(tmp_path)
        out = tmp_path / "fit.csv"
        assert run(["fit", CONFIG_DIR / "fit_0p45mm.yaml", "--data", data, "--out", out]) == 0
        rows = read_csv(out)
        estimates = {r["name"]: float(r["value"]) for r in rows if r["kind"] == "estimate"}
        assert estimates["g.kittel"] == pytest.approx(28.6e6, rel=0.02)
        assert estimates["gamma.kittel"] == pytest.approx(2.3e6, rel=0.02)
        assert estimates["f_c"] == pytest.approx(10.632e9, rel=1e-4)
        stats = {r["name"]: r["value"] for r in rows if r["kind"] == "stat"}
        assert stats["converged"] == "true"
        trace = [float(r["value"]) for r in rows if r["kind"] == "trace"]
        assert trace == sorted(trace, reverse=True)

    def test_non_convergence_exit_code(self, tmp_path):
        data = self.synthesize_data(tmp_path)
        config = yaml.safe_load((CONFIG_DIR / "fit_0p45mm.yaml").read_text())
        # delta is invisible in transmission: singular normal equations
        config["system"]["modes"][0]["delta"] = 3.61e-3
        config["fit"]["free"] = {"g.kittel": [1.0e6, 1.0e9], "delta.kittel": [1e-4, 1.0]}
        path = tmp_path / "singular.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["fit", path, "--data", data, "--out", tmp_path / "r.csv"]) == 4

    def test_missing_columns_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f_hz,magnitude\n1.0,2.0\n")
        assert run(["fit", CONFIG_DIR / "fit_0p45mm.yaml", "--data", bad, "--out", tmp_path / "r.csv"]) == 2

    def test_short_data_row_is_config_error(self, tmp_path):
        bad = tmp_path / "short.csv"
        bad.write_text("f_hz,re_s21,im_s21\n1.0,2.0,3.0\n2.0,2.0\n")
        assert run(["fit", CONFIG_DIR / "fit_0p45mm.yaml", "--data", bad, "--out", tmp_path / "r.csv"]) == 2

    @pytest.mark.parametrize(
        "command, config, text",
        [
            ("fit", "fit_0p45mm.yaml", "f_hz,re_s21,im_s21\n1.0,2.0,3.0\n2.0,2.0,3.0,4.0\n"),
            ("scaling", "scaling_g_kittel.yaml", "diameter_m,value,include\n0.45e-3,28.6,1\n1.0e-3,100e6,1,9\n"),
            ("scaling", "scaling_g_kittel.yaml", "diameter_m,value\n0.45e-3,28.6,\n"),
        ],
        ids=["fit", "scaling", "scaling_trailing_comma"],
    )
    def test_long_data_row_is_config_error(self, tmp_path, capsys, command, config, text):
        bad = tmp_path / "long.csv"
        bad.write_text(text)
        assert run([command, CONFIG_DIR / config, "--data", bad, "--out", tmp_path / "r.csv"]) == 2
        assert capsys.readouterr().err == f"config error: data file {bad} has rows with extra cells\n"

    def test_a_data_file_with_a_byte_order_mark_gives_the_plain_bytes(self, tmp_path):
        data = self.synthesize_data(tmp_path)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
        outs = [tmp_path / "plain_fit.csv", tmp_path / "marked_fit.csv"]
        for path, out in zip((data, marked), outs):
            assert run(["fit", CONFIG_DIR / "fit_0p45mm.yaml", "--data", path, "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize(
    "command, config, text, row, column",
    [
        ("fit", "fit_0p45mm.yaml", "f_hz,re_s21,im_s21\n1.0,2.0,3.0\n2.0,abc,3.0\n", 2, "re_s21"),
        ("fit", "fit_0p45mm.yaml", "f_hz,re_s21,im_s21\nabc,2.0,3.0\n", 1, "f_hz"),
        ("scaling", "scaling_g_kittel.yaml", "diameter_m,value\n0.45e-3,28.6\n0.75e-3,abc\n", 2, "value"),
        ("scaling", "scaling_g_kittel.yaml", "diameter_m,value,include\nabc,28.6,1\n", 1, "diameter_m"),
    ],
    ids=["fit_value", "fit_frequency", "scaling_value", "scaling_diameter"],
)
def test_a_non_numeric_data_cell_names_its_file_row_and_column(tmp_path, capsys, command, config, text, row, column):
    data = tmp_path / "data.csv"
    data.write_text(text)
    out = tmp_path / "r.csv"
    assert run([command, CONFIG_DIR / config, "--data", data, "--out", out]) == 2
    assert capsys.readouterr() == ("", f"config error: data file {data} row {row}: {column} must be a number, got 'abc'\n")
    assert not out.exists()


class TestScalingCommand:
    def test_linear_coupling_fit(self, tmp_path):
        out = tmp_path / "scaling.csv"
        code = run(["scaling", CONFIG_DIR / "scaling_g_kittel.yaml", "--data", CONFIG_DIR / "points_g_kittel.csv", "--out", out])
        assert code == 0
        rows = read_csv(out)
        c0 = [float(r["value"]) for r in rows if r["name"] == "c0"][0]
        assert c0 == pytest.approx(130.97, rel=0.01)

    def test_include_column_masks_points(self, tmp_path):
        config = yaml.safe_load((CONFIG_DIR / "scaling_g_kittel.yaml").read_text())
        config["scaling"]["model"] = "quadratic_in_sqrtV"
        path = tmp_path / "msm.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "msm.csv"
        assert run(["scaling", path, "--data", CONFIG_DIR / "points_g_msm.csv", "--out", out]) == 0
        rows = read_csv(out)
        c0 = [float(r["value"]) for r in rows if r["name"] == "c0"][0]
        included = [r["value"] for r in rows if r["name"].startswith("included_")]
        assert c0 == pytest.approx(22.19, rel=0.01)
        assert included == ["0", "1", "1"]

    def test_a_data_file_with_a_byte_order_mark_gives_the_plain_bytes(self, tmp_path):
        marked = tmp_path / "points.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (CONFIG_DIR / "points_g_kittel.csv").read_bytes())
        outs = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
        for path, out in zip((CONFIG_DIR / "points_g_kittel.csv", marked), outs):
            assert run(["scaling", CONFIG_DIR / "scaling_g_kittel.yaml", "--data", path, "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("cell", ["7", "-1", "2", "", "yes", "1.0", "true"])
    def test_include_column_takes_only_0_or_1(self, tmp_path, capsys, cell):
        data = tmp_path / "points.csv"
        data.write_text(f"diameter_m,value,include\n0.45e-3,28.6,1\n0.75e-3,67.3,{cell}\n1.0e-3,91.0,0\n")
        out = tmp_path / "r.csv"
        assert run(["scaling", CONFIG_DIR / "scaling_g_kittel.yaml", "--data", data, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"config error: data file {data} row 2: include must be 0 or 1, got {cell!r}\n"
        )

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("column", ["diameter_m", "value"])
    def test_non_finite_point_is_config_error(self, tmp_path, capfd, column, cell):
        data = tmp_path / "points.csv"
        diameter, value = ("1.0e-3", cell) if column == "value" else (cell, "91.0")
        data.write_text(f"diameter_m,value\n0.45e-3,28.6\n0.75e-3,67.3\n{diameter},{value}\n")
        assert run(["scaling", CONFIG_DIR / "scaling_g_kittel.yaml", "--data", data]) == 2
        # capfd, not capsys: LAPACK would write to the file descriptor directly
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: point 2: diameter and value must be finite, got "
            f"({float(diameter)}, {float(value)})\n"
        )

    @pytest.mark.parametrize("include", ["1", "0"], ids=["included", "masked"])
    def test_non_positive_diameter_is_config_error_naming_its_point(self, tmp_path, capsys, include):
        data = tmp_path / "points.csv"
        data.write_text(f"diameter_m,value,include\n0.45e-3,28.6,1\n0.75e-3,67.3,1\n-1e-3,91.0,{include}\n")
        out = tmp_path / "r.csv"
        assert run(["scaling", CONFIG_DIR / "scaling_g_kittel.yaml", "--data", data, "--out", out]) == 2
        assert capsys.readouterr() == ("", "config error: point 2: diameter must be positive, got -0.001\n")
        assert not out.exists()


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert run(["spectrum", tmp_path / "nope.yaml"]) == 2

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("system:\n  cavity: {f_c: -1.0, kappa_e: 2.1e+6, kappa_i: 0.0}\n")
        assert run(["spectrum", path]) == 2

    @pytest.mark.parametrize("walker_indices", [5, [1, 1], "x"])
    def test_legacy_walker_indices_key_is_ignored(self, tmp_path, walker_indices):
        config = yaml.safe_load((CONFIG_DIR / "sphere_0p45mm_spectrum.yaml").read_text())
        config["system"]["modes"][0]["walker_indices"] = walker_indices
        path = tmp_path / "legacy.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["spectrum", path, "--out", tmp_path / "x.csv"]) == 0

    @pytest.mark.parametrize(
        "command, name, mutate",
        [
            ("spectrum", "sphere_0p45mm_spectrum.yaml", lambda d: d["system"].update(modes=None)),
            ("spectrum", "sphere_0p45mm_spectrum.yaml", lambda d: d["system"].update(material=3)),
            ("modes", "walker_modes.yaml", lambda d: d["modes_table"].update(indices=[5, [1, 1]])),
            ("derive", "derive_0p45mm.yaml", lambda d: d["derive"].update(reference=[1, 2])),
            ("map", "sphere_0p45mm_map.yaml", lambda d: d["sweep"]["frequency"].update(count=2.7)),
        ],
    )
    def test_malformed_section_is_config_error(self, tmp_path, command, name, mutate):
        config = yaml.safe_load((CONFIG_DIR / name).read_text())
        mutate(config)
        path = tmp_path / "malformed.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run([command, path, "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["fit"]["free"].update({"g.ghost": [1.0e6, 1.0e9]}),
            lambda d: d["fit"].update(observable="s31.ghost"),
            lambda d: d["fit"].update(observable="s41"),
        ],
        ids=["free_label", "observable_label", "observable"],
    )
    def test_unknown_fit_names_are_config_errors(self, tmp_path, capsys, mutate):
        config = yaml.safe_load((CONFIG_DIR / "fit_0p45mm.yaml").read_text())
        mutate(config)
        path = tmp_path / "unknown.yaml"
        path.write_text(yaml.safe_dump(config))
        # rejected when the config is parsed, before the data file is read
        assert run(["fit", path, "--data", tmp_path / "absent.csv", "--out", tmp_path / "r.csv"]) == 2
        assert capsys.readouterr().err.startswith("config error: fit: ")

    @pytest.mark.parametrize("data", ["absent", "present"])
    def test_reversed_fit_bounds_are_a_config_error_before_the_data_is_read(self, tmp_path, capsys, data):
        config = yaml.safe_load((CONFIG_DIR / "fit_0p45mm.yaml").read_text())
        config["fit"]["free"]["f_c"] = [10.7e9, 10.6e9]
        path = tmp_path / "reversed.yaml"
        path.write_text(yaml.safe_dump(config))
        points = tmp_path / "measured.csv"
        if data == "present":
            points.write_text("f_hz,re_s21,im_s21\n10.6e9,1.0,0.0\n10.7e9,1.0,0.0\n")
        out = tmp_path / "r.csv"
        assert run(["fit", path, "--data", points, "--out", out]) == 2
        assert capsys.readouterr() == (
            "", "config error: fit.free.f_c: bounds must satisfy lower < upper, got [10700000000.0, 10600000000.0]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("cavity_volume", 0.0), ("cavity_volume", -1.0e-6), ("g_B", -1.0)],
        ids=["cavity_volume_zero", "cavity_volume_negative", "g_B"],
    )
    def test_a_bad_derive_spec_is_blamed_on_derive_not_a_mode(self, tmp_path, capsys, key, value):
        config = yaml.safe_load((CONFIG_DIR / "derive_0p45mm.yaml").read_text())
        config["derive"][key] = value
        path = tmp_path / "bad_derive.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "derive.csv"
        assert run(["derive", path, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"config error: derive.{key}: must be positive, got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, name, grid",
        [("map", "sphere_0p45mm_map.yaml", ("sweep", "field")), ("modes", "walker_modes.yaml", ("modes_table", "field"))],
        ids=["map", "modes"],
    )
    def test_grid_too_large_to_allocate_is_config_error(self, tmp_path, capsys, command, name, grid):
        # 8 TB of float64: numpy fails at once without reserving it; never use a count that could be allocated
        config = yaml.safe_load((CONFIG_DIR / name).read_text())
        config[grid[0]][grid[1]]["count"] = 10**12
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: Unable to allocate ")

    @pytest.mark.parametrize("grid", ["field", "frequency"])
    def test_grid_beyond_the_float_range_is_one_config_error_line(self, tmp_path, grid):
        # its span overflows inside np.linspace; numpy's RuntimeWarnings must not reach stderr
        config = yaml.safe_load((CONFIG_DIR / "sphere_0p45mm_map.yaml").read_text())
        config["sweep"][grid] = {"start": -1.0e308, "stop": 1.0e308, "count": 5}
        path = tmp_path / "overflowing_grid.yaml"
        path.write_text(yaml.safe_dump(config))
        done = run_process(["map", path])
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "config error: grids must be finite\n")

    def test_key_error_inside_a_command_propagates(self, monkeypatch):
        def broken(args):
            raise KeyError("a bug, not a config error")

        monkeypatch.setattr(cli, "cmd_map", broken)
        with pytest.raises(KeyError):
            run(["map", CONFIG_DIR / "sphere_0p45mm_map.yaml"])

    def test_unwritable_output_is_config_error(self, tmp_path):
        out = tmp_path / "missing_dir" / "x.csv"
        assert run(["derive", CONFIG_DIR / "derive_0p45mm.yaml", "--out", out]) == 2

    def test_numeric_domain_error(self, tmp_path):
        config = yaml.safe_load((CONFIG_DIR / "sphere_0p75mm_map.yaml").read_text())
        # drive the (2,0) closed form below its validity range
        config["sweep"]["field"] = {"start": 0.01, "stop": 0.02, "count": 2}
        config["sweep"]["frequency"]["count"] = 5
        path = tmp_path / "low_field.yaml"
        path.write_text(yaml.safe_dump(config))
        assert run(["map", path, "--out", tmp_path / "x.csv"]) == 3

    @pytest.mark.parametrize(
        "command, name, key, value",
        [
            ("map", "sphere_0p45mm_map.yaml", "g", 1e200),  # g**2 in the kernel
            ("spectrum", "sphere_0p45mm_spectrum.yaml", "g", 1e200),
            ("derive", "derive_0p45mm.yaml", "g", 1e153),  # (g/g_B)**2
            ("scaling", "scaling_g_kittel.yaml", "diameter_m", 1e102),  # the sphere volume's cube
            ("spectrum", "sphere_0p45mm_spectrum.yaml", "--beta-db", 4000),  # 10 ** (beta_db / 10)
        ],
        ids=["map", "spectrum", "derive", "scaling", "beta-db"],
    )
    def test_float_overflow_is_a_domain_error(self, tmp_path, capsys, command, name, key, value):
        config = yaml.safe_load((CONFIG_DIR / name).read_text())
        data = tmp_path / "points.csv"
        flags = []
        if key == "g":
            config["system"]["modes"][0]["g"] = value
        elif key == "diameter_m":
            data.write_text(f"diameter_m,value\n{value!r},28.6\n0.75e-3,67.3\n")
            flags = ["--data", data]
        else:
            flags = [key, str(value)]
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "out.csv"
        assert run([command, path, "--out", out] + flags) == 3
        # one readable line, not the errno tuple of the OverflowError's args
        assert capsys.readouterr() == ("", "numeric domain error: a float result overflowed\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, name",
        [
            ("spectrum", "bare_cavity.yaml"),
            ("spectrum", "sphere_0p45mm_spectrum.yaml"),
            ("map", "sphere_0p45mm_map.yaml"),
        ],
        ids=["no_modes", "one_mode", "map"],
    )
    def test_a_non_finite_beta_db_is_a_config_error_with_or_without_modes(
        self, tmp_path, capsys, command, name, value
    ):
        out = tmp_path / "out.csv"
        assert run([command, CONFIG_DIR / name, "--out", out, f"--beta-db={value}"]) == 2
        assert capsys.readouterr() == ("", f"config error: --beta-db must be finite, got {float(value)!r}\n")
        assert not out.exists()

    # the kittel mode sits on the frequency point 10.6316 GHz, where g**2 * chi = 1e20 * 1e300i overflows D
    NON_FINITE = {
        "system": {
            "cavity": {"f_c": 10.632e9, "kappa_e": 2.1e6, "kappa_i": 0.6e6},
            "modes": [{"label": "kittel", "g": 1.0e10, "gamma": 1.0e-300, "delta": 3.61e-3,
                       "field_map": {"kind": "kittel"}}],
        },
        "sweep": {"field": {"start": 0.3797, "stop": 0.3797, "count": 1},
                  "frequency": {"start": 10.482e9, "stop": 10.782e9, "count": 1501}},
        "observable": "eta",
    }

    @pytest.mark.parametrize(
        "command, cell",
        [("spectrum", "re_s31_kittel is nan"), ("map", "eta is nan")],
        ids=["spectrum", "map"],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_a_non_finite_cell_is_one_domain_error_line(self, tmp_path, command, cell, to_file):
        path = tmp_path / "non_finite.yaml"
        path.write_text(yaml.safe_dump(self.NON_FINITE))
        out = tmp_path / "out.csv"
        done = run_process([command, path] + (["--out", out] if to_file else []))
        # no numpy RuntimeWarning before the line, and nothing written
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", f"numeric domain error: {cell} at B = 0.3797 T, f = 10631600000.0 Hz\n"
        )
        assert not out.exists()

    def test_finite_cells_computed_through_an_overflow_keep_their_bytes_and_warn_nothing(self, tmp_path):
        # |S21|^2 is finite (0) where D overflows: exit 0, the row-by-row bytes, and an empty stderr
        path = tmp_path / "non_finite_s21.yaml"
        path.write_text(yaml.safe_dump({**self.NON_FINITE, "observable": "s21_power"}))
        done = subprocess.run(cli_argv(["map", path]), env=CLI_ENV, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == map_reference(path)

    def test_a_fit_no_parameter_can_move_does_not_converge(self, tmp_path, capsys):
        # the kittel mode of fit_0p45mm has delta 0, so S31 = 0 whatever the parameters: a zero start gradient
        data = tmp_path / "spectrum.csv"
        assert run(["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml", "--out", data]) == 0
        config = yaml.safe_load((CONFIG_DIR / "fit_0p45mm.yaml").read_text())
        config["fit"]["observable"] = "s31.kittel"
        path = tmp_path / "fit_s31.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "fit.csv"
        assert run(["fit", path, "--data", data, "--out", out]) == 4
        stats = {r["name"]: r["value"] for r in read_csv(out) if r["kind"] == "stat"}
        assert (stats["converged"], stats["jacobian_condition_estimate"]) == ("false", "inf")

    @pytest.mark.parametrize("loss", ["complex_residual", "power_and_phase_residual"])
    def test_a_fit_whose_start_cost_overflows_is_one_domain_error_line(self, tmp_path, loss):
        data = tmp_path / "huge.csv"
        data.write_text("f_hz,re_s21,im_s21\n1e10,1e308,1e308\n1.1e10,1e308,0.2\n")
        config = yaml.safe_load((CONFIG_DIR / "fit_0p45mm.yaml").read_text())
        config["fit"]["loss"] = loss
        path = tmp_path / "fit.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "fit.csv"
        done = run_process(["fit", path, "--data", data, "--out", out])
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            "numeric domain error: the fit's start cost is inf: its residuals are not finite or overflow when squared\n"
        )
        assert not out.exists()

    def test_stdout_output(self, capsys):
        assert run(["scaling", CONFIG_DIR / "scaling_g_kittel.yaml", "--data", CONFIG_DIR / "points_g_kittel.csv"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("kind,name,value")


# mode labels that need quoting in a CSV cell, or are not ASCII
mode_labels = st.text(st.one_of(st.sampled_from(',"\r\n '), st.characters(codec="utf-8")), min_size=1, max_size=6)


def spectrum_reference(path, flags=()) -> str:
    """The text `spectrum` writes for the config at ``path``, built row by row with ``csv.writer``.

    Any ``flags`` stand for ``--unwrap --beta-db 20``.
    """
    config = mc.load_config(path)
    system = config.system
    if flags:
        system = mc.apply_params(system, {f"beta.{m.label}": 10.0 ** (20 / 10) for m in system.modes})
    f = config.frequency_grid.values()
    s21, s31 = mc.amplitudes(f, system, float(config.field_grid.values()[0]) if config.field_grid else 0.0)
    columns = {"f_hz": f}
    for label, values in {"s21": s21, "s11": 1.0 + s21, **{f"s31_{k}": v for k, v in s31.items()}}.items():
        phase = mc.principal_phase(values)
        columns.update({
            f"re_{label}": values.real,
            f"im_{label}": values.imag,
            f"abs2_{label}": np.abs(values) ** 2,
            f"arg_{label}": np.unwrap(phase) if flags else phase,
        })
    columns["eta"] = sum((np.abs(v) ** 2 for v in s31.values()), np.zeros_like(f))
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(columns)
    for k in range(f.size):
        writer.writerow([format(float(column[k]), ".17g") for column in columns.values()])
    return text.getvalue()


def derive_reference(path) -> str:
    """The text `derive` writes for the config at ``path``, built row by row with ``csv.writer``."""
    config = mc.load_config(path)
    system, spec = config.system, config.derive
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["mode", "quantity", "derived", "reference", "rel_dev"])
    for mode in system.modes:
        params = mc.derive_mode_params(
            g=mode.g, gamma=mode.gamma, cavity=system.cavity, material=system.material,
            optical=system.optical, V_c=spec.cavity_volume, g_B=spec.g_B,
        )
        reference = spec.reference.get(mode.label, {})
        for name, value in dataclasses.asdict(params).items():
            if name in reference:
                ref = reference[name]
                cells = [value, ref, abs(value - ref) / abs(ref) if ref != 0 else math.inf]
                writer.writerow([mode.label, name] + [format(cell, ".17g") for cell in cells])
            else:
                writer.writerow([mode.label, name, format(value, ".17g"), "", ""])
    return text.getvalue()


def map_reference(path, unwrap: bool = False) -> bytes:
    """The bytes of `map` on ``path``, each row written on its own by ``csv.writer``."""
    config = mc.load_config(path)
    sweep = mc.sweep_map(config.system, config.field_grid.values(), config.frequency_grid.values(), config.observable)
    values = np.unwrap(sweep.values, axis=1) if unwrap else sweep.values
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(["B_T", "f_hz", "value"])
    for k, B in enumerate(sweep.fields):
        for l, f in enumerate(sweep.frequencies):
            writer.writerow([format(float(v), ".17g") for v in (B, f, values[k, l])])
    return reference.getvalue().encode()


def modes_reference(path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `modes` on ``path``, each row from its own one-query solve.

    The rows stop at the first one that raises, as the command's do.
    """
    try:
        parsed = mc.load_config(path)
    except mc.ConfigError as exc:
        return 2, "", f"config error: {exc}\n"
    spec, material = parsed.modes_table, parsed.system.material
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(["B_T", "i", "j", "sign_branch", "f_closed_hz", "f_solver_hz", "rel_diff"])
    for B in spec.field_grid.values().tolist():
        for i, j in spec.indices:
            signed_j = j if spec.sign_branch == "plus" else -j
            closed_map = magnetostatics.closed_form_map(i, signed_j)
            try:
                closed = None if closed_map is None else mc.mode_frequency(closed_map, B, material)
                window = None if closed is None else magnetostatics.closed_form_window(closed, material)
                root = mc.solve_walker_mode(mc.WalkerModeQuery(i, signed_j, B), material, window)
            except mc.DomainError as exc:
                return 3, reference.getvalue(), f"numeric domain error: {exc}\n"
            except ValueError as exc:
                return 2, reference.getvalue(), f"config error: {exc}\n"
            closed_cell, rel = ("", "") if closed is None else (closed, abs(root - closed) / closed)
            writer.writerow([format(B, ".17g"), i, j, spec.sign_branch] + [
                cell if cell == "" else format(cell, ".17g") for cell in (closed_cell, root, rel)
            ])
    return 0, reference.getvalue(), ""


# index pairs of generated `modes` tables: (2,0), the closed-form families and pairs without a closed form
MODES_PAIRS = [(1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (4, 2)]


@st.composite
def modes_tables(draw):
    """(indices, sign_branch, (start, stop, count)) of a `modes` table.

    Its field grid lies above mu0_Ms/3 (0.0593 T for the default material),
    crosses it, or starts at or below 0 T.
    """
    indices = draw(st.lists(st.sampled_from(MODES_PAIRS).map(list), min_size=1, max_size=6))
    start = draw(st.one_of(st.floats(0.3, 0.45), st.floats(0.01, 0.0593), st.floats(-0.1, 0.0)))
    count = draw(st.integers(1, 9))
    stop = start if count == 1 else start + draw(st.floats(0.005, 0.3))
    return indices, draw(st.sampled_from(["plus", "minus"])), (start, stop, count)


class TestCsvContract:
    """Bytes of the CSV every subcommand writes: .17g cells, \r\n rows, minimal quoting."""

    @pytest.mark.parametrize("n_fields, n_frequencies", [(1, 1), (3, 7)], ids=["1x1", "3x7"])
    @pytest.mark.parametrize(
        "observable, unwrap",
        [(name, False) for name in OBSERVABLES] + [(name, True) for name in OBSERVABLES if name.endswith("_phase")],
        ids=lambda value: {True: "unwrap", False: "wrapped"}.get(value, value),
    )
    def test_map_bytes_equal_a_row_by_row_reference(self, tmp_path, observable, unwrap, n_fields, n_frequencies):
        config = yaml.safe_load((CONFIG_DIR / "sphere_0p75mm_map.yaml").read_text())
        config["observable"] = observable
        config["sweep"]["field"]["count"] = n_fields
        config["sweep"]["frequency"]["count"] = n_frequencies
        if n_fields == 1:
            config["sweep"]["field"]["stop"] = config["sweep"]["field"]["start"]
        if n_frequencies == 1:
            config["sweep"]["frequency"]["stop"] = config["sweep"]["frequency"]["start"]
        path = tmp_path / "small_map.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "map.csv"
        assert run(["map", path, "--out", out] + ["--unwrap"] * unwrap) == 0
        assert out.read_bytes() == map_reference(path, unwrap)
        config = mc.load_config(path)
        values = mc.sweep_map(
            config.system, config.field_grid.values(), config.frequency_grid.values(), config.observable
        ).values
        cells = [float(r["value"]) for r in read_csv(out)]
        assert cells == (np.unwrap(values, axis=1) if unwrap else values).ravel().tolist()
        assert len(cells) == n_fields * n_frequencies

    @settings(max_examples=60, deadline=None)
    # blocks of about 1 slot (one field each) up to the whole table (at most 9 fields of 6 rows of 3 slots), formatted
    # in 1 to 3 processes
    @given(modes_tables(), st.integers(1, 162), st.integers(1, 3))
    @example(([[1, 1], [2, 0], [2, 1]], "plus", (0.3, 0.45, 7)), 5000, 1)  # closed forms: exit 0
    @example(([[2, 0], [4, 1]], "minus", (0.3, 0.45, 7)), 5000, 1)  # (4,-1) has no closed form: exit 0
    @example(([[2, 0], [3, 1], [4, 1]], "plus", (0.06, 0.3, 9)), 5000, 1)  # two (3,1) roots at the first field: exit 3
    @example(([[2, 0], [4, 1], [3, 1]], "minus", (0.3, 0.45, 9)), 5000, 1)  # one closed form, two bare pairs: exit 0
    # two (4,0) roots at the first field: exit 3
    @example(([[2, 0], [3, 0], [4, 0], [4, 1]], "minus", (0.3, 0.45, 9)), 5000, 1)
    # one closed form, three bare pairs: exit 0
    @example(([[2, 0], [4, 1], [4, 2], [3, 0]], "minus", (0.3, 0.45, 9)), 5000, 1)
    # every edge of (3,-1), (4,-2), (4,-1) and (5,-3) is scanned, across the chi pole in both sign classes: exit 0
    @example(([[3, 1], [4, 2], [4, 1], [5, 3]], "minus", (0.3, 0.45, 9)), 5000, 1)
    # a later (3,1) default window collapses (at 5e29 T): the first field's failing (3,1) row still ends the table
    @example(([[2, 2], [3, 1]], "plus", (0.3, 1e30, 3)), 5000, 1)
    # (2,-1) has no root above 0.0237 T: the table ends at field 7 (0.024 T), after its (3,-1) row (exit 3), in one
    # block, in a forked block of fields 6 and 7, and on the first field of a block, forked or not
    @example(([[3, 1], [2, 1]], "minus", (0.01, 0.026, 9)), 5000, 3)
    @example(([[3, 1], [2, 1]], "minus", (0.01, 0.026, 9)), 4, 2)
    @example(([[3, 1], [2, 1]], "minus", (0.01, 0.026, 9)), 14, 2)
    @example(([[3, 1], [2, 1]], "minus", (0.01, 0.026, 9)), 2, 1)
    def test_modes_bytes_equal_a_row_by_row_reference(self, tmp_path_factory, table, block_cells, cpus):
        indices, branch, (start, stop, count) = table
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"] = {
            "field": {"start": start, "stop": stop, "count": count}, "indices": indices, "sign_branch": branch
        }
        path = tmp_path_factory.getbasetemp() / "table.yaml"
        path.write_text(yaml.safe_dump(config))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_CELLS", block_cells)
            patch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
            with contextlib.redirect_stdout(io.StringIO(newline="")) as stdout:
                with contextlib.redirect_stderr(io.StringIO()) as stderr:
                    code = run(["modes", path])
        assert (code, stdout.getvalue(), stderr.getvalue()) == modes_reference(path)


    @pytest.mark.parametrize("flags", [[], ["--unwrap", "--beta-db", "20"]], ids=["plain", "unwrap_beta_db_20"])
    @pytest.mark.parametrize("name", ["bare_cavity", "sphere_0p45mm_spectrum"])
    def test_spectrum_bytes_equal_a_row_by_row_reference(self, tmp_path, name, flags):
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", CONFIG_DIR / f"{name}.yaml", "--out", out] + flags) == 0
        assert out.read_bytes() == spectrum_reference(CONFIG_DIR / f"{name}.yaml", flags).encode()

    def test_map_to_stdout_gives_the_file_bytes(self, tmp_path, capsysbinary):
        out = tmp_path / "map.csv"
        assert run(["map", CONFIG_DIR / "sphere_0p45mm_map.yaml", "--out", out]) == 0
        capsysbinary.readouterr()
        assert run(["map", CONFIG_DIR / "sphere_0p45mm_map.yaml", "--out", "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml"],
            ["map", CONFIG_DIR / "sphere_0p45mm_map.yaml"],
            ["modes", CONFIG_DIR / "walker_modes.yaml"],
            ["derive", CONFIG_DIR / "derive_0p45mm.yaml"],
            ["scaling", CONFIG_DIR / "scaling_g_kittel.yaml", "--data", CONFIG_DIR / "points_g_kittel.csv"],
        ],
        ids=["spectrum", "map", "modes", "derive", "scaling"],
    )
    def test_rows_end_in_crlf(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", out]) == 0
        data = out.read_bytes()
        assert data.endswith(b"\r\n")
        assert data.count(b"\n") == data.count(b"\r\n") == len(read_csv(out)) + 1

    def test_float_cells_round_trip_exactly(self, tmp_path):
        from magnoncavity import cli

        values = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1 / 3, -2.5e300, 0.1, 10.632e9, math.pi]
        out = tmp_path / "floats.csv"
        cli._write_csv(str(out), ["value"], [cli._csv_text(zip(map(cli._fmt, np.array(values)))).encode()])
        cells = [row["value"] for row in read_csv(out)]
        assert [float(cell) for cell in cells] == values
        assert [math.copysign(1.0, float(cell)) for cell in cells] == [math.copysign(1.0, v) for v in values]
        assert cells[:3] == ["-0", "0", "4.9406564584124654e-324"]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(mode_labels, min_size=2, max_size=2, unique=True))
    @example(['ms"m, (2,0)', "a\r\nb"])
    @example(["ü ", '"'])
    def test_text_cells_are_written_as_csv_writer_writes_them(self, tmp_path_factory, labels):
        # one config for both commands: derive's two modes, with a short spectrum sweep
        config = yaml.safe_load((CONFIG_DIR / "derive_0p45mm.yaml").read_text())
        config["sweep"] = yaml.safe_load((CONFIG_DIR / "sphere_0p45mm_spectrum.yaml").read_text())["sweep"]
        config["sweep"]["frequency"]["count"] = 5
        reference = config["derive"]["reference"]
        for mode, label in zip(config["system"]["modes"], labels):
            reference[label] = reference.pop(mode["label"])
            mode["label"] = label
        work = tmp_path_factory.getbasetemp()
        path = work / "labels.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        for command, expected in [("spectrum", spectrum_reference(path)), ("derive", derive_reference(path))]:
            out = work / f"{command}.csv"
            with contextlib.redirect_stdout(io.StringIO(newline="")) as stdout:
                assert run([command, path]) == 0
            assert stdout.getvalue() == expected
            assert run([command, path, "--out", out]) == 0
            assert out.read_bytes() == expected.encode()
        with open(work / "spectrum.csv", encoding="utf-8", newline="") as handle:
            names = csv.DictReader(handle).fieldnames
        assert [name for name in names if name.startswith("re_s31_")] == [f"re_s31_{label}" for label in labels]
        assert list(dict.fromkeys(row["mode"] for row in read_csv(work / "derive.csv"))) == labels

    @settings(max_examples=100, deadline=None)
    @given(st.floats())
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072014e-308 / 3)
    @example(1.7976931348623157e308)
    @example(-1.7976931348623157e308)
    def test_percent_format_is_the_format_of_a_cell(self, x):
        # numeric rows fill b"%.17g" templates; every other cell is format(x, ".17g"), encoded
        assert b"%.17g" % x == ("%.17g" % x).encode() == format(x, ".17g").encode() == cli._fmt(x).encode()

    def test_spectrum_cells_round_trip_exactly(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml", "--out", out]) == 0
        rows = read_csv(out)
        config = mc.load_config(CONFIG_DIR / "sphere_0p45mm_spectrum.yaml")
        f = config.frequency_grid.values()
        s21 = mc.s21(f, config.system, float(config.field_grid.values()[0]))
        assert [float(r["f_hz"]) for r in rows] == f.tolist()
        assert [float(r["re_s21"]) for r in rows] == s21.real.tolist()
        assert [float(r["im_s21"]) for r in rows] == s21.imag.tolist()

    def test_derive_label_with_comma_and_quote_is_quoted(self, tmp_path):
        config = yaml.safe_load((CONFIG_DIR / "derive_0p45mm.yaml").read_text())
        label = 'ms"m, (2,0)'
        config["system"]["modes"][1]["label"] = label
        config["derive"]["reference"] = {label: {"N": 0.0}}
        path = tmp_path / "quoted.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "derive.csv"
        assert run(["derive", path, "--out", out]) == 0
        lines = out.read_bytes().split(b"\r\n")
        assert lines[0] == b"mode,quantity,derived,reference,rel_dev"
        assert lines[1].startswith(b"kittel,g_B,")
        assert lines[1].endswith(b",,")  # no reference cell: empty reference and rel_dev
        quoted = [line for line in lines if line.startswith(b'"ms""m, (2,0)",')]
        assert len(quoted) == 7
        assert quoted[1].startswith(b'"ms""m, (2,0)",N,') and quoted[1].endswith(b",0,inf")
        assert {r["mode"] for r in read_csv(out)} == {"kittel", label}

    def test_modes_without_closed_form_have_empty_cells(self, tmp_path):
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"]["indices"] = [[1, 1], [3, 0]]  # (3, 0) has no closed form
        config["modes_table"]["field"]["count"] = 2
        path = tmp_path / "open.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "modes.csv"
        assert run(["modes", path, "--out", out]) == 0
        rows = read_csv(out)
        assert [(r["i"], r["j"]) for r in rows] == [("1", "1"), ("3", "0")] * 2
        for row in rows:
            no_closed_form = row["i"] == "3"
            assert (row["f_closed_hz"] == "") == no_closed_form
            assert (row["rel_diff"] == "") == no_closed_form
            assert float(row["f_solver_hz"]) > 0
        lines = out.read_bytes().split(b"\r\n")
        assert lines[2].startswith(b"0.29999999999999999,3,0,plus,,")
        assert lines[2].endswith(b",")

    @pytest.mark.parametrize("observable, code", [("s21", 0), ("s31.kittel", 4)], ids=["converged", "exit_4"])
    def test_fit_rows_are_estimates_then_stats_then_trace(self, tmp_path, observable, code):
        if code == 0:
            data = TestFitCommand().synthesize_data(tmp_path)
        else:  # as in test_a_fit_no_parameter_can_move_does_not_converge: S31 of a delta-0 mode is 0
            data = tmp_path / "spectrum.csv"
            assert run(["spectrum", CONFIG_DIR / "sphere_0p45mm_spectrum.yaml", "--out", data]) == 0
        config = yaml.safe_load((CONFIG_DIR / "fit_0p45mm.yaml").read_text())
        config["fit"]["observable"] = observable
        path = tmp_path / "fit.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "fit.csv"
        assert run(["fit", path, "--data", data, "--out", out]) == code
        rows = read_csv(out)
        free = sorted(config["fit"]["free"])
        stats = ["rms_residual", "iterations", "converged", "stop_reason", "jacobian_condition_estimate", "loss"]
        n_trace = len(rows) - len(free) - len(stats)
        assert n_trace >= (2 if code == 0 else 1)
        assert [(r["kind"], r["name"]) for r in rows] == (
            [("estimate", name) for name in free]
            + [("stat", name) for name in stats]
            + [("trace", str(k)) for k in range(n_trace)]
        )
        by_name = {r["name"]: r["value"] for r in rows}
        assert by_name["converged"] == ("true" if code == 0 else "false")
        # the seeded fit ends on its gradient test; the blind s31 fit's normal equations are singular
        assert by_name["stop_reason"] == ("gradient" if code == 0 else "singular")
        assert by_name["loss"] == "complex_residual"
        assert int(by_name["iterations"]) == n_trace - 1
        assert float(by_name["rms_residual"]) == float(rows[-1]["value"])


CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}


def cli_argv(args):
    """The argv of the CLI in a child interpreter on this checkout's package."""
    return [sys.executable, "-m", "magnoncavity.cli", *map(str, args)]


def run_process(args, **kwargs):
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run(cli_argv(args), env=CLI_ENV, text=True, **kwargs)


def percent_17g(values) -> list[bytes]:
    """``b"%.17g" % x`` for each float64 of ``values``: CPython's own conversion, value by value."""
    return [b"%.17g" % x for x in np.asarray(values, dtype=np.float64).ravel().tolist()]


def powers_of_ten_carried() -> list[float]:
    """The doubles nearest 10**k, k in the cell table's range, that lie just below it: their 17 digits round up to it.

    1e-14 and 1e+153 are two: N = 10**17 there, carried to 10**16 and the next X.
    """
    carried = []
    for k in cells.EXPONENTS:
        power = fractions.Fraction(10) ** k
        nearest = float(power)
        if 0 < 10**17 - fractions.Fraction(nearest) / power * 10**17 <= fractions.Fraction(1, 2):
            carried.append(nearest)
    return carried


def cell_edges() -> np.ndarray:
    """Edge values of the cells: zero, subnormal, the ends of the float range, %g's switch points, every power of ten
    of the table's range and beyond with its neighbours, around 2**53, the powers of ten that carry, and exact ties."""
    powers = np.array([10.0**k for k in range(cells.EXPONENTS.start - 30, 309)])
    values = [
        0.0, 5e-324, sys.float_info.min, np.nextafter(sys.float_info.min, 0), sys.float_info.max,
        1e-5, 1e-4, 1e16, 1e17, 2.0**53, 2.0**53 - 1, 2.0**53 + 2, np.nextafter(2.0**53, 0), 2.0**63, 2.0**64,
        1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125,  # ties of the 17th digit, which CPython rounds half to even
        *powers, *np.nextafter(powers, 0), *np.nextafter(powers, np.inf), *powers_of_ten_carried(),
    ]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestCells:
    """cli._cells: b"%.17g" % x for every float64 x, byte for byte, from its vectorized path or from CPython."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    @example([1e-5, 1e-4, 9.9999999999999e16, 1e17, -1.5e17])  # %g's switch points: X = -5, -4, 16 and 17
    def test_any_finite_float(self, values):
        assert cli._cells(np.array(values)) == percent_17g(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_any_bit_pattern(self, patterns):
        values = np.array(patterns, dtype=np.uint64).view(np.float64)  # NaN and infinities among them
        assert cli._cells(values) == percent_17g(values)

    # a small pool, so that runs of equal bits and signed zeros are common: zero, a subnormal, values of the digit
    # pipeline, a tie of the 17th digit, NaNs of two payloads and the infinities
    POOL = [
        0.0, -0.0, 5e-324, 1.5, -1.5, 1e300, 1e15 + 0.25,
        *np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(np.float64).tolist(),
        math.inf, -math.inf,
    ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(POOL), min_size=1, max_size=50))
    @example([0.0, -0.0, -0.0, 0.0, 1.5, 1.5])
    def test_runs_of_a_small_pool(self, values):
        assert cli._cells(np.array(values)) == percent_17g(values)

    @pytest.mark.parametrize(
        "argv, most",
        [
            # 3819 cells, whose roots mostly equal the closed form before them and so have a rel_diff of 0: 1449 laid
            (["modes", CONFIG_DIR.parent / "bench" / "inputs" / "walker_table.yaml"], 1500),
            (["spectrum", CONFIG_DIR / "bare_cavity.yaml"], 8010 - 801),  # 801 rows of 10 cells, eta 0 in each
        ],
        ids=["walker_table", "bare_cavity"],
    )
    def test_only_the_nonzero_first_value_of_each_run_is_laid_out(self, tmp_path, monkeypatch, argv, most):
        calls, laid = [], []
        cells_of, significands = cells.cells, cells.significands
        monkeypatch.setattr(cells, "cells", lambda values: calls.append(np.ravel(values)) or cells_of(values))
        monkeypatch.setattr(cells, "significands", lambda v: laid.append(v.copy()) or significands(v))
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 10**6)  # one block, formatted in this process
        assert run(argv + ["--out", tmp_path / "table.csv"]) == 0
        [values] = calls
        patterns = values.view(np.uint64)
        first = np.concatenate([[True], patterns[1:] != patterns[:-1]])
        expected = values[first & (values != 0)]
        assert [v.view(np.uint64).tolist() for v in laid] == [expected.view(np.uint64).tolist()]
        assert expected.size <= most

    def test_edge_values(self):
        values = cell_edges()
        assert cli._cells(values) == percent_17g(values)
        assert {1e-14, 1e153} <= set(powers_of_ten_carried())  # the carry is among them

    def test_random_values_of_every_magnitude(self):
        rng = np.random.default_rng(36)
        values = np.concatenate([
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
            rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.uniform(-30.0, 30.0, 20_000),
            np.round(rng.uniform(-1e4, 1e4, 20_000), 3),  # short decimals: trailing zeros stripped
            rng.integers(-10**6, 10**6, 20_000) / 4,  # exact binary fractions
        ])
        assert cli._cells(values) == percent_17g(values)

    def test_a_tie_of_the_17th_digit_goes_to_cpython(self):
        _, _, slow = cells.significands(np.array([1e15 + 0.25, 1e15 + 0.5]))
        assert slow.tolist() == [True, False]

    def test_values_forced_through_cpython_are_its_bytes(self, monkeypatch):
        monkeypatch.setattr(cells, "TIE_MARGIN", 1.0)  # every value lies within 1.0 of a tie
        values = np.concatenate([cell_edges(), np.random.default_rng(7).normal(size=1000)])
        _, _, slow = cells.significands(values)
        assert slow.all()
        assert cli._cells(values) == percent_17g(values)

    def test_shapes_and_types(self):
        assert cli._cells(np.empty(0)) == []
        assert cli._cells(np.array([[0.5, -2.0], [1e22, 3]])) == [b"0.5", b"-2", b"1e+22", b"3"]
        assert cli._cells([1, 2.5]) == [b"1", b"2.5"]

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(OBSERVABLES),
        st.floats(0.30, 0.45),
        st.floats(1e-4, 0.02),
        st.integers(1, 6),
        st.floats(10.3e9, 10.9e9),
        st.floats(1e6, 0.4e9),
        st.integers(1, 40),
        st.integers(1, 100),
    )
    def test_map_bytes_equal_a_row_by_row_reference(
        self, tmp_path_factory, observable, b_start, b_span, n_fields, f_start, f_span, n_frequencies, block_cells
    ):
        config = yaml.safe_load((CONFIG_DIR / "sphere_0p75mm_map.yaml").read_text())
        config["observable"] = observable
        config["sweep"] = {
            "field": {"start": b_start, "stop": b_start + b_span * (n_fields > 1), "count": n_fields},
            "frequency": {"start": f_start, "stop": f_start + f_span * (n_frequencies > 1), "count": n_frequencies},
        }
        path = tmp_path_factory.getbasetemp() / "random_map.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path_factory.getbasetemp() / "random_map.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_CELLS", block_cells)  # blocks of one field up to all of them
            assert run(["map", path, "--out", out]) == 0
        assert out.read_bytes() == map_reference(path)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.30, 0.45),
        st.floats(10.3e9, 10.9e9),
        st.floats(1e6, 0.4e9),
        st.integers(1, 300),
        st.integers(1, 24 * 300),
    )
    def test_spectrum_bytes_equal_a_row_by_row_reference(
        self, tmp_path_factory, field, f_start, f_span, count, block_cells
    ):
        config = yaml.safe_load((CONFIG_DIR / "sphere_0p45mm_spectrum.yaml").read_text())
        config["sweep"] = {
            "field": {"start": field, "stop": field, "count": 1},
            "frequency": {"start": f_start, "stop": f_start + f_span * (count > 1), "count": count},
        }
        path = tmp_path_factory.getbasetemp() / "random_spectrum.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path_factory.getbasetemp() / "random_spectrum.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_CELLS", block_cells)  # blocks of one frequency row up to all of them
            assert run(["spectrum", path, "--out", out]) == 0
        assert out.read_bytes() == spectrum_reference(path).encode()


class TestWriteErrors:
    """A write that fails after its target opened exits 2 with one line and no traceback."""

    MAP = ["map", CONFIG_DIR / "sphere_0p45mm_map.yaml"]  # 0.7 MB of CSV, more than a pipe holds

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("command", [MAP, ["modes", CONFIG_DIR / "walker_modes.yaml"]], ids=["map", "modes"])
    def test_a_full_device_is_a_config_error(self, command):
        done = run_process(command + ["--out", "/dev/full"])
        assert (done.returncode, done.stderr) == (
            2, "config error: cannot write output file /dev/full: [Errno 28] No space left on device\n"
        )
        with open("/dev/full", "w") as full:
            done = run_process(command, stdout=full)
        assert (done.returncode, done.stderr) == (
            2, "config error: cannot write output to stdout: [Errno 28] No space left on device\n"
        )
        assert Path("/dev/full").is_char_device()

    def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(self):
        argv = cli_argv(self.MAP)
        with subprocess.Popen(argv, env=CLI_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
            assert child.stdout.readline() == "B_T,f_hz,value\n"
            child.stdout.close()
            stderr = child.stderr.read()
        assert (child.returncode, stderr) == (2, "config error: cannot write output to stdout: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
    def test_a_failed_out_write_leaves_no_partial_file(self, tmp_path):
        import resource

        def small_files():  # in the child: files stop growing at 64 KiB, and a write past it fails with EFBIG
            resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

        out = tmp_path / "map.csv"
        done = run_process(self.MAP + ["--out", out], preexec_fn=small_files)
        assert (done.returncode, done.stderr) == (2, f"config error: cannot write output file {out}: [Errno 27] File too large\n")
        assert not out.exists()


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.filterwarnings("error::DeprecationWarning")
class TestParallelMap:
    """The numeric tables' field blocks are formatted in min(CPUs, blocks) processes: the bytes do not depend on it."""

    MAP = ["map", CONFIG_DIR / "sphere_0p45mm_map.yaml"]  # 22 fields of 0.03 MB each, more than a pipe holds

    @pytest.fixture(autouse=True)
    def one_field_per_block(self, monkeypatch):
        """Blocks of one field each (_write_table packs fields into blocks of about _BLOCK_CELLS cells): MAP has 22."""
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 1)

    @pytest.fixture(params=["map", "modes"])
    def table(self, request, tmp_path):
        """(argv, exit code, bytes, blocks) of MAP, or of a `modes` table that ends at a failing row of its block 7.

        (2,-1) has no root above 0.0237 T: the table ends after the (3,-1) row of its eighth field, 0.024 T, so its
        last block comes after at least 3 forked ones.
        """
        if request.param == "map":
            return self.MAP, 0, map_reference(self.MAP[1]), 22
        config = yaml.safe_load((CONFIG_DIR / "walker_modes.yaml").read_text())
        config["modes_table"] = {
            "field": {"start": 0.01, "stop": 0.026, "count": 9}, "indices": [[3, 1], [2, 1]], "sign_branch": "minus"
        }
        path = tmp_path / "table.yaml"
        path.write_text(yaml.safe_dump(config))
        code, text, _ = modes_reference(path)
        assert (code, text.count("\r\n")) == (3, 16)  # the header and 15 rows
        return ["modes", path], code, text.encode(), 8

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the processes os.fork makes, with the DeprecationWarning of Python 3.12+ in a threaded process.

        numpy's BLAS pool is such a thread; the warning must not reach stderr
        (it does under ``python -m``), and a test that lets it out fails.
        """
        pids = []
        fork = os.fork

        def counted_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks"
                          " in the child.", DeprecationWarning, stacklevel=2)
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    @pytest.mark.parametrize("fields_per_block", [1, 2])
    @pytest.mark.parametrize("n_fields", [1, 2, 5])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_bytes_equal_a_row_by_row_reference(
        self, tmp_path, monkeypatch, capsysbinary, forks, cpus, n_fields, fields_per_block
    ):
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(cli, "_BLOCK_CELLS", 7 * fields_per_block)
        config = yaml.safe_load((CONFIG_DIR / "sphere_0p45mm_map.yaml").read_text())
        config["sweep"]["field"]["count"] = n_fields
        config["sweep"]["frequency"]["count"] = 7
        if n_fields == 1:
            config["sweep"]["field"]["stop"] = config["sweep"]["field"]["start"]
        path = tmp_path / "small_map.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "map.csv"
        assert run(["map", path, "--out", out]) == 0
        assert_no_child_process()
        assert run(["map", path]) == 0
        assert_no_child_process()
        reference = map_reference(path)
        assert capsysbinary.readouterr() == (reference, b"")
        assert out.read_bytes() == reference
        n_blocks = -(-n_fields // fields_per_block)
        assert len(forks) == 2 * (min(cpus, n_blocks) - 1)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_success_leaves_no_process(self, tmp_path, monkeypatch, forks, cpus, table):
        argv, code, reference, _ = table
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
        out = tmp_path / "table.csv"
        assert run(argv + ["--out", out]) == code
        assert_no_child_process()
        assert out.read_bytes() == reference
        assert len(forks) == cpus - 1

    def test_one_process_where_there_is_no_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: 3)
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "map.csv"
        assert run(self.MAP + ["--out", out]) == 0
        assert out.read_bytes() == map_reference(self.MAP[1])

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_closed_stdout_pipe_leaves_no_process(self, monkeypatch, capsys, forks, cpus, table):
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        with monkeypatch.context() as patch, open(write_fd, "w") as stdout:
            patch.setattr(sys, "stdout", stdout)
            code = run(table[0])
        assert_no_child_process()
        assert (code, capsys.readouterr().err) == (
            2, "config error: cannot write output to stdout: [Errno 32] Broken pipe\n"
        )
        assert len(forks) == cpus - 1

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_full_device_leaves_no_process(self, monkeypatch, capsys, forks, cpus, table):
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
        assert run(table[0] + ["--out", "/dev/full"]) == 2
        assert_no_child_process()
        assert capsys.readouterr().err == (
            "config error: cannot write output file /dev/full: [Errno 28] No space left on device\n"
        )
        assert len(forks) == cpus - 1

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_child_killed_mid_stream_is_a_write_error(
        self, tmp_path, monkeypatch, capsys, forks, cpus, to_file, table
    ):
        # the child that formats block 5 kills itself there, after writing its earlier blocks
        argv, _, _, n_blocks = table
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: cpus)
        parallel_blocks = cli._parallel_blocks

        def dying_child(block, n):
            parent = os.getpid()

            def block_or_death(k):
                if k == 5 and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return block(k)

            return parallel_blocks(block_or_death, n)

        monkeypatch.setattr(cli, "_parallel_blocks", dying_child)
        out = tmp_path / "table.csv"
        target = f"file {out}" if to_file else "to stdout"
        with monkeypatch.context() as patch:
            if not to_file:  # a stdout of its own, which the failed write points at os.devnull
                patch.setattr(sys, "stdout", open(tmp_path / "stdout.csv", "w"))
            code = run(argv + (["--out", out] if to_file else []))
            if not to_file:
                sys.stdout.close()
        assert_no_child_process()
        assert (code, capsys.readouterr().err) == (
            2,
            f"config error: cannot write output {target}: the process formatting block 5 of {n_blocks} ended before"
            " writing it\n",
        )
        assert not out.exists()
        assert len(forks) == cpus - 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_an_interrupted_write_leaves_no_process(self, monkeypatch, forks, cpus, table):
        monkeypatch.setattr(mc.scattering, "_cpu_count", lambda: cpus)

        class InterruptedStdout(io.StringIO):  # no binary buffer: the writer writes decoded text here
            def write(self, text):
                if self.tell():  # the header is written, then the first block raises
                    raise KeyboardInterrupt
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", InterruptedStdout())
        with pytest.raises(KeyboardInterrupt) as interrupted:
            run(table[0])
        # the children are gone while the traceback still holds every frame of the command, and its generator
        assert interrupted.traceback[-1].name == "write"
        assert_no_child_process()
        assert len(forks) == cpus - 1


def labelled_config(path: Path) -> Path:
    """A derive config whose first mode is labelled "kittel_ü", with a 5-point spectrum sweep, written to ``path``."""
    config = yaml.safe_load((CONFIG_DIR / "derive_0p45mm.yaml").read_text().replace("kittel", "kittel_ü"))
    config["sweep"] = yaml.safe_load((CONFIG_DIR / "sphere_0p45mm_spectrum.yaml").read_text())["sweep"]
    config["sweep"]["frequency"]["count"] = 5
    path.write_text(yaml.safe_dump(config, allow_unicode=True), encoding="utf-8")
    return path


class TestStdoutBytes:
    """Stdout gets the UTF-8 bytes of --out, whatever stdout's text encoding."""

    @pytest.mark.parametrize(
        "env",
        [
            {"PYTHONIOENCODING": "latin-1"},
            {"PYTHONIOENCODING": "ascii"},
            {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": ""},
        ],
        ids=["latin-1", "ascii", "c_locale"],
    )
    @pytest.mark.parametrize("command", ["derive", "spectrum"])
    def test_a_non_utf8_stdout_gets_the_file_bytes(self, tmp_path, command, env):
        path = labelled_config(tmp_path / "labels.yaml")
        out = tmp_path / "out.csv"
        assert run([command, path, "--out", out]) == 0
        assert "kittel_ü".encode() in out.read_bytes()
        done = subprocess.run(cli_argv([command, path]), env={**CLI_ENV, **env}, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == out.read_bytes()

    def test_text_printed_before_the_table_comes_out_first(self, tmp_path):
        path = labelled_config(tmp_path / "labels.yaml")
        out = tmp_path / "out.csv"
        assert run(["derive", path, "--out", out]) == 0
        # a piped, buffered stdout holds printed text in its text layer until it is flushed
        script = "import sys; from magnoncavity import cli; print('note'); sys.exit(cli.main(sys.argv[1:]))"
        argv = [sys.executable, "-c", script, "derive", str(path)]
        done = subprocess.run(argv, env={**CLI_ENV, "PYTHONUNBUFFERED": ""}, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == b"note\n" + out.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["derive", "labels.yaml"], ["map", CONFIG_DIR / "sphere_0p45mm_map.yaml"]],
        ids=["derive", "map"],
    )
    def test_a_stdout_without_a_binary_buffer_gets_the_file_text(self, tmp_path, argv):
        labelled_config(tmp_path / "labels.yaml")
        argv = [tmp_path / arg if arg == "labels.yaml" else arg for arg in argv]
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", out]) == 0
        with contextlib.redirect_stdout(io.StringIO(newline="")) as stdout:
            print("note")
            assert run(argv) == 0
        assert stdout.getvalue() == "note\n" + out.read_bytes().decode()


class TestParserReuse:
    """main() builds its parser once per process, and later calls behave as they do in a fresh process."""

    CALLS = [
        ["modes", CONFIG_DIR / "walker_modes.yaml"],
        ["derive", CONFIG_DIR / "derive_0p45mm.yaml"],
        ["map", CONFIG_DIR / "sphere_0p45mm_map.yaml", "--beta-db", "loud"],  # argparse: exit 2, usage on stderr
        ["--version"],
        [],  # no command: exit 2
        ["scaling", CONFIG_DIR / "scaling_g_kittel.yaml", "--data", CONFIG_DIR / "points_g_msm.csv"],
        ["spectrum", CONFIG_DIR / "bare_cavity.yaml", "--unwrap"],
        ["modes", CONFIG_DIR / "walker_modes.yaml"],
    ]

    def test_calls_in_one_process_behave_as_in_a_fresh_one(self, monkeypatch, capsysbinary):
        cli._parser.cache_clear()
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        in_process = []
        for args in self.CALLS:
            try:
                code = run(args)
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, *capsysbinary.readouterr()))
        assert len(builds) == 1

        fresh = []
        for args in self.CALLS:
            done = subprocess.run(cli_argv(args), env=CLI_ENV, capture_output=True)
            fresh.append((done.returncode, done.stdout, done.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 0, 0, 0]
        assert fresh[2][2].startswith(b"usage: magnoncavity map ")
        assert b"argument --beta-db: invalid float value: 'loud'" in fresh[2][2]
        assert fresh[3][1:] == (f"magnoncavity {mc.__version__}\n".encode(), b"")
        assert fresh[0] == fresh[-1]
