"""Command-line interface: config round-trips, output formats, exit codes."""

import io
import math
import subprocess
import sys

import pytest

import dynpath
import dynpath.validation as validation
from dynpath.cli import RunConfig, _sweep_values, main, parse_config_text
from dynpath.errors import ConfigurationError
from dynpath.model import LengthDist

BASIC = """
p = 0.5
q = 0.5
model = cant_start
edge = 1 0
edge = 0 0
"""

SINGLE_OFF_CUT = """
p = 0.5
q = 0.5
model = cant_start
edge = 0 0
"""


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def kv(text):
    result = {}
    for line in text.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            result[key] = val
    return result


class TestConfigParsing:
    def test_round_trip(self):
        text = """
p = 0.35
q = 0.15
model = retransmit_resampled
edge = 1 2
edge = 0 pmf 0:0.5 2:0.5
k = 25
samples = 1000
seed = 7
sweep_param = p
sweep_from = 0.1
sweep_to = 0.9
sweep_step = 0.2
"""
        assert parse_config_text(text) == RunConfig(
            p=0.35,
            q=0.15,
            model="retransmit_resampled",
            edges=((1, LengthDist.constant(2)), (0, LengthDist.from_pairs([(0, 0.5), (2, 0.5)]))),
            k=25,
            samples=1000,
            seed=7,
            sweep_param="p",
            sweep_from=0.1,
            sweep_to=0.9,
            sweep_step=0.2,
        )

    def test_parses_basic(self):
        cfg = parse_config_text(BASIC)
        assert cfg.p == 0.5 and cfg.q == 0.5
        assert cfg.model == "cant_start"
        assert cfg.edges == ((1, LengthDist.constant(0)), (0, LengthDist.constant(0)))

    @pytest.mark.parametrize(
        "text",
        [
            "p = 0.5\nq = 0.5\nmodel = cant_start\n",  # no edges
            "p = 0.5\nmodel = cant_start\nedge = 1 0\n",  # missing q
            BASIC + "frobnicate = 3\n",  # unknown key
            BASIC + "edge = 2 0\n",  # bad bit
            BASIC + "p = 0.7\n",  # duplicate key
            "p = 0.5\nq = 0.5\nmodel = warp\nedge = 1 0\n",  # unknown model
            "p = 0\nq = 0.5\nmodel = cant_start\nedge = 1 0\n",  # invalid dynamics
            "p = 0.5\nq = 0.5\nmodel = cant_start\nedge = 1 pmf 0:0.6 2:0.6\n",  # bad pmf
            BASIC + "horizon = 40\n",  # horizon is not a key
            BASIC + "edge = 1 pmf 0-0.5\n",  # pmf entry without ':'
            BASIC + "edge = 1 pmf\n",  # pmf with no entries
            BASIC + "edge = 1 2 3\n",  # two constant lengths
            BASIC + "edge = 1 -1\n",  # negative length
            BASIC + "edge = 1\n",  # no length
            BASIC + "edge 1 0\n",  # no '='
            "p = abc\nq = 0.5\nmodel = cant_start\nedge = 1 0\n",  # non-numeric p
        ],
    )
    def test_rejects_bad_config(self, text):
        with pytest.raises(ConfigurationError):
            parse_config_text(text)

    def test_edges_share_one_law_per_length_text(self):
        cfg = parse_config_text(BASIC + "edge = 1 pmf 0:0.5 2:0.5\nedge = 0 pmf  0:0.5 2:0.5\n")
        laws = [ld for _, ld in cfg.edges]
        assert laws[0] is laws[1]
        assert laws[2] is laws[3]


class TestEttCommand:
    def test_two_link_example(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(BASIC)
        code, text = run_cli(["ett", "--config", str(cfg)])
        assert code == 0
        fields = kv(text)
        assert float(fields["ett"]) == pytest.approx(2.0)
        assert float(fields["arrival_2"]) == pytest.approx(2.0)

    def test_single_on_soa(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.4\nq = 0.8\nmodel = resume\nedge = 1 1\n")
        code, text = run_cli(["ett", "--config", str(cfg)])
        assert code == 0
        assert float(kv(text)["ett"]) == pytest.approx(1.0)

    def test_divergent_exits_2(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.5\nq = 1\nmodel = retransmit_identical\nedge = 1 2\n")
        code, _ = run_cli(["ett", "--config", str(cfg)])
        assert code == 2

    def test_invalid_config_exits_1(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(BASIC + "nonsense = 1\n")
        code, _ = run_cli(["ett", "--config", str(cfg)])
        assert code == 1

    def test_missing_file_exits_1(self, tmp_path):
        code, _ = run_cli(["ett", "--config", str(tmp_path / "absent.txt")])
        assert code == 1

    def test_twelve_significant_digits(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.3\nq = 0.5\nmodel = cant_start\nedge = 0 0\n")
        code, text = run_cli(["ett", "--config", str(cfg)])
        assert code == 0
        assert kv(text)["ett"] == "3.33333333333"  # 1/p to 12 significant digits


class TestPmfCommand:
    def test_kv_rows(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT)
        code, text = run_cli(["pmf", "--config", str(cfg), "--k", "3"])
        assert code == 0
        fields = kv(text)
        assert float(fields["t_0"]) == 0.0
        assert float(fields["t_1"]) == pytest.approx(0.5)
        assert float(fields["t_2"]) == pytest.approx(0.25)
        assert float(fields["t_3"]) == pytest.approx(0.125)
        assert float(fields["tail"]) == pytest.approx(0.125)

    def test_csv_rows_and_mass(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT + "k = 3\n")  # config default for K
        code, text = run_cli(["pmf", "--config", str(cfg), "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "t,prob"
        assert lines[1] == "0,0"
        assert lines[-1].startswith("tail,")
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_instant_traversal(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.5\nq = 0.5\nmodel = cant_start\nedge = 1 0\n")
        code, text = run_cli(["pmf", "--config", str(cfg), "--k", "2"])
        fields = kv(text)
        assert float(fields["t_0"]) == 1.0
        assert float(fields["tail"]) == 0.0


class TestSimulateCommand:
    def test_deterministic_and_writes_histogram(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT)
        hist = tmp_path / "h.csv"
        args = ["simulate", "--config", str(cfg), "--samples", "20000", "--seed", "11",
                "--histogram", str(hist)]
        code, text = run_cli(args)
        assert code == 0
        fields = kv(text)
        assert fields["samples"] == "20000"
        assert fields["seed"] == "11"
        assert fields["histogram"] == str(hist)
        assert abs(float(fields["mean"]) - 2.0) <= 6 * float(fields["stderr"])
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "t,count"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == 20000
        code2, text2 = run_cli(args)
        assert text2 == text

    def test_sure_single_slot_histogram(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.4\nq = 0.9\nmodel = resume\nedge = 1 1\n")
        hist = tmp_path / "h.csv"
        code, text = run_cli(
            ["simulate", "--config", str(cfg), "--samples", "5000", "--seed", "4",
             "--histogram", str(hist)]
        )
        assert code == 0
        assert float(kv(text)["mean"]) == 1.0
        assert hist.read_text().strip().splitlines()[1] == "1,5000"

    def test_unwritable_histogram_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT)
        hist = tmp_path / "absent" / "h.csv"
        code, text = run_cli(
            ["simulate", "--config", str(cfg), "--samples", "100", "--seed", "1",
             "--histogram", str(hist)]
        )
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write histogram {hist}: ")
        assert err.count("\n") == 1

    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT)
        hist = tmp_path / "h.csv"
        args = ["simulate", "--config", str(cfg), "--samples", "150000", "--seed", "6",
                "--histogram", str(hist)]
        monkeypatch.delenv("DYNPATH_THREADS", raising=False)
        _, single = run_cli(args)
        monkeypatch.setenv("DYNPATH_THREADS", "2")
        _, threaded = run_cli(args)
        assert single == threaded


class TestValidateCommand:
    def test_small_grid_passes(self):
        code, text = run_cli(["validate", "--max-n", "1"])
        assert code == 0
        assert "result = pass" in text
        assert "eq1_discrepancy_table:" in text
        assert "check oracle_equivalence_n1 = pass" in text

    def test_three_link_grid_passes(self):
        code, text = run_cli(["validate", "--max-n", "3"])
        assert code == 0
        assert "check oracle_equivalence_n3 = pass" in text
        assert "result = pass" in text

    def test_empty_grid_passes(self):
        code, text = run_cli(["validate", "--max-n", "0"])
        assert code == 0
        assert "result = pass" in text

    def test_injected_fault_fails(self):
        code, text = run_cli(["validate", "--max-n", "1", "--inject-fault"])
        assert code == 1
        assert "result = FAIL" in text

    def test_above_exact_limit_fails_before_any_check(self, monkeypatch, capsys):
        def grid_ran(*args, **kwargs):
            raise AssertionError("the oracle grid ran")

        monkeypatch.setattr(validation, "oracle_grid_checks", grid_ran)
        code, text = run_cli(["validate", "--max-n", "9"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == "error: exact engine supports n <= 8, got 9\n"


class TestSweepCommand:
    def test_single_off_cut_ett_halves(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT)
        code, text = run_cli(
            ["sweep", "--config", str(cfg), "--param", "p", "--from", "0.25", "--to", "0.5",
             "--step", "0.25"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "param,value,ett"
        assert lines[1] == "p,0.25,4"
        assert lines[2] == "p,0.5,2"

    def test_empty_range_emits_header_only(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT)
        code, text = run_cli(
            ["sweep", "--config", str(cfg), "--param", "p", "--from", "0.9", "--to", "0.5",
             "--step", "0.1"]
        )
        assert code == 0
        assert text.strip() == "param,value,ett"

    def test_sweep_q_constant_for_instant_path(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.5\nq = 0.1\nmodel = cant_start\nedge = 1 0\n")
        code, text = run_cli(
            ["sweep", "--config", str(cfg), "--param", "q", "--from", "0.1", "--to", "0.9",
             "--step", "0.2"]
        )
        assert code == 0
        for line in text.strip().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_config_supplied_sweep_options(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT + "sweep_param = p\nsweep_from = 0.5\nsweep_to = 0.5\nsweep_step = 0.1\n")
        code, text = run_cli(["sweep", "--config", str(cfg)])
        assert code == 0
        assert text.strip().splitlines()[1] == "p,0.5,2"

    @pytest.mark.parametrize(
        "extra,args",
        [
            ("", ["--param", "p", "--from", "0.1", "--to", "0.5", "--step", "0"]),
            ("sweep_param = x\n", ["--from", "0.1", "--to", "0.5", "--step", "0.1"]),
            ("", []),
        ],
        ids=["zero_step", "config_param_x", "no_options"],
    )
    def test_bad_sweep_options_exit_1(self, tmp_path, capsys, extra, args):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT + extra)
        code, text = run_cli(["sweep", "--config", str(cfg)] + args)
        assert code == 1
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: sweep ") and err.count("\n") == 1

    def test_long_grid_ends_on_its_endpoint(self):
        # Accumulating the step drifts by 2e-12 over 99800 steps and ends
        # the grid at 0.998999999998.
        values = _sweep_values(0.001, 0.999, 1e-5)
        assert len(values) == 99801
        assert values[-1] == 0.999
        assert values[51234] == round(0.001 + 51234 * 1e-5, 12)


def test_module_entrypoint_runs(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(BASIC)
    proc = subprocess.run(
        [sys.executable, "-m", "dynpath", "ett", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ett = 2")


def test_package_exports_resolve():
    missing = [name for name in dynpath.__all__ if not hasattr(dynpath, name)]
    assert missing == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the absorbing-chain oracle; ett, pmf and sweep skip its import.
    code = "import sys, dynpath.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
