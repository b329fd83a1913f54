"""Command-line interface: config round-trips, output formats, exit codes."""

import importlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import dynpath
import dynpath.cli as cli
import dynpath.validation as validation
from dynpath.cli import RunConfig, _sweep_values, main, parse_config_text
from dynpath.errors import ConfigurationError
from dynpath.model import EdgeDynamics, FailureModel, LengthDist, PathSpec
from dynpath.oracle import exact_ett_dp
from dynpath.pgf import ett, pmf
import test_acceptance

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


# Child interpreters import dynpath from where this process did: pytest's
# pythonpath setting reaches only the pytest process.
_SRC = str(Path(dynpath.__file__).resolve().parents[1])
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))


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
            path=PathSpec(
                (1, 0),
                (LengthDist.constant(2), LengthDist.from_pairs([(0, 0.5), (2, 0.5)])),
                EdgeDynamics(0.35, 0.15),
                FailureModel.RETRANSMIT_RESAMPLED,
            ),
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
        assert cfg.path.dynamics == EdgeDynamics(0.5, 0.5)
        assert cfg.path.model is FailureModel.CANT_START
        assert cfg.path.x == (1, 0)
        assert cfg.path.lengths == (LengthDist.constant(0), LengthDist.constant(0))
        assert cfg.edges == ((1, LengthDist.constant(0)), (0, LengthDist.constant(0)))

    def test_unknown_model_names_the_models(self):
        names = "cant_start, resume, retransmit_identical, retransmit_resampled"
        with pytest.raises(ConfigurationError, match=rf"^unknown model 'warp'; expected one of {names}$"):
            parse_config_text("p = 0.5\nq = 0.5\nmodel = warp\nedge = 1 0\n")

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

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("edge = 2 0", "initial state must be 0 or 1"),
            ("edge = 1 pmf 0:0.6 2:0.6", "probabilities must sum to 1"),
            ("edge = 1", "needs an initial state and a length"),
        ],
    )
    def test_bad_edge_names_its_line(self, bad, reason):
        # the good edge before it is parsed once and reused; the bad one,
        # repeated, is named at its first line
        text = BASIC + "edge = 1 pmf 0:0.5 2:0.5\n" * 4 + bad + "\nedge = 1 0\n" + bad + "\n"
        lineno = text.splitlines().index(bad) + 1
        with pytest.raises(ConfigurationError, match=rf"^line {lineno}: .*{reason}"):
            parse_config_text(text)

    def test_edges_share_one_law_per_length_text(self):
        # repeated lines, and lines that differ in spacing or comments only
        variants = ["edge = 1 pmf 0:0.5 2:0.5", "edge = 0 pmf  0:0.5 2:0.5",
                    "edge = 1 pmf 0:0.5 2:0.5  # again", "edge =   1   pmf 0:0.5   2:0.5"]
        cfg = parse_config_text(BASIC + "\n".join(variants * 3) + "\n")
        laws = cfg.path.lengths
        assert laws[0] is laws[1]
        assert len(laws) == 14 and all(law is laws[2] for law in laws[2:])
        assert cfg.path.x[2:] == (1, 0, 1, 1) * 3


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

    def test_tiny_p_prints_the_chain_s_ett(self, tmp_path):
        # G_Y's own slope (1-p)/p^2 overflows at p = 1e-158; the ETT, about 1/p, does not.
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 1e-158\nq = 0.5\nmodel = resume\nedge = 0 2\nedge = 1 1\n")
        code, text = run_cli(["ett", "--config", str(cfg)])
        assert code == 0
        want = exact_ett_dp(parse_config_text(cfg.read_text()).path)
        assert float(kv(text)["ett"]) == pytest.approx(want, rel=test_acceptance.REL_TOL_ETT)

    def test_overflowing_ett_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 1e-308\nq = 0.5\nmodel = resume\nedge = 0 2\nedge = 1 1\n")
        code, text = run_cli(["ett", "--config", str(cfg)])
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure") and err.count("\n") == 1

    def test_vanishing_denominator_exits_3(self, tmp_path, capsys):
        # beta = 1 - 2e-301 rounds to 1, so G_Y's denominator at beta is p = 1e-301, under the floor
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 1e-301\nq = 1e-301\nmodel = resume\nedge = 1 0\nedge = 1 2\n")
        code, text = run_cli(["ett", "--config", str(cfg)])
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err == "error: numerical failure: denominator vanished during PGF evaluation\n"

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

    @pytest.mark.parametrize(
        "k,message",
        [
            ("0", "error: k must be >= 1, got 0\n"),
            ("10000001", "error: k = 10000001 exceeds the coefficient budget 10000000\n"),
        ],
    )
    def test_k_out_of_range_exits_1(self, tmp_path, capsys, k, message):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT)
        code, text = run_cli(["pmf", "--config", str(cfg), "--k", k])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == message


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

    def test_one_sample_has_zero_stderr(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT)
        hist = tmp_path / "h.csv"
        code, text = run_cli(["simulate", "--config", str(cfg), "--samples", "1", "--seed", "3",
                              "--histogram", str(hist)])
        assert code == 0
        assert kv(text)["stderr"] == "0"

    def test_divergent_exits_2_before_simulating(self, tmp_path):
        # q = 1 fails every attempt at length 2; the simulator would spin to its slot cap
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.5\nq = 1\nmodel = retransmit_identical\nedge = 1 2\n")
        hist = tmp_path / "h.csv"
        code, text = run_cli(["simulate", "--config", str(cfg), "--samples", "1", "--histogram", str(hist)])
        assert code == 2
        assert text == "" and not hist.exists()

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

    def test_timeout_exits_4(self, tmp_path, capsys):
        # a Geom(1e-9) off-run overshoots the 10^7-slot cap on the first draw
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 1e-9\nq = 0.5\nmodel = cant_start\nedge = 0 0\n")
        hist = tmp_path / "h.csv"
        code, text = run_cli(["simulate", "--config", str(cfg), "--samples", "10", "--seed", "1",
                              "--histogram", str(hist)])
        assert code == 4
        assert text == "" and not hist.exists()
        assert capsys.readouterr().err == "error: simulation timeout: sample exceeded 10000000 slots\n"

    def test_config_samples_zero_exits_1_as_the_flag_does(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        flag_cfg, key_cfg = tmp_path / "flag.txt", tmp_path / "key.txt"
        flag_cfg.write_text(SINGLE_OFF_CUT)
        key_cfg.write_text(SINGLE_OFF_CUT + "samples = 0\n")
        errs = []
        for args in (["--config", str(flag_cfg), "--samples", "0"], ["--config", str(key_cfg)]):
            code, text = run_cli(["simulate", *args, "--histogram", str(hist)])
            assert code == 1 and text == ""
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == "error: samples must be >= 1, got 0\n"
        assert not hist.exists()

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
        assert "check distribution_equivalence_n3 = pass" in text
        assert "check distribution_equivalence_n4" not in text
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
        def check_ran(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in ("oracle_grid_checks", "pmf_grid_checks", "reduction_checks", "eq1_discrepancy_table"):
            monkeypatch.setattr(validation, name, check_ran)
        code, text = run_cli(["validate", "--max-n", "9"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == "error: exact engine supports n <= 8, got 9\n"

    def test_tolerances_are_the_acceptance_suite_s(self):
        for name in ("REL_TOL_ETT", "ABS_TOL_PMF", "ABS_TOL_MASS", "TOL_REDUCTION"):
            assert getattr(validation, name) == getattr(test_acceptance, name), name


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

    def test_flag_overrides_its_config_key(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text(SINGLE_OFF_CUT + "sweep_param = p\nsweep_from = 0.25\nsweep_to = 0.5\nsweep_step = 0.5\n")
        code, text = run_cli(["sweep", "--config", str(cfg), "--step", "0.25"])
        assert code == 0
        assert text.strip().splitlines() == ["param,value,ett", "p,0.25,4", "p,0.5,2"]

    def test_rising_ett_warns_once(self, tmp_path, capsys):
        # exact_ett_dp agrees on both points, so the rise is real, not rounding
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.96\nq = 0.95\nmodel = cant_start\nedge = 0 3\nedge = 0 0\n")
        code, text = run_cli(
            ["sweep", "--config", str(cfg), "--param", "p", "--from", "0.96", "--to", "0.97",
             "--step", "0.01"]
        )
        assert code == 0
        assert text.strip().splitlines()[1:] == ["p,0.96,4.89233773318", "p,0.97,4.89322912281"]
        assert capsys.readouterr().err == (
            "warning: ETT increased from 4.89233773318 to 4.89322912281 between p=0.96 and p=0.97\n"
        )

    @pytest.mark.parametrize(
        "extra,args",
        [
            ("", ["--param", "p", "--from", "0.1", "--to", "0.5", "--step", "0"]),
            ("sweep_param = x\n", ["--from", "0.1", "--to", "0.5", "--step", "0.1"]),
            ("", []),
            ("", ["--param", "p", "--from", "0.1", "--to", "inf", "--step", "0.1"]),
            ("", ["--param", "p", "--from", "0.1", "--to", "0.2", "--step", "1e-300"]),
            ("", ["--param", "p", "--from", "nan", "--to", "0.5", "--step", "0.1"]),
        ],
        ids=["zero_step", "config_param_x", "no_options", "infinite_to", "runaway_grid", "nan_from"],
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


class _CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


class TestBulkOutput:
    """Rows go out in a few large writes, with the bytes one write per line gave."""

    N_LINKS = 16_000

    @pytest.fixture(scope="class")
    def long_cfg(self, tmp_path_factory):
        rng = random.Random(20)
        lengths = ("0", "1", "2", "pmf 0:0.5 2:0.5", "pmf 1:0.25 3:0.75")
        edges = [f"edge = {rng.getrandbits(1)} {rng.choice(lengths)}" for _ in range(self.N_LINKS)]
        cfg = tmp_path_factory.mktemp("bulk") / "long.cfg"
        cfg.write_text("p = 0.9\nq = 0.9\nmodel = resume\n" + "\n".join(edges) + "\n")
        return cfg

    def test_ett_matches_per_line_rendering(self, long_cfg):
        out = _CountingWriter()
        assert main(["ett", "--config", str(long_cfg)], out=out) == 0
        total, per_node = ett(parse_config_text(long_cfg.read_text()).path)
        want = f"ett = {_fmt(total)}\n" + "".join(f"arrival_{i} = {_fmt(per_node[i])}\n" for i in range(1, len(per_node)))
        assert out.getvalue() == want
        assert out.writes <= 3

    def test_sweep_matches_per_line_rendering(self, tmp_path):
        rng = random.Random(21)
        edges = "".join(f"edge = {rng.getrandbits(1)} {rng.choice('0123')}\n" for _ in range(300))
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.5\nq = 0.3\nmodel = retransmit_resampled\n" + edges)
        out = _CountingWriter()
        argv = ["sweep", "--config", str(cfg), "--param", "p", "--from", "0.05", "--to", "0.95", "--step", "0.01"]
        assert main(argv, out=out) == 0
        path = parse_config_text(cfg.read_text()).path
        rows = []
        for v in _sweep_values(0.05, 0.95, 0.01):
            total = ett(replace(path, dynamics=replace(path.dynamics, p=v)))[0]
            rows.append(f"p,{_fmt(v)},{_fmt(total)}\n")
        assert len(rows) == 91
        assert out.getvalue() == "param,value,ett\n" + "".join(rows)
        assert out.writes == 2

    @pytest.mark.parametrize("fmt", ["csv", "kv"])
    def test_pmf_over_several_chunks_matches_per_line_rendering(self, tmp_path, fmt):
        k = cli._CHUNK * 3 + 1
        cfg = tmp_path / "c.txt"
        cfg.write_text("p = 0.001\nq = 0.5\nmodel = resume\nedge = 0 2\nedge = 1 pmf 0:0.5 2:0.5\n")
        out = _CountingWriter()
        assert main(["pmf", "--config", str(cfg), "--k", str(k), "--format", fmt], out=out) == 0
        result = pmf(parse_config_text(cfg.read_text()).path, k)
        if fmt == "csv":
            rows = "".join(f"{t},{_fmt(pr)}\n" for t, pr in enumerate(result.coeffs))
            want = "t,prob\n" + rows + f"tail,{_fmt(result.tail_mass)}\n"
        else:
            rows = "".join(f"t_{t} = {_fmt(pr)}\n" for t, pr in enumerate(result.coeffs))
            want = rows + f"tail = {_fmt(result.tail_mass)}\n"
        assert out.getvalue() == want
        assert out.writes <= 4 + 2  # four chunks of rows, the header and the tail

    def test_unbuffered_child_writes_the_same_bytes(self, long_cfg):
        out = io.StringIO()
        main(["ett", "--config", str(long_cfg)], out=out)
        proc = subprocess.run(
            [sys.executable, "-m", "dynpath", "ett", "--config", str(long_cfg)],
            capture_output=True,
            env=dict(CHILD_ENV, PYTHONUNBUFFERED="1"),
        )
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout == out.getvalue().encode()


def test_module_entrypoint_runs(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text(BASIC)
    proc = subprocess.run(
        [sys.executable, "-m", "dynpath", "ett", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ett = 2")


def test_package_exports_resolve():
    missing = [name for name in dynpath.__all__ if not hasattr(dynpath, name)]
    assert missing == []


def test_module_all_lists_exactly_the_package_exports():
    for module, names in dynpath._EXPORTS.items():
        assert importlib.import_module(f"dynpath.{module}").__all__ == list(names), module


def test_exact_engines_and_validate_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "from dynpath.cli import main\n"
        "from dynpath.model import EdgeDynamics, FailureModel, LengthDist, uniform_path\n"
        "from dynpath.oracle import exact_ett_dp, exact_pmf_dp\n"
        "path = uniform_path((0, 1), LengthDist.constant(2), EdgeDynamics(0.3, 0.6), FailureModel.RESUME)\n"
        "exact_ett_dp(path)\n"
        "exact_pmf_dp(path, 10)\n"
        "assert main(['validate', '--max-n', '1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_leaves_oracle_and_validation_unloaded():
    # Only simulate and validate need them; the package imports its names on first use.
    heavy = ["concurrent.futures", "dynpath.closedform", "dynpath.oracle", "dynpath.validation"]
    code = f"import sys, dynpath.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
