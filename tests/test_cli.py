import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from recurlab import (AffineComposition, BlockCycle, Diagonal, Matrix, Phase,
                      RowRotation, RowState, WeightedBackwardShift)
import recurlab.cli as cli
from recurlab.cli import main
from recurlab.config import (ConfigError, parse_config, parse_operator,
                             parse_scalar, parse_set_expression, parse_vector)

SMALL_CONFIG = """
[output]
directory = results

[experiment tiny-cycle]
operator = blockcycle
vector = vec(sparse: 5:1)
epsilons = 1/2, 1/10
horizon = 500

[experiment tiny-rotation]
operator = diag(rot(1/4))
vector = vec(sparse: 1:1)
epsilons = 1/2
horizon = 400

[suite tiny-kron]
check = kronecker
turns = 1/4
epsilon = 1
horizon = 2000
"""


class TestScalars:
    def test_rationals(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("-2") == Fraction(-2)
        assert parse_scalar("0.25") == Fraction(1, 4)

    def test_complex(self):
        assert parse_scalar("1+2i") == 1 + 2j
        assert parse_scalar("-0.5-0.5i") == -0.5 - 0.5j
        assert parse_scalar("i") == 1j
        assert parse_scalar("2i") == 2j

    def test_rot(self):
        v = parse_scalar("rot(1/3)")
        assert isinstance(v, Phase) and v.turns == Fraction(1, 3)

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_scalar("1+2j")
        with pytest.raises(ConfigError):
            parse_scalar("")


class TestOperatorLiterals:
    def test_all_kinds(self):
        assert isinstance(parse_operator("blockcycle"), BlockCycle)
        assert isinstance(parse_operator("rowrotation"), RowRotation)
        m = parse_operator("matrix([[0,-1],[1,0]])")
        assert isinstance(m, Matrix) and m.rows[0][1] == -1
        s = parse_operator("shift(weights=(n+1)/n, side=uni)")
        assert isinstance(s, WeightedBackwardShift)
        d = parse_operator("diag(rot(1/2^n))")
        assert isinstance(d, Diagonal) and d.turns is not None
        c = parse_operator("comp(a=rot(1/5), b=1, deg=6)")
        assert isinstance(c, AffineComposition)
        assert c.space.max_degree == 6

    def test_bad_literals(self):
        for text in ("noop", "matrix([1,2])", "matrix([[1,2],[3]])",
                     "shift(side=uni)", "comp(a=1)", "shift(weights=2, side=bi)"):
            with pytest.raises(ConfigError):
                parse_operator(text)


class TestVectorLiterals:
    def test_sparse(self):
        op = parse_operator("blockcycle")
        v = parse_vector("vec(sparse: 5:1, 7:1/2)", op)
        assert v.entries == ((5, Fraction(1)), (7, Fraction(1, 2)))

    def test_rowpattern(self):
        v = parse_vector("vec(rowpattern)", parse_operator("rowrotation"))
        assert isinstance(v, RowState)
        with pytest.raises(ConfigError):
            parse_vector("vec(rowpattern)", parse_operator("blockcycle"))


class TestSetExpressions:
    def test_residue(self):
        w = parse_set_expression("residue(3, 1)", 10)
        assert w.elements == (1, 4, 7, 10)

    def test_fs(self):
        w = parse_set_expression("fs(1,2,4; 3)", 20)
        assert w.elements == (1, 2, 3, 4, 5, 6, 7)

    def test_intervals_and_explicit(self):
        assert parse_set_expression("intervals(2-4, 8-9)", 20).elements \
            == (2, 3, 4, 8, 9)
        assert parse_set_expression("explicit(5, 1, 9)", 20).elements == (1, 5, 9)

    @pytest.mark.parametrize("text", ["residue(0,1)", "explicit(1, x)",
                                      "intervals(3-x)", "intervals(5-2)",
                                      "fs(3, 2; 2)", "fs(1, 2; x)",
                                      "explicit(5, 99)", "intervals(30-40)"])
    def test_malformed_raise_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_set_expression(text, 20)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config(SMALL_CONFIG)
        assert len(cfg.experiments) == 2 and len(cfg.suites) == 1
        assert cfg.experiments[0].epsilons == (Fraction(1, 2), Fraction(1, 10))

    def test_error_carries_line(self):
        bad = "[experiment a]\noperator = blockcycle\nvector = vec(sparse: 1:1)\nepsilons = 0\nhorizon = 10\n"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "line 4" in str(err.value)

    def test_duplicate_names(self):
        bad = SMALL_CONFIG + "\n[experiment tiny-cycle]\n"
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_kronecker_turns_are_constant_rules(self):
        def turns(text):
            [suite] = parse_config(f"[suite k]\ncheck = kronecker\nturns = {text}\n").suites
            return suite.run.args[0]

        assert [type(t) for t in turns("1/4, 0.25")] == [Fraction, Fraction]
        assert turns("1/4, 0.25, 5/4") == [Fraction(1, 4)] * 3
        # bit for bit the float of sqrt(2) reduced mod 1
        assert turns("sqrt(2)") == [math.sqrt(2) % 1.0]
        with pytest.raises(ConfigError, match="line 3: .*turns must not depend on n"):
            turns("n/4")

    def test_unknown_content(self):
        with pytest.raises(ConfigError):
            parse_config("stray = 1\n")

    def test_output_section_takes_no_name(self):
        # the name used to be dropped without a word
        with pytest.raises(ConfigError, match="line 2: malformed section header"):
            parse_config("\n[output results]\ndirectory = r\n")
        assert parse_config("[output]\ndirectory = r\n").output_dir == "r"


class TestRunner:
    def write(self, tmp_path, text) -> Path:
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return p

    def test_small_run(self, tmp_path, capsys):
        cfg = self.write(tmp_path, SMALL_CONFIG)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        shown = capsys.readouterr().out
        assert "tiny-cycle" in shown and "PERIODIC" in shown
        verdict = (tmp_path / "out/experiments/tiny-cycle/verdict.txt").read_text()
        assert "label=PERIODIC" in verdict and "period=4" in verdict
        window = (tmp_path / "out/experiments/tiny-cycle/window_0.txt").read_text()
        assert window.splitlines()[5] == "horizon=500"
        assert (tmp_path / "out/summary.txt").exists()

    def test_determinism(self, tmp_path):
        cfg = self.write(tmp_path, SMALL_CONFIG)
        for sub in ("a", "b"):
            main(["run", str(cfg), "--out", str(tmp_path / sub), "--seed", "9"])
        a, b = tmp_path / "a", tmp_path / "b"
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_module_entry_point_runs_the_zoo(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "recurlab", "run", "demos/configs/zoo.cfg",
             "--out", str(tmp_path / "out"), "--workers", "1"],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out/summary.txt").exists()

    def test_empty_config_succeeds(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[output]\ndirectory = results\n")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out/summary.txt").exists()

    def test_parse_error_exit_two(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[experiment x]\noperator = bogus\n"
                         "vector = vec(sparse: 1:1)\nepsilons = 1\nhorizon = 5\n")
        assert main(["run", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_suite_config_error_runs_no_experiment(self, tmp_path, monkeypatch,
                                                   capsys):
        calls = []
        monkeypatch.setattr(cli, "execute_experiment",
                            lambda *args: calls.append(args))
        text = SMALL_CONFIG.replace("turns = 1/4\n", "")
        cfg = self.write(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "needs turns=" in capsys.readouterr().err
        assert calls == []

    def test_malformed_set_expression_exit_two(self, tmp_path, capsys):
        text = SMALL_CONFIG + ("\n[suite bad-window]\ncheck = translation-invariance\n"
                               "window = residue(0,1)\nhorizon = 100\n")
        cfg = self.write(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "residue(0,1)" in capsys.readouterr().err
        assert not (tmp_path / "out/experiments").exists()

    @pytest.mark.parametrize("text", [
        SMALL_CONFIG + ("\n[suite bad-m]\ncheck = translation-invariance\n"
                        "window = residue(3,0)\nm = x\nhorizon = 100\n"),
        SMALL_CONFIG.replace("horizon = 500", "horizon = x"),
        SMALL_CONFIG.replace("horizon = 500\n", "horizon = 500\nseed = x\n"),
        SMALL_CONFIG.replace("horizon = 2000", "horizn = 50"),
        SMALL_CONFIG + ("\n[experiment rows]\noperator = rowrotation\n"
                        "vector = vec(rowpattern)\nepsilons = 3/32\nseminorm = 2\n"
                        "horizon = 100\n"),
        SMALL_CONFIG.replace("directory = results", "dir = x"),
        SMALL_CONFIG.replace("check = kronecker", "check = bogus"),
        SMALL_CONFIG.replace("horizon = 500\n", "horizon = 500\nseminorms = 9\n"),
        SMALL_CONFIG + ("\n[experiment comp]\noperator = comp(a=rot(1/5), b=1)\n"
                        "vector = vec(sparse: 0:1)\nepsilons = 1/2\nseminorms = -1\n"
                        "horizon = 100\n"),
        SMALL_CONFIG.replace("vec(sparse: 5:1)", "vec(sparse: 0:1)"),
        SMALL_CONFIG + ("\n[experiment comp]\noperator = comp(a=rot(1/5), b=1)\n"
                        "vector = vec(sparse: -1:1)\nepsilons = 1/2\nhorizon = 100\n"),
        SMALL_CONFIG + ("\n[suite scale]\ncheck = scaling-consistency\n"
                        "operator = blockcycle\nvector = vec(sparse: 5:1)\n"
                        "factor = rot(n*(n-1))\nhorizon = 100\n"),
        SMALL_CONFIG.replace("horizon = 500\n", "horizon = 500\nseminorms = ,\n"),
        SMALL_CONFIG + ("\n[suite huge-fs]\ncheck = translation-invariance\n"
                        "window = fs(3, 1000000000000; 2)\n"
                        "horizon = 1000000000000000\n"),
    ], ids=["suite-m", "horizon", "seed", "horizn", "seminorm", "output-dir",
            "check-kind", "seminorm-index", "radius-index", "coordinate-zero",
            "degree-negative", "rot-mentions-n", "no-seminorm", "fs-table"])
    def test_bad_field_exits_two_before_any_work(self, tmp_path, capsys, text):
        cfg = self.write(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out/experiments").exists()

    def test_unknown_family_exits_two_at_its_line(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[suite x]\ncheck = cut-shift-paste\n"
                         "family = bogus\ntrials = 5\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "configuration error: line 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_seed_seeds_suites_without_their_own(self, tmp_path):
        cfg = self.write(tmp_path, "[suite csp]\ncheck = cut-shift-paste\n"
                         "trials = 5\nhorizon = 3000\n")
        outs = []
        for sub, seed in (("a", "1"), ("b", "2"), ("c", "1")):
            assert main(["run", str(cfg), "--out", str(tmp_path / sub),
                         "--seed", seed]) == 0
            outs.append((tmp_path / sub / "suites/csp.txt").read_bytes())
        assert outs[0] != outs[1] and outs[0] == outs[2]

    def test_failure_isolation(self, tmp_path, capsys):
        # float precision cannot carry the deep block weights; that one
        # experiment fails while the other still runs
        text = """
[experiment deep-block-float]
operator = blockcycle
vector = vec(sparse: 2048:1)
epsilons = 1/2
horizon = 1200

[experiment fine]
operator = blockcycle
vector = vec(sparse: 5:1)
epsilons = 1/2
horizon = 100
"""
        cfg = self.write(tmp_path, text)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out"),
                     "--precision", "float:12"])
        assert code == 1
        shown = capsys.readouterr().out
        assert "failed" in shown and "precision" in shown
        # the healthy experiment still ran; float data cannot claim an exact
        # period, so the progression certificate is the strongest label
        assert "fine" in shown and "IP_STAR_CERTIFIED" in shown
        # exact mode handles the same experiment
        code = main(["run", str(cfg), "--out", str(tmp_path / "out2")])
        assert code == 0

    def test_workers_match_serial(self, tmp_path):
        cfg = self.write(tmp_path, SMALL_CONFIG)
        main(["run", str(cfg), "--out", str(tmp_path / "serial")])
        main(["run", str(cfg), "--out", str(tmp_path / "par"), "--workers", "2"])
        a, b = tmp_path / "serial", tmp_path / "par"
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    @pytest.mark.parametrize("option", [["--out", "elsewhere"], ["--workers", "2"],
                                        ["--precision", "float:6"], ["--seed", "5"]],
                             ids=lambda option: option[0])
    def test_run_options_before_the_subcommand_exit_two(self, tmp_path, monkeypatch,
                                                         option):
        # the config's [output] directory is relative: a run would write there
        monkeypatch.chdir(tmp_path)
        cfg = self.write(tmp_path, SMALL_CONFIG)
        with pytest.raises(SystemExit) as exited:
            main([*option, "run", str(cfg)])
        assert exited.value.code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--seed", "x"),
                                               ("--workers", "-3"), ("--workers", "0")])
    def test_bad_seed_or_workers_exits_two_naming_the_option(self, tmp_path, monkeypatch,
                                                             capsys, option, value):
        # --seed -1 used to be blamed on the suite's header line, and
        # --workers -3 ran serially and exited 0
        monkeypatch.chdir(tmp_path)
        cfg = self.write(tmp_path, "[suite c]\ncheck = cut-shift-paste\n"
                         "trials = 2\nhorizon = 3000\n")
        with pytest.raises(SystemExit) as exited:
            main(["run", str(cfg), "--out", str(tmp_path / "out"), option, value])
        assert exited.value.code == 2
        assert f"argument {option}: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_least_seed_and_workers_run(self, tmp_path):
        cfg = self.write(tmp_path, "[suite c]\ncheck = cut-shift-paste\n"
                         "trials = 2\nhorizon = 3000\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "0", "--workers", "1"]) == 0

    def test_bad_precision_flag(self, tmp_path):
        cfg = self.write(tmp_path, SMALL_CONFIG)
        assert main(["run", str(cfg), "--precision", "float"]) == 2


class TestDescribe:
    def test_kinds(self, capsys):
        for literal, needle in [
            ("blockcycle", "periodic"),
            ("rowrotation", "row-wise"),
            ("shift(weights=(n+1)/n, side=uni)", "backward shift"),
            ("diag(rot(1/2^n))", "unimodular"),
            ("matrix([[0,-1],[1,0]])", "criterion"),
            ("comp(a=rot(1/5), b=1, deg=4)", "affine"),
        ]:
            assert main(["describe", literal]) == 0
            assert needle in capsys.readouterr().out

    def test_bad_literal(self, capsys):
        assert main(["describe", "bogus"]) == 2
