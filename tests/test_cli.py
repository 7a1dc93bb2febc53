import csv
import hashlib
import math

import numpy as np
import pytest

from nsfd.cli import main
from nsfd.model import SchemeConfig
from nsfd.problems import SchemeBundle, get_scheme


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestTable2:
    def test_layout_and_first_row(self, tmp_path):
        out = tmp_path / "table2.csv"
        assert main(["table2", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["h", "snsfd1_error", "snsfd1_rate",
                          "snsfd2_error", "snsfd2_rate", "wood_error", "wood_rate"]
        assert len(rows) == 4
        first = rows[0]
        assert float(first[1]) == pytest.approx(0.0014, rel=0.01)
        assert first[2] == ""
        assert float(first[3]) == pytest.approx(0.0127, rel=0.01)
        assert float(first[5]) == pytest.approx(0.0470, rel=0.01)
        second = rows[1]
        assert float(second[2]) == pytest.approx(1.9795, abs=0.02)
        assert float(second[4]) == pytest.approx(1.9632, abs=0.02)
        assert float(second[6]) == pytest.approx(1.0189, abs=0.02)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table2", "--out", str(a)])
        main(["table2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestFigures:
    def test_row_counts_and_dynamics(self, tmp_path):
        assert main(["figures", "--out-dir", str(tmp_path)]) == 0
        header1, rows1 = _read_csv(tmp_path / "fig1.csv")
        header2, rows2 = _read_csv(tmp_path / "fig2.csv")
        assert header1 == ["t", "euler", "rk2", "snsfd1"]
        assert header2 == ["t", "snsfd1", "wood"]
        assert len(rows1) == 41 and len(rows2) == 41
        nsfd_col = np.array([float(r[3]) for r in rows1])
        assert np.all(np.diff(nsfd_col) >= -1e-14)  # monotone approach
        assert nsfd_col[-1] == pytest.approx(2.0, abs=1e-6)
        euler_col = np.array([float(r[1]) for r in rows1])
        signs = np.sign(euler_col[20:] - 2.0)
        assert np.sum(signs[:-1] * signs[1:] < 0) >= 5  # oscillates around 2
        rk2_col = np.array([float(r[2]) for r in rows1])
        assert rk2_col[-1] == pytest.approx(1.2, abs=1e-6)  # spurious limit


class TestRun:
    def test_columns_and_error(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["run", "--problem", "logistic", "--scheme", "snsfd1",
                     "--y0", "0.5", "--h", "0.1", "--t-end", "1", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["t", "y", "y_exact", "abs_error"]
        assert len(rows) == 11
        for t, y, y_exact, abs_err in rows:
            assert float(abs_err) == pytest.approx(abs(float(y) - float(y_exact)), abs=1e-15)

    def test_exact_column_empty_without_closed_form(self, tmp_path):
        out = tmp_path / "run_sine.csv"
        main(["run", "--problem", "sine", "--scheme", "nsfd",
              "--h", "0.1", "--t-end", "1", "--out", str(out)])
        _, rows = _read_csv(out)
        assert all(r[2] == "" and r[3] == "" for r in rows)

    @pytest.mark.parametrize("scheme", ["euler", "rk2"])
    def test_powerlaw_blow_up_reported(self, tmp_path, capsys, scheme):
        # y**4 overflows Python floats within a few steps from y0 = 3
        out = tmp_path / "blowup.csv"
        assert main(["run", "--problem", "powerlaw", "--scheme", scheme,
                     "--y0", "3", "--h", "0.1", "--t-end", "1", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 11
        assert not math.isfinite(float(rows[-1][1]))
        assert "final y = -inf" in capsys.readouterr().out


#: sha256 of ``run-sys --h 0.1 --t-end 10`` CSVs, pinned from the
#: per-component implementation of the system step
RUN_SYS_SHA256 = {
    ("lv", "nsfd2"): "9aec70b322f192d627922222f434e9e28492499b5d889100e4986ae457b35839",
    ("lv", "plain"): "13de21376837eeee354eda426a69c5f0ff32c69393f91a35b4c1f09a30ad380c",
    ("sirs", "nsfd2"): "3dbd3da5835fa64ee4d4c31af66ce910355eee7355ac39f40ce19492d0c6c8e4",
    ("sirs", "plain"): "7d69ad9038de76c6d860c9ad92f538b1627d1d197f7cfed877759569a52823a9",
}


class TestRunSys:
    @pytest.mark.parametrize(("model", "scheme"), sorted(RUN_SYS_SHA256))
    def test_csv_bytes_pinned(self, tmp_path, model, scheme):
        out = tmp_path / "sys.csv"
        assert main(["run-sys", "--model", model, "--scheme", scheme,
                     "--h", "0.1", "--t-end", "10", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SYS_SHA256[(model, scheme)]

    def test_lv_columns(self, tmp_path):
        out = tmp_path / "lv.csv"
        assert main(["run-sys", "--model", "lv", "--h", "0.1", "--t-end", "2",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["t", "x_1", "x_2", "conserved"]
        assert len(rows) == 21
        assert all(float(r[1]) >= 0 and float(r[2]) >= 0 for r in rows)

    def test_sirs_with_params(self, tmp_path):
        out = tmp_path / "sirs.csv"
        assert main(["run-sys", "--model", "sirs", "--params", "beta=0.3,gamma=0.1",
                     "--h", "0.5", "--t-end", "5", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header[:4] == ["t", "x_1", "x_2", "x_3"]
        assert len(rows) == 11


class TestRunSysChecksTheModel:
    @pytest.mark.parametrize("flags, message", [
        (["--model", "lv", "--y0", "1,2,3"], "lv needs 2 comma-separated values, got 3"),
        (["--model", "sirs", "--y0", "0.9,0.1"], "sirs needs 3 comma-separated values, got 2"),
        (["--model", "lv", "--params", "z=3"], "lv takes a, b, c, e, not z"),
        (["--model", "sirs", "--params", "beta=0.3,b=1"], "sirs takes beta, gamma, mu, N, not b"),
        (["--model", "lv", "--y0", "1,x"], "expected comma-separated numbers"),
        (["--model", "lv", "--params", "a=x"], "expected comma-separated key=value numbers"),
    ])
    def test_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "sys.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run-sys", *flags, "--h", "0.1", "--t-end", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: nsfd run-sys" in err and message in err
        assert not out.exists()

    def test_start_and_parameters_that_fit(self, tmp_path):
        out = tmp_path / "sys.csv"
        assert main(["run-sys", "--model", "lv", "--y0", "1,3", "--params", "a=2,c=0.5",
                     "--h", "0.1", "--t-end", "1", "--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [float(v) for v in rows[0][1:3]] == [1.0, 3.0]


class TestUnknownScheme:
    LABELS = "choose from euler, rk2, snsfd1, snsfd2, snsfd3, snsfd3-printed, wood"

    @pytest.mark.parametrize("command, flags", [
        ("run", ["--h", "0.1", "--t-end", "1"]),
        ("check", []),
        ("rates", []),
    ])
    def test_flag_is_a_usage_error(self, tmp_path, capsys, command, flags):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", "logistic", "--scheme", "bogus", *flags,
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: nsfd {command}" in err and "invalid choice" in err and self.LABELS in err
        assert not out.exists()

    def test_config_value_is_a_usage_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        cfg.write_text(f"problem=logistic\nscheme=bogus\nh=0.1\nt-end=1\nout={out}\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "run"])
        assert exc.value.code == 2
        assert self.LABELS in capsys.readouterr().err
        assert not out.exists()

    def test_label_of_another_problem(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--problem", "cubic", "--scheme", "snsfd1"])
        assert "choose from euler, mickens, nsfd, nsfd-printed, rk2" in capsys.readouterr().err


class TestRates:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--problem", "cubic", "--scheme", "nsfd",
                     "--h-list", "1e-1,1e-2", "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["h", "error", "rate", "note"]
        assert len(rows) == 2
        assert float(rows[1][2]) == pytest.approx(2.0, abs=0.1)


class TestRatesStepList:
    @pytest.mark.parametrize("h_list, message", [
        ("1e-1,abc", "expected comma-separated numbers"),
        ("1e-1,0", "step sizes must be finite and > 0"),
        ("1e-1,-1e-2", "step sizes must be finite and > 0"),
        ("1e-1,nan", "step sizes must be finite and > 0"),
        ("inf,1e-1", "step sizes must be finite and > 0"),
        ("1e-2,1e-1", "expected two or more strictly decreasing step sizes"),
        ("1e-1,1e-1", "expected two or more strictly decreasing step sizes"),
        ("1e-1", "expected two or more strictly decreasing step sizes"),
    ])
    def test_bad_list_is_a_usage_error(self, tmp_path, capsys, h_list, message):
        out = tmp_path / "rates.csv"
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--problem", "cubic", "--scheme", "nsfd", "--h-list", h_list,
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: nsfd rates" in err and f"argument --h-list: {message}" in err
        assert not out.exists()

    def test_bad_list_in_a_config_file(self, tmp_path, capsys):
        cfg, out = tmp_path / "rates.cfg", tmp_path / "rates.csv"
        cfg.write_text(f"problem=cubic\nscheme=nsfd\nh-list=1e-2,1e-1\nout={out}\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "rates"])
        assert exc.value.code == 2
        assert "strictly decreasing" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_entries_are_skipped(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--problem", "cubic", "--scheme", "nsfd",
                     "--h-list", "1e-1, ,1e-2,", "--out", str(out)]) == 0
        assert len(_read_csv(out)[1]) == 2


class TestInputContractErrors:
    RUN = ["run", "--problem", "logistic", "--scheme", "snsfd1"]

    @pytest.mark.parametrize("argv, error", [
        (RUN + ["--h", "-0.1", "--t-end", "1"], "NonPositiveStep"),
        (RUN + ["--h", "nan", "--t-end", "1"], "NonPositiveStep"),
        (RUN + ["--y0", "-1", "--h", "0.1", "--t-end", "1"], "NegativeState"),
        (RUN + ["--h", "0.1", "--t-end", "-1"], "BadHorizon"),
        (RUN + ["--h", "0.1", "--t-end", "0.01"], "ZeroStepCount"),
        (RUN + ["--h", "1e-12", "--t-end", "1"], "StepCountOverflow"),
        (["run-sys", "--model", "lv", "--y0", "1,-2", "--h", "0.1", "--t-end", "1"],
         "NegativeState"),
        (["run-sys", "--model", "sirs", "--h", "0", "--t-end", "1"], "NonPositiveStep"),
        (["rates", "--problem", "cubic", "--scheme", "nsfd", "--t-end", "1e-9"],
         "ZeroStepCount"),
    ])
    def test_usage_error_and_no_csv(self, tmp_path, capsys, argv, error):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: nsfd {argv[0]}" in err and f"nsfd {argv[0]}: error: {error}: " in err
        assert not out.exists()


class TestCheckAndSplit:
    def test_check_derived_passes(self, tmp_path):
        out = tmp_path / "check.csv"
        assert main(["check", "--problem", "monod", "--scheme", "nsfd",
                     "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["condition", "status"]
        assert ["H3", "pass"] in rows

    def test_check_printed_fails(self):
        assert main(["check", "--problem", "monod", "--scheme", "nsfd-printed"]) == 1

    def test_check_step_only_baseline(self):
        assert main(["check", "--problem", "sine", "--scheme", "mickens"]) == 2

    def test_split_passes(self, capsys):
        assert main(["split", "--problem", "powerlaw"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestAudit:
    def test_default_registry_passes(self):
        assert main(["audit", "--samples", "8", "--steps", "100", "--scan", "4000"]) == 0

    def test_single_problem_selection(self):
        assert main(["audit", "--problem", "cubic", "--samples", "8",
                     "--steps", "100", "--scan", "4000"]) == 0

    def test_broken_weights_fail_audit(self, monkeypatch):
        import nsfd.cli as cli

        b = get_scheme("logistic", "snsfd1")
        broken_cfg = SchemeConfig(alpha=1.1, beta=-0.1, label="broken", validate=False)
        from nsfd.schemes import nsfd_step

        def broken_update(y, h):
            return nsfd_step(cli.get_problem("logistic"), b.rep, broken_cfg, b.spec, y, h)

        broken = SchemeBundle(
            label="broken", step=type(b.step)(label="broken", update=broken_update),
            rep=b.rep, config=broken_cfg, spec=b.spec, positive=True, elementary_stable=False,
        )
        monkeypatch.setattr(cli, "problem_names", lambda: ["logistic"])
        monkeypatch.setattr(cli, "scheme_bundles", lambda name: {"broken": broken})
        assert main(["audit", "--samples", "8", "--steps", "50", "--scan", "2000"]) == 1


    def test_empty_selection_is_noop_success(self, monkeypatch, capsys):
        import nsfd.cli as cli

        monkeypatch.setattr(cli, "problem_names", lambda: [])
        assert main(["audit"]) == 0
        assert "nothing audited" in capsys.readouterr().err


class TestErrataCommand:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "errata.txt"
        assert main(["errata", "--out", str(out)]) == 0
        text = out.read_text()
        assert "exact to machine precision" in text
        assert "(e^{2h} - 1)/2" in text


class TestConfigFile:
    def test_config_supplies_required_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "from_cfg.csv"
        cfg.write_text(
            f"problem=logistic\nscheme=snsfd1\nh=0.25\nt-end=1\nout={out}\n# comment\n"
        )
        assert main(["--config", str(cfg), "run"]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 5

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "override.csv"
        cfg.write_text(f"problem=logistic\nscheme=snsfd1\nh=0.25\nt-end=1\nout={out}\n")
        assert main(["run", "--config", str(cfg), "--h", "0.5"]) == 0
        _, rows = _read_csv(out)
        assert len(rows) == 3

    def test_missing_required_flag_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--problem", "logistic"])
        assert "missing required" in capsys.readouterr().err


class TestConfigValuesParsedLikeFlags:
    @pytest.mark.parametrize("command, lines", [
        ("run-sys", "model=lv\nscheme=bogus\nh=0.1\nt-end=1\n"),
        ("run", "problem=nope\nscheme=snsfd1\nh=0.25\nt-end=1\n"),
        ("run", "problem=logistic\nscheme=snsfd1\nh=abc\nt-end=1\n"),
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, command, lines):
        # the same values passed as flags fail argparse's choices/type checks
        cfg, out = tmp_path / "bad.cfg", tmp_path / "bad.csv"
        cfg.write_text(lines + f"out={out}\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), command])
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, full", [("true", True), ("false", False)])
    def test_on_off_flag(self, tmp_path, monkeypatch, value, full):
        import nsfd.cli as cli

        seen = []
        monkeypatch.setattr(cli, "cmd_table2", lambda args: seen.append(args.full) or 0)
        cfg = tmp_path / "t2.cfg"
        cfg.write_text(f"full={value}\nout={tmp_path / 't2.csv'}\n")
        assert main(["--config", str(cfg), "table2"]) == 0
        assert seen == [full]


def test_positivity_failure_forces_nonzero_exit(monkeypatch):
    import nsfd.cli as cli

    euler = get_scheme("logistic", "euler")
    lying = SchemeBundle(label="lying-euler", step=euler.step, positive=True)
    monkeypatch.setattr(cli, "problem_names", lambda: ["logistic"])
    monkeypatch.setattr(cli, "scheme_bundles", lambda name: {"lying-euler": lying})
    assert main(["audit", "--samples", "16", "--steps", "50", "--scan", "2000"]) == 1
