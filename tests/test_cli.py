import csv
import hashlib
import math

from dataclasses import replace

import numpy as np
import pytest

from nsfd.cli import main
from nsfd.denominator import derived_denominator
from nsfd.model import SchemeConfig
from nsfd.problems import SchemeBundle, get_scheme
from nsfd.schemes import nsfd_step_map
from nsfd.systems import DEFAULT_STARTS


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


#: sha256 of the default ``table2`` CSV, the ``errata`` text and the
#: stdout of ``audit --samples 8 --steps 100 --scan 4000``; like the other
#: pins, taken where numpy runs its AVX-512 loops
TABLE2_SHA256 = "6d933c2e265f338c84cd1bfe1fa86c26547fff3c2bcc8e810c007fca918bdca4"
ERRATA_SHA256 = "cdcba0c3ca357df29d3ac374d94082f0fe17e957b8dc368e0763ccb02810c6f5"
AUDIT_STDOUT_SHA256 = "5c295c573454f7833cf0654bdaccf2ec48a26c56fcd73a7e79199d70be386d24"


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
        assert hashlib.sha256(a.read_bytes()).hexdigest() == TABLE2_SHA256


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
        captured = capsys.readouterr()
        assert "final y = -inf" in captured.out
        assert "RuntimeWarning" not in captured.err


#: sha256 of ``run`` CSVs for every registry scheme, at a small step
#: (``--y0 0.5 --h 0.1 --t-end 1``) and a large one (``--y0 3 --h 1.25
#: --t-end 50``)
RUN_SHA256 = {
    ("cubic", "euler", ("0.5", "0.1", "1")):
        "b25484efee00cc20be4957be075e99586ac532bb626710362b44a78e0dc0c123",
    ("cubic", "mickens", ("0.5", "0.1", "1")):
        "9299f57aa6d36eb88305d13cd3a35a49f4e3ac788b119200d7da928b54ba4739",
    ("cubic", "nsfd", ("0.5", "0.1", "1")):
        "806b92793a76168e718e4771962e10eb6f56e1fc207cd0e1acdab8b87eacf9d6",
    ("cubic", "nsfd-printed", ("0.5", "0.1", "1")):
        "acdc48cc6902c6948b5a18df482288fe229f5f37d028d62697ea1ce9ee986882",
    ("cubic", "rk2", ("0.5", "0.1", "1")):
        "6b512f578ff826a56be323123eae108bb2821ad9f80f12f8fad790435ea7f30b",
    ("logistic", "euler", ("0.5", "0.1", "1")):
        "6f572f7bb64ac2c93d0df54f76b742cf53ed84005651315d49cdabf9b731e237",
    ("logistic", "rk2", ("0.5", "0.1", "1")):
        "3923f9daf1124712ddbeb2a305e8d559b7c6d0e9186c86b3a5136057f55e8de6",
    ("logistic", "snsfd1", ("0.5", "0.1", "1")):
        "3b63bf60805c41d76a2e08c737f0405b458d08a8c15c8e9cd43817aa8cb55cc4",
    ("logistic", "snsfd2", ("0.5", "0.1", "1")):
        "a2d59d09833f1bc1d5ca2438605104a51e61f611bfbab618730853c6483dbe81",
    ("logistic", "snsfd3", ("0.5", "0.1", "1")):
        "816071856085ba5c49cf6488bd0fbe74f8a0570171fa2e12b5b729dd27765071",
    ("logistic", "snsfd3-printed", ("0.5", "0.1", "1")):
        "f8e65733fddaf4199b9d748094fe2fd4e8118eb0e621f4350111c9e9337ef900",
    ("logistic", "wood", ("0.5", "0.1", "1")):
        "27b0423c79fb6834c23ae0872bd873146ca83761bf1ca66c70a0f97396593744",
    ("monod", "euler", ("0.5", "0.1", "1")):
        "23552ac928b2ca0c32ffd9d6dbed8cb124e76c89eb1dfad670a274076e339779",
    ("monod", "mickens", ("0.5", "0.1", "1")):
        "608dd83d314f81b7ccb36f92b1ce76e892caf7ef7bb0e6a67fee752cd12eb0c6",
    ("monod", "nsfd", ("0.5", "0.1", "1")):
        "6e7f84e6a0599eb0213ab7c58168db396173139db153d8794e8d70009a24c0c0",
    ("monod", "nsfd-printed", ("0.5", "0.1", "1")):
        "6edf8be22e9b952359dd3d3d0091f7ebd98d7a185ef06142501575ebe053c871",
    ("monod", "rk2", ("0.5", "0.1", "1")):
        "af47d68f6e0c07208041581d28122c1193ff7bbe10781a301260940f14ee72a3",
    ("powerlaw", "euler", ("0.5", "0.1", "1")):
        "af678ad10ea9e1dd37227b703c8c2b5d157d6702ec523c91fd68bcceb1d3f2e6",
    ("powerlaw", "nsfd", ("0.5", "0.1", "1")):
        "763b3d3729666171bce1ca04401eea37160a1d223d684e4547fd86e5f6267aac",
    ("powerlaw", "nsfd-printed", ("0.5", "0.1", "1")):
        "d0379c0bf8cf2f61ac6e062de8dd6eaef6f59f6afd761c68ef8a1cadc2a12974",
    ("powerlaw", "rk2", ("0.5", "0.1", "1")):
        "97c368d427598c1a78293a64cbf5336b89808442ce3f9fb2c944e1a3a762e00b",
    ("sine", "euler", ("0.5", "0.1", "1")):
        "dd17d64ae3c0b47bb1cc9f5ff731008cca70282311af722a44feb3b43c281976",
    ("sine", "mickens", ("0.5", "0.1", "1")):
        "a17d19811ddfa75404789ed5590cbecd9c9b89387df3c851e71c3cd1303f91b9",
    ("sine", "nsfd", ("0.5", "0.1", "1")):
        "097a9c6cdda81ee10764958d635a70235e8b3f8b1fdae5d4abfa9b7d58258a2e",
    ("sine", "nsfd-printed", ("0.5", "0.1", "1")):
        "0704b3289c1f293271957b8d31c7408efd2961e3463cebcb2540b21c0939e1d0",
    ("sine", "rk2", ("0.5", "0.1", "1")):
        "1cf83829391ae510717472800e79070ccdb796d6eecdfaeb4e3b2f0c2848d8e2",
    ("cubic", "euler", ("3", "1.25", "50")):
        "1b964918dea1ccbc898d9f3f21371f1e5d32a40d6c3b56fcdc7b37a9020a05ec",
    ("cubic", "mickens", ("3", "1.25", "50")):
        "25d0e54d7d1dcce214ec47c8506108252115a34f975a1b5b224472635b33b08c",
    ("cubic", "nsfd", ("3", "1.25", "50")):
        "dccd203e88de4b0b057b5e3d99713ec51f135118e40bb6761a36e9b9172d562a",
    ("cubic", "nsfd-printed", ("3", "1.25", "50")):
        "ece5f89c0251d3591b98e20b22f81f933b487684365d02e57f6c018437f0d070",
    ("cubic", "rk2", ("3", "1.25", "50")):
        "508bbacf63b9d405b087a5fba68c8f64a198aa2159b5eb73e9de72d24ed4f579",
    ("logistic", "euler", ("3", "1.25", "50")):
        "c4570a19105db34a60a73df376a7ff3fb2dbd59f91da4fb1f2bbb916240b74f6",
    ("logistic", "rk2", ("3", "1.25", "50")):
        "7adb9d1acc39286dcfb402f76e86c1134b0187a8ffced0493be88ef10fcc1ce9",
    ("logistic", "snsfd1", ("3", "1.25", "50")):
        "5a7a16f7f02241fbb55e0d6583bc4ba4a8c1bb5bda18b73c1816c88b93613ed8",
    ("logistic", "snsfd2", ("3", "1.25", "50")):
        "17d9c6c566c800be0bd38e7fef4fdc63f0170becf71ce7be0825114f59db1e37",
    ("logistic", "snsfd3", ("3", "1.25", "50")):
        "1cf7b0a08df93dbea1f444a31498445d143f09a338221029197d532886694f89",
    ("logistic", "snsfd3-printed", ("3", "1.25", "50")):
        "d26d4acd6d4154f3b30ceff654afbfb0d754a9a3f21add1e457517c0378ee8f7",
    ("logistic", "wood", ("3", "1.25", "50")):
        "f740124b36b593eb23067025ce04468bd8ce13f8383b2dc41fcc3422a840ff4f",
    ("monod", "euler", ("3", "1.25", "50")):
        "9fc9fb6a54f2107eac751324bf2f24b81bdfa4df58aeea889299a4314fa9cd2b",
    ("monod", "mickens", ("3", "1.25", "50")):
        "133dd4a4c19c4c26090009d8d9242b853d4bdcaccfe61ad0e94d8d26e0acc164",
    ("monod", "nsfd", ("3", "1.25", "50")):
        "eae2647b082b39582d0ac98539e2e55d3346c0bfe87dd62120d740966ba03ecd",
    ("monod", "nsfd-printed", ("3", "1.25", "50")):
        "f3b75fbd4562d113cdc2c72299320013ed9b83e52317a0d7e8f8736fd082b93d",
    ("monod", "rk2", ("3", "1.25", "50")):
        "503f7cae6b096318dd5a34d47e4224fdbf8bdc084842c6b8972d52c267fe3c98",
    ("powerlaw", "euler", ("3", "1.25", "50")):
        "653b335e64b643c270feeacf1d7b57a9fbf52bd56f4f23f360960ccfdac3e58e",
    ("powerlaw", "nsfd", ("3", "1.25", "50")):
        "f81fea9152e5b7b8b44062ce9ebb70640f6c13eeeefa71e8e29d99af0e593fe7",
    ("powerlaw", "nsfd-printed", ("3", "1.25", "50")):
        "0edb05eb35d54c2995402be09f4b2d63746957c66115ab355da689fb0881d2b1",
    ("powerlaw", "rk2", ("3", "1.25", "50")):
        "45c3cae3963f58ccdcfc1635b2982a55176ddaa65b61cad4762334f3fab86ed7",
    ("sine", "euler", ("3", "1.25", "50")):
        "760bc8dce619a1d13e1cbd13e5c0b4df3b09a1b4efbcbe056497e62193cdd42b",
    ("sine", "mickens", ("3", "1.25", "50")):
        "8c7fe569e3d3360adbe4ceb3f3761881306f5a597ded41318b750d9bc0e48285",
    ("sine", "nsfd", ("3", "1.25", "50")):
        "97cfed4eccf65678c1b265a72550b8bf58db00cdb5d9bc7b2e874c4eec02ad67",
    ("sine", "nsfd-printed", ("3", "1.25", "50")):
        "8c7fe569e3d3360adbe4ceb3f3761881306f5a597ded41318b750d9bc0e48285",
    ("sine", "rk2", ("3", "1.25", "50")):
        "ad8f11284cb3bc1b2aa69bbff74d7f816baf85d8de996998acc24511ba486f7d",
}

#: sha256 of the ``figures`` CSVs
FIGURES_SHA256 = {
    "fig1.csv": "7d85a53442241a0292aeeedffad8e14211ce1b6a27555ed79ade7afce6910cce",
    "fig2.csv": "e5d9c2889cb50ba11a921223b2502d7c3f165bf2e3f035d360dffcb43b295a3d",
}

class TestPinnedBytes:
    @pytest.mark.parametrize(("problem", "scheme", "args"), sorted(RUN_SHA256))
    def test_run_csv(self, tmp_path, problem, scheme, args):
        y0, h, t_end = args
        out = tmp_path / "run.csv"
        assert main(["run", "--problem", problem, "--scheme", scheme, "--y0", y0,
                     "--h", h, "--t-end", t_end, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SHA256[(problem, scheme, args)]

    def test_figures_csvs(self, tmp_path):
        assert main(["figures", "--out-dir", str(tmp_path)]) == 0
        for name, digest in FIGURES_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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


class TestAuditCounts:
    """audit's integer flags: a value that would check nothing, or make
    numpy raise, is a usage error naming the flag."""

    @pytest.mark.parametrize("flag, value, message", [
        ("--scan", "-5", "must be at least 2"),
        ("--scan", "0", "must be at least 2"),
        ("--scan", "1", "must be at least 2"),
        ("--samples", "-3", "must be at least 1"),
        ("--samples", "0", "must be at least 1"),
        ("--steps", "-2", "must be at least 1"),
        ("--steps", "1.5", "expected an integer"),
        ("--seed", "-1", "must be at least 0"),
    ])
    def test_out_of_range_is_a_usage_error(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--problem", "logistic", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: {message}" in captured.err
        assert "all audits passed" not in captured.out

    def test_config_value_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "audit.cfg"
        cfg.write_text("problem=logistic\nscan=0\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "audit"])
        assert exc.value.code == 2
        assert "argument --scan: must be at least 2" in capsys.readouterr().err

    def test_smallest_counts_run(self, capsys):
        assert main(["audit", "--problem", "logistic", "--seed", "0", "--samples", "1",
                     "--steps", "1", "--scan", "2"]) == 0
        assert "all audits passed" in capsys.readouterr().out


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

    def test_start_of_the_wrong_dimension(self, tmp_path, capsys, monkeypatch):
        # the parser checks --y0 against the model, so only a default start
        # can reach the library's DimensionMismatch
        monkeypatch.setitem(DEFAULT_STARTS, "lv", (1.0, 2.0, 3.0))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run-sys", "--model", "lv", "--h", "0.1", "--t-end", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "nsfd run-sys: error: DimensionMismatch: lv has dim = 2" in capsys.readouterr().err
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

    def test_split_names_its_window(self, capsys):
        assert main(["split", "--problem", "logistic"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "signs checked on [0, 10]; not checked beyond it"


class TestAudit:
    def test_default_registry_passes(self, capsys):
        assert main(["audit", "--samples", "8", "--steps", "100", "--scan", "4000"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == AUDIT_STDOUT_SHA256

    def test_single_problem_selection(self):
        assert main(["audit", "--problem", "cubic", "--samples", "8",
                     "--steps", "100", "--scan", "4000"]) == 0

    def test_broken_weights_fail_audit(self, monkeypatch):
        import nsfd.cli as cli

        b = get_scheme("logistic", "snsfd1")
        broken_cfg = SchemeConfig(alpha=1.1, beta=-0.1, label="broken", validate=False)
        broken_update = nsfd_step_map(cli.get_problem("logistic"), b.rep, broken_cfg, b.spec).update

        broken = SchemeBundle(
            step=type(b.step)(label="broken", update=broken_update),
            rep=b.rep, config=broken_cfg, spec=b.spec, positive=True, elementary_stable=False,
        )
        monkeypatch.setattr(cli, "problem_names", lambda: ["logistic"])
        monkeypatch.setattr(cli, "scheme_bundles", lambda name: {"broken": broken})
        assert main(["audit", "--samples", "8", "--steps", "50", "--scan", "2000"]) == 1

    def test_printed_rate_is_not_derived_by_its_label(self, monkeypatch, capsys):
        # a printed rate misses H3 by design, whatever the bundle claims
        import nsfd.cli as cli

        b = get_scheme("logistic", "snsfd3-printed")
        printed = replace(b, positive=False, elementary_stable=False)
        monkeypatch.setattr(cli, "problem_names", lambda: ["logistic"])
        monkeypatch.setattr(cli, "scheme_bundles", lambda name: {"printed": printed})
        assert main(["audit", "--samples", "8", "--steps", "50", "--scan", "2000"]) == 0
        assert "[conditions] logistic/printed: fail" in capsys.readouterr().out

    def test_derived_rate_is_derived_whatever_its_label(self, monkeypatch, capsys):
        # a rate derived at beta = 1.25 under weights with beta = 1 fails H3
        import nsfd.cli as cli

        p, rep = cli.get_problem("logistic"), get_scheme("logistic", "snsfd1").rep
        spec = derived_denominator(p, rep, 1.25)
        cfg = SchemeConfig(alpha=0.0, beta=1.0, label="mine")
        mine = SchemeBundle(step=nsfd_step_map(p, rep, cfg, spec), rep=rep, config=cfg, spec=spec)
        monkeypatch.setattr(cli, "problem_names", lambda: ["logistic"])
        monkeypatch.setattr(cli, "scheme_bundles", lambda name: {"mine": mine})
        assert main(["audit", "--samples", "8", "--steps", "50", "--scan", "2000"]) == 1
        assert "logistic/mine: derived scheme fails conditions" in capsys.readouterr().err


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
        assert hashlib.sha256(out.read_bytes()).hexdigest() == ERRATA_SHA256


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
    lying = SchemeBundle(step=euler.step, positive=True)
    monkeypatch.setattr(cli, "problem_names", lambda: ["logistic"])
    monkeypatch.setattr(cli, "scheme_bundles", lambda name: {"lying-euler": lying})
    assert main(["audit", "--samples", "16", "--steps", "50", "--scan", "2000"]) == 1
