import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_histogram
import coptrans
from coptrans import (
    CopulaHistogram,
    ParseError,
    TargetBuilderSpec,
    load_csv,
    read_cop,
    reference_copula,
    write_cop,
    write_heatmap,
)
from coptrans import ConvergenceFailure, transport
from coptrans.cli import build_parser, main


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_basic_table(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["a,b", "1,2", "3,4", "5,7"])
        t = load_csv(f)
        assert t.T == 3 and t.N == 2 and t.names == ("a", "b")

    def test_header_only_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["a,b"])
        with pytest.raises(ParseError):
            load_csv(f)

    def test_nan_cell_names_line(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["a,b", "1,2", "NaN,4", "5,6"])
        with pytest.raises(ParseError) as err:
            load_csv(f)
        assert err.value.line == 3

    def test_ragged_row_names_line(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["a,b", "1,2", "3"])
        with pytest.raises(ParseError) as err:
            load_csv(f)
        assert err.value.line == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(tmp_path / "nope.csv")


class TestCopFormat:
    def test_round_trip_exact(self, tmp_path, rng):
        h = random_histogram(rng, 12)
        path = tmp_path / "h.cop"
        write_cop(h, path)
        back = read_cop(path)
        assert np.abs(back.mass - h.mass).max() < 1e-12

    def test_rejects_negative(self, tmp_path):
        write_lines(tmp_path / "bad.cop", ["2", "0.5 0.6", "-0.1 0.0"])
        with pytest.raises(ParseError):
            read_cop(tmp_path / "bad.cop")

    def test_rejects_wrong_mass(self, tmp_path):
        write_lines(tmp_path / "bad.cop", ["2", "0.5 0.5", "0.5 0.5"])
        with pytest.raises(ParseError):
            read_cop(tmp_path / "bad.cop")

    def test_rejects_bad_header(self, tmp_path):
        write_lines(tmp_path / "bad.cop", ["x", "0.5 0.5"])
        with pytest.raises(ParseError):
            read_cop(tmp_path / "bad.cop")


class TestHeatmap:
    def test_uniform_grid_uniform_pixels(self, tmp_path):
        pi = reference_copula(TargetBuilderSpec("independence", 6))
        path = tmp_path / "pi.pgm"
        write_heatmap(pi, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2" and lines[1] == "6 6" and lines[2] == "255"
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert len(set(pixels)) == 1

    def test_comonotone_black_diagonal_bottom_left_to_top_right(self, tmp_path):
        m = 5
        up = reference_copula(TargetBuilderSpec("frechet_upper", m))
        path = tmp_path / "m.pgm"
        write_heatmap(up, path)
        rows = [
            [int(v) for v in line.split()]
            for line in path.read_text().splitlines()[3:]
        ]
        assert rows[m - 1][0] == 0      # bottom-left: cell (0, 0)
        assert rows[0][m - 1] == 0      # top-right: cell (m-1, m-1)
        assert rows[0][0] == 255        # zero-mass corner is white

    def test_byte_identical_reruns(self, tmp_path, rng):
        h = random_histogram(rng, 9)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_heatmap(h, a)
        write_heatmap(h, b)
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def dataset(tmp_path):
    """Small CSV with one comonotone-ish pair and one noise variable."""
    rng = np.random.default_rng(17)
    x = rng.uniform(size=240)
    y = x + 0.05 * rng.standard_normal(240)
    z = rng.uniform(size=240)
    f = tmp_path / "data.csv"
    rows = ["x,y,z"] + [f"{a},{b},{c}" for a, b, c in zip(x, y, z)]
    write_lines(f, rows)
    return f


# One small run of each subcommand; DATA, UP and PI stand for input files.
CLI_RUNS = [
    ["copula", "--input", "DATA", "--m", "6"],
    ["dist", "--input", "DATA", "--m", "6"],
    ["cluster", "--input", "DATA", "--m", "6", "--k", "2", "--seed", "5"],
    ["tfdc", "--input", "DATA", "--m", "6", "--targets", "UP", "--forgets", "PI", "--debias"],
    ["query", "--input", "DATA", "--m", "6", "--target", "UP"],
    ["synth", "--kind", "gaussian_pair", "--T", "50", "--seed", "1"],
    ["power", "--patterns", "linear", "--noise-levels", "0", "--coefficients", "pearson",
     "--n-sims", "20", "--sample-size", "60", "--seed", "3"],
]


def fill_cli_run(argv, data, tmp_path):
    files = {"DATA": data, "UP": tmp_path / "up.cop", "PI": tmp_path / "pi.cop"}
    write_cop(reference_copula(TargetBuilderSpec("frechet_upper", 6)), files["UP"])
    write_cop(reference_copula(TargetBuilderSpec("independence", 6)), files["PI"])
    return [str(files.get(a, a)) for a in argv] + ["--out", str(tmp_path / "o")]


class TestCli:
    def test_synth_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            code = main(["synth", "--kind", "gaussian_pair", "--rho", "0.5",
                         "--T", "100", "--seed", "9", "--out", str(out)])
            assert code == 0
        assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()
        meta = json.loads((out1 / "run-meta.json").read_text())
        assert meta["command"] == "synth" and meta["parameters"]["seed"] == 9

    def test_copula_and_query_pipeline(self, dataset, tmp_path):
        cop_dir = tmp_path / "cops"
        assert main(["copula", "--input", str(dataset), "--m", "8",
                     "--out", str(cop_dir)]) == 0
        pairs = (cop_dir / "pairs.csv").read_text().splitlines()
        assert pairs[0] == "pair_id,i,j,name_i,name_j,file"
        assert len(pairs) == 4  # header + 3 pairs
        for h in [read_cop(cop_dir / f"pair_{i:04d}.cop") for i in range(3)]:
            assert h.m == 8

        target_dir = tmp_path / "target"
        target_dir.mkdir()
        target = reference_copula(TargetBuilderSpec("frechet_upper", 8))
        write_cop(target, target_dir / "up.cop")
        qdir = tmp_path / "q"
        assert main(["query", "--input", str(dataset), "--m", "8",
                     "--target", str(target_dir / "up.cop"), "--out", str(qdir)]) == 0
        ranking = (qdir / "ranking.csv").read_text().splitlines()
        assert ranking[0] == "rank,pair_i,pair_j,distance"
        # the (x, y) pair is nearest to the comonotone target
        assert ranking[1].split(",")[1:3] == ["x", "y"]

    def test_dist_matrix(self, dataset, tmp_path):
        out = tmp_path / "dist"
        assert main(["dist", "--input", str(dataset), "--m", "8",
                     "--out", str(out)]) == 0
        lines = (out / "distance-matrix.csv").read_text().splitlines()
        assert lines[0] == "pair,x|y,x|z,y|z"
        values = np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)
        assert np.allclose(values, values.T)

    def test_tfdc_matrix(self, dataset, tmp_path):
        refs = tmp_path / "refs"
        refs.mkdir()
        write_cop(reference_copula(TargetBuilderSpec("frechet_upper", 8)), refs / "up.cop")
        write_cop(reference_copula(TargetBuilderSpec("frechet_lower", 8)), refs / "dn.cop")
        write_cop(reference_copula(TargetBuilderSpec("independence", 8)), refs / "pi.cop")
        out = tmp_path / "tfdc"
        assert main(["tfdc", "--input", str(dataset), "--m", "8",
                     "--targets", str(refs / "up.cop"), str(refs / "dn.cop"),
                     "--forgets", str(refs / "pi.cop"), "--out", str(out)]) == 0
        lines = (out / "tfdc-matrix.csv").read_text().splitlines()
        assert lines[0] == "variable,x,y,z"
        matrix = np.array([line.split(",")[1:] for line in lines[1:]], dtype=float)
        assert matrix[0, 1] >= 0.9           # x and y are strongly dependent
        assert matrix[0, 2] <= 0.3           # x and z are not
        assert np.allclose(matrix, matrix.T)

    def test_names_with_commas_and_quotes_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.uniform(size=(60, 3))
        f = tmp_path / "data.csv"
        write_lines(f, ['"a,b",c,"d""q"'] + [",".join(map(str, row)) for row in data.tolist()])
        names = ["a,b", "c", 'd"q']
        refs = tmp_path / "refs"
        refs.mkdir()
        write_cop(reference_copula(TargetBuilderSpec("frechet_upper", 6)), refs / "up.cop")
        write_cop(reference_copula(TargetBuilderSpec("independence", 6)), refs / "pi.cop")
        assert main(["dist", "--input", str(f), "--m", "6", "--out", str(tmp_path / "d")]) == 0
        assert main(["tfdc", "--input", str(f), "--m", "6", "--targets", str(refs / "up.cop"),
                     "--forgets", str(refs / "pi.cop"), "--out", str(tmp_path / "t")]) == 0
        expected = {
            tmp_path / "d" / "distance-matrix.csv":
                ["pair", "a,b|c", 'a,b|d"q', 'c|d"q'],
            tmp_path / "t" / "tfdc-matrix.csv": ["variable"] + names,
        }
        for path, header in expected.items():
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == header
            assert [row[0] for row in rows[1:]] == header[1:]
            assert all(len(row) == len(header) for row in rows)

    def test_copula_rejects_transport_flags(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["copula", "--input", str(dataset), "--tol", "1e-3",
                  "--out", str(tmp_path / "o")])
        assert err.value.code == 2

    def test_cluster_outputs(self, dataset, tmp_path):
        out = tmp_path / "cl"
        assert main(["cluster", "--input", str(dataset), "--m", "8", "--k", "2",
                     "--seed", "5", "--out", str(out)]) == 0
        assert (out / "centroid_0.cop").exists()
        assert (out / "centroid_0.pgm").exists()
        lines = (out / "assignment.csv").read_text().splitlines()
        assert lines[0] == "pair_i,pair_j,cluster,distance_to_centroid"
        assert len(lines) == 4

    def test_cluster_deterministic(self, dataset, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            assert main(["cluster", "--input", str(dataset), "--m", "8", "--k", "2",
                         "--seed", "5", "--out", str(out)]) == 0
            outs.append((out / "assignment.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_power_small_run(self, tmp_path):
        out = tmp_path / "pw"
        assert main(["power", "--patterns", "linear", "--noise-levels", "0",
                     "--coefficients", "spearman,pearson", "--n-sims", "20",
                     "--sample-size", "60", "--seed", "3", "--out", str(out)]) == 0
        lines = (out / "power.csv").read_text().splitlines()
        assert lines[0] == "pattern,noise,coefficient,power,n_sims,sample_size,seed"
        assert len(lines) == 3
        for line in lines[1:]:
            assert float(line.split(",")[3]) == 1.0
        meta = json.loads((out / "run-meta.json").read_text())
        assert meta["rejection_level"] == 0.05
        assert meta["null_protocol"] == "permutation"

    def test_exit_code_parse_error(self, tmp_path, capsys):
        assert main(["copula", "--input", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_code_io_error(self, dataset, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["copula", "--input", str(dataset),
                     "--out", str(blocker / "sub")])
        assert code == 4

    def test_exit_code_config_error(self, tmp_path, capsys):
        out = tmp_path / "pw"
        code = main(["power", "--patterns", "linear", "--noise-levels", "0",
                     "--coefficients", "spearman", "--n-sims", "5",
                     "--sample-size", "60", "--seed", "3", "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["dist", "--input", "DATA", "--m", "8", "--lambda", "inf"],
        ["cluster", "--input", "DATA", "--m", "8", "--k", "2", "--seed", "5",
         "--max-rounds", "0"],
        ["power", "--patterns", "linear", "--noise-levels", "nan", "--coefficients",
         "pearson", "--n-sims", "20", "--sample-size", "60", "--seed", "3"],
        ["synth", "--kind", "noisy_parabola", "--offset", "nan", "--T", "50", "--seed", "1"],
    ])
    def test_exit_code_out_of_range_parameter(self, dataset, tmp_path, argv):
        argv = [str(dataset) if a == "DATA" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda argv: argv[0])
    def test_manifest_records_command_and_every_option(self, dataset, tmp_path, argv):
        argv = fill_cli_run(argv, dataset, tmp_path)
        assert main(argv) == 0
        meta = json.loads((tmp_path / "o" / "run-meta.json").read_text())
        parsed = vars(build_parser().parse_args(argv))
        del parsed["func"]
        assert meta["command"] == argv[0]
        assert meta["parameters"] == json.loads(json.dumps(parsed, default=str))

    @pytest.mark.parametrize("argv", [a for a in CLI_RUNS if "--input" in a],
                             ids=lambda argv: argv[0])
    def test_missing_input_exits_2_and_creates_no_out_dir(self, tmp_path, argv, capsys):
        assert main(fill_cli_run(argv, tmp_path / "missing.csv", tmp_path)) == 2
        assert "missing.csv" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_query_target_of_another_resolution_exits_2(self, dataset, tmp_path, capsys):
        write_cop(reference_copula(TargetBuilderSpec("frechet_upper", 6)), tmp_path / "up.cop")
        assert main(["query", "--input", str(dataset), "--m", "8",
                     "--target", str(tmp_path / "up.cop"), "--out", str(tmp_path / "q")]) == 2
        assert "resolution 6 does not match --m 8" in capsys.readouterr().err

    def test_cluster_k_above_distinct_copulas_exits_2(self, tmp_path, capsys):
        # b = exp(a) has the ranks of a, so pairs a|c and b|c have equal copulas
        rng = np.random.default_rng(0)
        a, c = rng.standard_normal(300), rng.standard_normal(300)
        f = tmp_path / "data.csv"
        write_lines(f, ["a,b,c"] + [f"{x},{np.exp(x)},{z}" for x, z in zip(a, c)])
        assert main(["cluster", "--input", str(f), "--m", "8", "--k", "3", "--seed", "5",
                     "--out", str(tmp_path / "cl")]) == 2
        assert "k <= 2, the number of distinct histograms among 3" in capsys.readouterr().err

    def test_exit_code_convergence_failure(self, dataset, tmp_path, monkeypatch, capsys):
        def failing_lp(*args, **kwargs):
            raise ConvergenceFailure("transport LP failed: stub")

        monkeypatch.setattr(transport, "_transport_lp", failing_lp)
        code = main(["cluster", "--input", str(dataset), "--m", "8", "--k", "2",
                     "--seed", "5", "--out", str(tmp_path / "cl")])
        assert code == 3
        assert "transport LP failed" in capsys.readouterr().err

    def test_commands_do_not_import_scipy_stats(self, dataset, tmp_path):
        # A fresh interpreter, since this one may have loaded scipy.stats already.
        script = f"""
import sys
import coptrans
from coptrans.cli import main
assert "scipy.stats" not in sys.modules, "import coptrans"
assert main(["dist", "--input", {str(dataset)!r}, "--m", "6",
             "--out", {str(tmp_path / "dist")!r}]) == 0
assert main(["power", "--patterns", "linear", "--noise-levels", "0",
             "--coefficients", "spearman,rdc,tfdc", "--n-sims", "10",
             "--sample-size", "60", "--seed", "3", "--m", "6", "--t-ref", "2000",
             "--out", {str(tmp_path / "power")!r}]) == 0
assert "scipy.stats" not in sys.modules, "dist and power"
"""
        src = str(Path(coptrans.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
