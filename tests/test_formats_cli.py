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
    ParseError,
    load_csv,
    read_cop,
    reference_copula,
    write_cop,
    write_heatmap,
)
from coptrans import ConvergenceFailure, cli, dependence, transport
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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet programs start a UTF-8 CSV with one
        f = tmp_path / "d.csv"
        f.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
        assert load_csv(f).names == ("a", "b")
        # a later decode error still names its byte in the file, the mark counted
        f.write_bytes(b"\xef\xbb\xbfa,b\n\xff,2\n")
        with pytest.raises(ParseError, match=r"not UTF-8 text \(byte 7\)"):
            load_csv(f)


class TestCopFormat:
    def test_round_trip_exact(self, tmp_path, rng):
        h = random_histogram(rng, 12)
        path = tmp_path / "h.cop"
        write_cop(h, path)
        back = read_cop(path)
        assert np.abs(back.mass - h.mass).max() < 1e-12

    def test_byte_order_mark_is_dropped(self, tmp_path, rng):
        plain, marked = tmp_path / "h.cop", tmp_path / "bom.cop"
        write_cop(random_histogram(rng, 4), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_cop(marked).mass.tobytes() == read_cop(plain).mass.tobytes()

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
        pi = reference_copula("independence", 6)
        path = tmp_path / "pi.pgm"
        write_heatmap(pi, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2" and lines[1] == "6 6" and lines[2] == "255"
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert len(set(pixels)) == 1

    def test_comonotone_black_diagonal_bottom_left_to_top_right(self, tmp_path):
        m = 5
        up = reference_copula("frechet_upper", m)
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
    write_cop(reference_copula("frechet_upper", 6), files["UP"])
    write_cop(reference_copula("independence", 6), files["PI"])
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
        target = reference_copula("frechet_upper", 8)
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
        write_cop(reference_copula("frechet_upper", 8), refs / "up.cop")
        write_cop(reference_copula("frechet_lower", 8), refs / "dn.cop")
        write_cop(reference_copula("independence", 8), refs / "pi.cop")
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

    @pytest.mark.parametrize("debias", [False, True])
    def test_tfdc_solves_every_pair_in_one_batch(self, dataset, tmp_path, monkeypatch, debias):
        # 3 variables give 6 copulas, none bit-equal to one of the 3 references
        refs = tmp_path / "refs"
        refs.mkdir()
        write_cop(reference_copula("frechet_lower", 8), refs / "dn.cop")
        write_cop(reference_copula("gaussian", 8, rho=0.5), refs / "g.cop")
        write_cop(reference_copula("independence", 8), refs / "pi.cop")
        # a debiased batch screens nothing out, so it is one sinkhorn_values_batch call
        name = "sinkhorn_values_batch" if debias else "sinkhorn_values_screened"
        solve = getattr(dependence, name)
        problems = []

        def recording(rs, cs, cost, cfg, **groups):
            problems.append(len(rs))
            return solve(rs, cs, cost, cfg, **groups)

        monkeypatch.setattr(dependence, name, recording)
        assert main(["tfdc", "--input", str(dataset), "--m", "8",
                     "--targets", str(refs / "dn.cop"), str(refs / "g.cop"),
                     "--forgets", str(refs / "pi.cop"), "--out", str(tmp_path / "t")]
                    + ["--debias"] * debias) == 0
        # N(N+1)/2 * K, plus with --debias each copula's and each reference's self-distance
        assert problems == [6 * 4 + 3 if debias else 6 * 3]

    def test_names_with_commas_and_quotes_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.uniform(size=(60, 3))
        f = tmp_path / "data.csv"
        write_lines(f, ['"a,b",c,"d""q"'] + [",".join(map(str, row)) for row in data.tolist()])
        names = ["a,b", "c", 'd"q']
        refs = tmp_path / "refs"
        refs.mkdir()
        write_cop(reference_copula("frechet_upper", 6), refs / "up.cop")
        write_cop(reference_copula("independence", 6), refs / "pi.cop")
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

    def test_failed_write_leaves_no_partial_file(self, dataset, tmp_path, capsys):
        # the matrix is written to a .partial file, which cannot replace a directory
        out = tmp_path / "o"
        (out / "distance-matrix.csv").mkdir(parents=True)
        assert main(["dist", "--input", str(dataset), "--m", "6", "--out", str(out)]) == 4
        assert "cannot write" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["distance-matrix.csv"]

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        f = tmp_path / "data.csv"
        f.write_bytes(b"a,b\n1,2\n\xff\xfe,4\n5,6\n")
        out = tmp_path / "o"
        assert main(["copula", "--input", str(f), "--m", "6", "--out", str(out)]) == 2
        assert f"{f}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_query_target_exits_2(self, dataset, tmp_path, capsys):
        target = tmp_path / "t.cop"
        target.write_bytes(b"2\n0.5 \xff\n0.25 0.25\n")
        out = tmp_path / "q"
        assert main(["query", "--input", str(dataset), "--m", "2", "--target", str(target),
                     "--out", str(out)]) == 2
        assert f"{target}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--patterns", "linear,circle,bogus"),
        ("--noise-levels", "0,1,-1"),
        ("--coefficients", "tfdc,dcor,rdc,bogus"),
    ])
    def test_power_checks_every_input_before_the_first_cell(self, tmp_path, monkeypatch,
                                                            flag, value):
        calls = []

        def counting(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("estimate_power", "tfdc_power_targets"):
            monkeypatch.setattr(cli, name, counting(name))
        options = {"--patterns": "linear", "--noise-levels": "0", "--coefficients": "dcor",
                   flag: value}
        out = tmp_path / "pw"
        assert main(["power", *(a for item in options.items() for a in item), "--n-sims", "10",
                     "--sample-size", "60", "--seed", "1", "--m", "6", "--t-ref", "2000",
                     "--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("t_ref", ["-1", "0", "5"])
    def test_power_t_ref_below_m_exits_2(self, tmp_path, t_ref, capsys):
        out = tmp_path / "pw"
        assert main(["power", "--patterns", "linear", "--noise-levels", "0",
                     "--coefficients", "tfdc", "--n-sims", "10", "--sample-size", "60",
                     "--seed", "1", "--m", "6", "--t-ref", t_ref, "--out", str(out)]) == 2
        assert f"T_ref must be >= m, got T_ref={t_ref} and m=6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [a for a in CLI_RUNS if "--seed" in a],
                             ids=lambda argv: argv[0])
    def test_negative_seed_exits_2_before_out_is_made(self, dataset, tmp_path, argv, capsys):
        # numpy's generators take only non-negative seeds
        argv = fill_cli_run(argv, dataset, tmp_path)
        argv[argv.index("--seed") + 1] = "-1"
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "--seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_exit_code_config_error(self, tmp_path, capsys):
        out = tmp_path / "pw"
        code = main(["power", "--patterns", "linear", "--noise-levels", "0",
                     "--coefficients", "spearman", "--n-sims", "5",
                     "--sample-size", "60", "--seed", "3", "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        pytest.param(["dist", "--input", "DATA", "--m", "8", "--lambda", "inf"],
                     id="dist-lambda-inf"),
        pytest.param(["cluster", "--input", "DATA", "--m", "8", "--k", "2", "--seed", "5",
                      "--max-rounds", "0"], id="cluster-max-rounds-0"),
        pytest.param(["power", "--patterns", "linear", "--noise-levels", "nan",
                      "--coefficients", "pearson", "--n-sims", "20", "--sample-size", "60",
                      "--seed", "3"], id="power-noise-levels-nan"),
        pytest.param(["synth", "--kind", "noisy_parabola", "--offset", "nan", "--T", "50",
                      "--seed", "1"], id="synth-offset-nan"),
        pytest.param(["power", "--patterns", "linear", "--noise-levels", "0",
                      "--coefficients", "pearson,tfdc", "--n-sims", "10", "--sample-size", "1",
                      "--seed", "1", "--m", "6", "--t-ref", "2000"],
                     id="power-sample-size-1"),
        pytest.param(["power", "--patterns", "linear", "--noise-levels", "0,abc",
                      "--coefficients", "pearson", "--n-sims", "10", "--sample-size", "60",
                      "--seed", "1"], id="power-noise-levels-abc"),
        pytest.param(["power", "--patterns", "linear", "--noise-levels", "",
                      "--coefficients", "pearson", "--n-sims", "10", "--sample-size", "60",
                      "--seed", "1"], id="power-noise-levels-empty"),
        pytest.param(["synth", "--kind", "discontinuity", "--T", "1", "--seed", "1"],
                     id="synth-T-1"),
        pytest.param(["synth", "--kind", "gaussian_pair", "--noise-level", "nan", "--T", "50",
                      "--seed", "1"], id="synth-noise-level-nan"),
        pytest.param(["power", "--patterns", "linear", "--noise-levels", "0",
                      "--coefficients", "dcor", "--n-sims", "10", "--sample-size", "3",
                      "--seed", "1"], id="power-dcor-sample-size-3"),
    ])
    def test_exit_code_out_of_range_parameter(self, dataset, tmp_path, argv):
        argv = [str(dataset) if a == "DATA" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

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
        write_cop(reference_copula("frechet_upper", 6), tmp_path / "up.cop")
        assert main(["query", "--input", str(dataset), "--m", "8",
                     "--target", str(tmp_path / "up.cop"), "--out", str(tmp_path / "q")]) == 2
        assert "resolution 6 does not match --m 8" in capsys.readouterr().err

    @staticmethod
    def twin_copula_table(path):
        # b = exp(a) has the ranks of a, so pairs a|c and b|c have equal copulas
        rng = np.random.default_rng(0)
        a, c = rng.standard_normal(300), rng.standard_normal(300)
        write_lines(path, ["a,b,c"] + [f"{x},{np.exp(x)},{z}" for x, z in zip(a, c)])
        return path

    def test_cluster_k_above_distinct_copulas_exits_2(self, tmp_path, capsys):
        f = self.twin_copula_table(tmp_path / "data.csv")
        assert main(["cluster", "--input", str(f), "--m", "8", "--k", "3", "--seed", "5",
                     "--out", str(tmp_path / "cl")]) == 2
        assert "k <= 2, the number of distinct histograms among 3" in capsys.readouterr().err

    def test_failed_command_removes_only_an_out_dir_it_made(self, tmp_path):
        f = self.twin_copula_table(tmp_path / "data.csv")
        argv = ["cluster", "--input", str(f), "--m", "8", "--k", "3", "--seed", "5", "--out"]
        made = tmp_path / "made"
        assert main(argv + [str(made)]) == 2
        assert not made.exists()
        # a directory that was there before the run stays, with its files
        kept_empty, kept_full = tmp_path / "empty", tmp_path / "full"
        kept_empty.mkdir()
        kept_full.mkdir()
        (kept_full / "notes.txt").write_text("keep")
        for out in (kept_empty, kept_full):
            assert main(argv + [str(out)]) == 2
        assert kept_empty.is_dir() and not any(kept_empty.iterdir())
        assert (kept_full / "notes.txt").read_text() == "keep"
        # every directory the run made for a nested --out goes, and removal
        # stops at the first directory that was there before
        assert main(argv + [str(made / "deeper" / "cl")]) == 2
        assert not made.exists()
        assert main(argv + [str(kept_full / "new" / "cl")]) == 2
        assert sorted(p.name for p in kept_full.iterdir()) == ["notes.txt"]

    def test_crashed_command_propagates_and_removes_its_out_dir(self, dataset, tmp_path,
                                                                monkeypatch):
        def crashing_command(args, table, out):
            raise RuntimeError("crash: stub")

        monkeypatch.setattr(cli, "cmd_copula", crashing_command)
        with pytest.raises(RuntimeError, match="crash: stub"):
            main(["copula", "--input", str(dataset), "--m", "6",
                  "--out", str(tmp_path / "o" / "deeper")])
        assert not (tmp_path / "o").exists()

    def test_exit_code_convergence_failure(self, dataset, tmp_path, monkeypatch, capsys):
        def failing_lp(*args, **kwargs):
            raise ConvergenceFailure("transport LP failed: stub")

        monkeypatch.setattr(transport, "_transport_lp", failing_lp)
        code = main(["cluster", "--input", str(dataset), "--m", "8", "--k", "2",
                     "--seed", "5", "--out", str(tmp_path / "cl")])
        assert code == 3
        assert "transport LP failed" in capsys.readouterr().err
        assert not (tmp_path / "cl").exists()

    def test_cluster_failure_names_the_failing_pairs(self, dataset, tmp_path, capsys):
        code = main(["cluster", "--input", str(dataset), "--m", "6", "--k", "2", "--seed", "5",
                     "--max-iter", "5", "--tol", "1e-9", "--out", str(tmp_path / "cl")])
        assert code == 3
        err = capsys.readouterr().err
        assert "failing pairs (3): x|y, x|z, y|z" in err
        assert "convergence failure" in err

    @pytest.mark.parametrize("debias", [False, True])
    def test_tfdc_failure_names_the_failing_pairs(self, dataset, tmp_path, capsys, debias):
        # 240 rows at m=8: each column's copula with itself is the target up
        # bit for bit, so only the three off-diagonal copulas are solved
        refs = tmp_path / "refs"
        refs.mkdir()
        write_cop(reference_copula("frechet_upper", 8), refs / "up.cop")
        write_cop(reference_copula("independence", 8), refs / "pi.cop")
        code = main(["tfdc", "--input", str(dataset), "--m", "8",
                     "--targets", str(refs / "up.cop"), "--forgets", str(refs / "pi.cop"),
                     "--max-iter", "5", "--tol", "1e-9", "--out", str(tmp_path / "t")]
                    + ["--debias"] * debias)
        assert code == 3
        err = capsys.readouterr().err
        assert "failing pairs (3): x|y, x|z, y|z" in err
        assert "convergence failure" in err

    def test_dist_failure_names_the_failing_pairs(self, dataset, tmp_path, capsys):
        code = main(["dist", "--input", str(dataset), "--m", "6",
                     "--max-iter", "5", "--tol", "1e-9", "--out", str(tmp_path / "d")])
        assert code == 3
        err = capsys.readouterr().err
        assert "failing pairs (3): x|y, x|z, y|z" in err
        assert "convergence failure" in err

    def test_dist_failure_in_two_chunks_has_one_residual_clause(self, tmp_path, capsys):
        # Six columns make 15 copulas and 120 problems, two engine chunks.
        # Every problem reaches the last anneal stage and fails there, and
        # each chunk used to add a clause with its own worst residual.
        rng = np.random.default_rng(3)
        f = tmp_path / "data.csv"
        write_lines(f, ["a,b,c,d,e,f"] + [",".join(map(str, row))
                                          for row in rng.uniform(size=(100, 6))])
        code = main(["dist", "--input", str(f), "--m", "6",
                     "--max-iter", "150", "--tol", "1e-9", "--out", str(tmp_path / "d")])
        assert code == 3
        err = capsys.readouterr().err
        assert "failing pairs (15): " in err
        assert err.count("sinkhorn residual") == 1

    def test_query_failure_names_only_the_failing_pairs(self, dataset, tmp_path, capsys):
        # at this budget only x|y, the pair nearest the comonotone target,
        # stays above tol
        write_cop(reference_copula("frechet_upper", 6), tmp_path / "up.cop")
        code = main(["query", "--input", str(dataset), "--m", "6",
                     "--target", str(tmp_path / "up.cop"),
                     "--max-iter", "150", "--tol", "1e-8", "--out", str(tmp_path / "q")])
        assert code == 3
        err = capsys.readouterr().err
        assert "failing pairs (1): x|y\n" in err
        assert "convergence failure" in err

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
