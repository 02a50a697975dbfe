"""End-to-end command-line behavior: files written, exit codes, determinism."""

import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conivat import LearnConfig, conivat_pipeline, generate_from_labels, load_csv, load_iris, normalize_minmax
from conivat import cli
from conivat.cli import main
from oracles import linear_render, rank_render, read_pgm, running_max_image


@pytest.fixture(scope="module")
def iris_csv(tmp_path_factory):
    data = load_iris()
    path = tmp_path_factory.mktemp("data") / "iris.csv"
    rows = [",".join(data.names) + ",species"]
    for x, lab in zip(data.points, data.labels):
        rows.append(",".join(repr(float(v)) for v in x) + f",{int(lab)}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def unlabeled_csv(tmp_path_factory):
    rng = np.random.default_rng(5)
    path = tmp_path_factory.mktemp("data") / "plain.csv"
    lines = ["a,b"] + [f"{x:.6f},{y:.6f}" for x, y in rng.normal(size=(30, 2))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestAssess:
    def test_conivat_writes_artifacts(self, iris_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("assess", "--data", iris_csv, "--label-column", "species", "--out", str(out))
        assert code == 0
        for name in ("rdi.pgm", "cuts.csv", "suggestions.csv", "metric_report.csv"):
            assert (out / name).is_file(), name
        stdout = capsys.readouterr().out
        assert "suggest k=" in stdout
        assert (out / "cuts.csv").read_text().startswith("position,magnitude\n")

    def test_cuts_csv_holds_plain_floats_equal_to_pipeline(self, iris_csv, tmp_path):
        assert run_cli("assess", "--data", iris_csv, "--label-column", "species", "--out", str(tmp_path)) == 0
        data, _ = load_csv(iris_csv, label_column="species")
        vat, _ = conivat_pipeline(normalize_minmax(data), generate_from_labels(data, 30, seed=0), LearnConfig())
        rows = (tmp_path / "cuts.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(1, vat.n))
        assert [float(r.split(",")[1]) for r in rows] == list(vat.cut_magnitudes)

    def test_ivat_needs_no_constraints(self, unlabeled_csv, tmp_path):
        code = run_cli("assess", "--data", unlabeled_csv, "--variant", "ivat", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "rdi.pgm").is_file()
        assert not (tmp_path / "metric_report.csv").exists()

    def test_generator_source(self, tmp_path):
        assert run_cli("assess", "--gen", "synth1", "--variant", "ivat", "--out", str(tmp_path)) == 0
        header = (tmp_path / "rdi.pgm").read_bytes()[:11]
        assert header == b"P5\n400 400\n"

    @pytest.mark.parametrize("scale", ["linear", "rank"])
    def test_image_is_the_minimax_render_of_its_cuts(self, scale, tmp_path):
        assert run_cli("assess", "--gen", "synth1", "--scale", scale, "--out", str(tmp_path)) == 0
        rows = (tmp_path / "cuts.csv").read_text(encoding="utf-8").splitlines()[1:]
        image = running_max_image([float(r.split(",")[1]) for r in rows])
        pixels, maxval = read_pgm(tmp_path / "rdi.pgm")
        oracle = rank_render if scale == "rank" else linear_render
        assert maxval == 255
        assert np.array_equal(pixels, oracle(image))

    def test_repeat_invocation_byte_identical(self, iris_csv, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("assess", "--data", iris_csv, "--label-column", "species",
                           "--seed", "3", "--out", str(out)) == 0
            outs.append(out)
        for name in ("rdi.pgm", "cuts.csv", "suggestions.csv", "metric_report.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_conivat_without_labels_or_file_is_input_error(self, unlabeled_csv, tmp_path, capsys):
        code = run_cli("assess", "--data", unlabeled_csv, "--out", str(tmp_path))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_constraint_file_source(self, unlabeled_csv, tmp_path, capsys):
        cfile = tmp_path / "c.txt"
        cfile.write_text("# two welds\nS 0 5\nS 10 11\n", encoding="utf-8")
        code = run_cli("assess", "--data", unlabeled_csv, "--constraints", str(cfile), "--out", str(tmp_path))
        assert code == 0

    def test_dropped_rows_noted_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "holey.csv"
        path.write_text("a,b\n1.0,2.0\noops,3.0\n4.0,5.0\n", encoding="utf-8")
        code = run_cli("assess", "--data", str(path), "--variant", "ivat", "--out", str(tmp_path))
        assert code == 0
        assert "dropped 1 unparseable row" in capsys.readouterr().err


class TestCluster:
    def test_k1_single_cluster_csv(self, iris_csv, tmp_path):
        code = run_cli("cluster", "--data", iris_csv, "--label-column", "species",
                       "--variant", "ivat", "--k", "1", "--out", str(tmp_path))
        assert code == 0
        body = (tmp_path / "partition.csv").read_text().splitlines()
        assert body[0] == "index,label"
        assert len(body) == 151 and {line.split(",")[1] for line in body[1:]} == {"0"}

    def test_pa_printed_for_labeled_data(self, iris_csv, tmp_path, capsys):
        code = run_cli("cluster", "--data", iris_csv, "--label-column", "species",
                       "--k", "3", "--out", str(tmp_path))
        assert code == 0
        match = re.search(r"^PA: (\d+\.\d\d)$", capsys.readouterr().out, re.M)
        assert match and 0.0 <= float(match.group(1)) <= 100.0

    def test_missing_k_usage_error(self, iris_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("cluster", "--data", iris_csv, "--label-column", "species", "--out", str(tmp_path))
        assert exc.value.code == 2

    def test_k_out_of_range(self, iris_csv, tmp_path, capsys):
        code = run_cli("cluster", "--data", iris_csv, "--label-column", "species",
                       "--k", "999", "--out", str(tmp_path))
        assert code == 2
        assert "--k must be in" in capsys.readouterr().err

    def test_conivat_beats_ivat_across_seeds(self, iris_csv, tmp_path, capsys):
        # seed-loop harness: constraint-guided cuts should match or beat the
        # unsupervised baseline on nearly every draw
        def pa_for(variant, seed):
            out = tmp_path / f"{variant}{seed}"
            assert run_cli("cluster", "--data", iris_csv, "--label-column", "species",
                           "--variant", variant, "--k", "3", "--seed", str(seed),
                           "--out", str(out)) == 0
            return float(re.search(r"^PA: (\d+\.\d\d)$", capsys.readouterr().out, re.M).group(1))

        wins = sum(pa_for("conivat", seed) >= pa_for("ivat", seed) for seed in range(10))
        assert wins >= 8


class TestReports:
    def test_benchmark_reproducible(self, tmp_path, capsys):
        csvs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("benchmark", "--gen", "synth1", "--runs", "2",
                           "--n-constraints", "10", "--seed", "1", "--out", str(out)) == 0
            csvs.append((out / "benchmark.csv").read_bytes())
        assert csvs[0] == csvs[1]
        table = capsys.readouterr().out
        assert "synth1" in table and "conivat" in table

    def test_ablation_four_variant_rows(self, tmp_path):
        assert run_cli("ablation", "--gen", "synth1", "--runs", "2", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        assert {line.split(",")[1] for line in lines[1:]} == {"ivat", "metric_ivat", "mtd_vat", "conivat"}

    def test_sweep_row_per_count(self, tmp_path):
        assert run_cli("sweep", "--gen", "synth1", "--runs", "2", "--counts", "0,5,10",
                       "--out", str(tmp_path)) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_benchmark_needs_a_dataset(self, tmp_path, capsys):
        assert run_cli("benchmark", "--out", str(tmp_path)) == 2
        assert "required" in capsys.readouterr().err


class TestErrorPaths:
    def test_both_sources_rejected(self, iris_csv, tmp_path):
        code = run_cli("assess", "--data", iris_csv, "--label-column", "species",
                       "--gen", "synth1", "--out", str(tmp_path))
        assert code == 2

    def test_missing_file(self, tmp_path):
        assert run_cli("assess", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["assess", "benchmark"])
    def test_column_too_wide_to_rescale_is_input_error(self, command, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        rows = ["x,y,label"] + [f"{i},{(-1) ** i * 1e308!r},{i % 2}" for i in range(8)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = run_cli(command, "--data", str(path), "--label-column", "label", "--n-constraints", "4",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: feature column 1 'y' spans -1e+308 to 1e+308")

    @pytest.mark.parametrize("command", [["assess"], ["cluster", "--k", "3"]], ids=["assess", "cluster"])
    def test_bad_constraint_line(self, command, iris_csv, tmp_path, capsys):
        cfile = tmp_path / "bad.txt"
        cfile.write_text("S 0 1\nX 2 3\n", encoding="utf-8")
        code = run_cli(*command, "--data", iris_csv, "--label-column", "species",
                       "--constraints", str(cfile), "--out", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["assess"], ["cluster", "--k", "2"]], ids=["assess", "cluster"])
    def test_label_beyond_int64_is_input_error(self, command, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("x,label\n1,1e300\n2,0\n3,1\n", encoding="utf-8")
        code = run_cli(*command, "--data", str(path), "--label-column", "label", "--variant", "ivat",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: label '1e300' does not fit a 64-bit integer\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("benchmark", ["--constraints", "c.txt"]),
        ("ablation", ["--constraints", "c.txt"]),
        ("sweep", ["--constraints", "c.txt"]),
        ("sweep", ["--n-constraints", "5"]),
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, command, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--gen", "synth1", "--runs", "1", *flag, "--out", str(tmp_path / "out"))
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @staticmethod
    def forbid_runs(monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("a protocol run started")

        for name in ("run_benchmark", "run_ablation", "run_constraint_sweep"):
            monkeypatch.setattr(cli, name, run)

    @pytest.mark.parametrize("argv, message", [
        (["benchmark", "--gen", "synth2", "--n-constraints", "-3"], "--n-constraints must be >= 0, got -3"),
        (["ablation", "--gen", "synth2", "--n-constraints", "-1"], "--n-constraints must be >= 0, got -1"),
        (["sweep", "--gen", "synth1", "--counts", "5,-2"], "--counts must be >= 0, got -2"),
        (["benchmark", "--gen", "synth2", "--n-constraints", "99999999"],
         "--n-constraints must be <= 70125 for dataset 'synth2'"),
        (["ablation", "--gen", "synth1", "--n-constraints", "19901"], "--n-constraints must be <= 19900 for dataset 'synth1'"),
        (["sweep", "--gen", "synth1", "--counts", "5,19901"], "--counts must be <= 19900 for dataset 'synth1'"),
    ])
    def test_undrawable_constraint_count_is_usage_error_before_any_run(self, monkeypatch, argv, message, tmp_path, capsys):
        # synth2 has 750 objects and synth1 400, so a run's pool holds 375 or 200
        self.forbid_runs(monkeypatch)
        assert run_cli(*argv, "--runs", "1", "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_benchmark_bounds_the_count_by_each_dataset(self, monkeypatch, iris_csv, tmp_path, capsys):
        self.forbid_runs(monkeypatch)
        code = run_cli("benchmark", "--gen", "synth2", "--data", iris_csv, "--label-column", "species",
                       "--n-constraints", "2776", "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --n-constraints must be <= 2775 for dataset 'iris'")

    @pytest.mark.parametrize("argv", [
        ["benchmark", "--gen", "synth1", "--n-constraints", "19900"],
        ["ablation", "--gen", "synth1", "--n-constraints", "0"],
        ["sweep", "--gen", "synth1", "--counts", "0,19900"],
    ])
    def test_drawable_constraint_count_reaches_the_run(self, monkeypatch, argv, tmp_path, capsys):
        self.forbid_runs(monkeypatch)
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        assert "a protocol run started" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, per_entry", [
        (["assess", "--gen", "synth1"], 9),
        (["cluster", "--gen", "synth1", "--k", "2"], 8),
        (["benchmark", "--gen", "synth1", "--runs", "1"], 16),
        (["ablation", "--gen", "synth1", "--runs", "1"], 8),
        (["sweep", "--gen", "synth1", "--runs", "1"], 8),
    ], ids=["assess", "cluster", "benchmark", "ablation", "sweep"])
    @pytest.mark.parametrize("short", [1, 0], ids=["over", "at"])
    def test_n_beyond_physical_memory_is_input_error_before_any_run(self, monkeypatch, argv, per_entry, short, tmp_path, capsys):
        # synth1 has 400 objects; the budget is the estimate, or one byte less
        def assess(*args, **kwargs):
            raise AssertionError("an assessment started")

        self.forbid_runs(monkeypatch)
        monkeypatch.setattr(cli, "conivat_pipeline", assess)
        need = per_entry * 400 ** 2
        monkeypatch.setattr(cli, "_memory_budget", lambda: need - short)
        code = run_cli(*argv, "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        if short:
            assert code == 2
            assert err == (
                f"error: dataset 'synth1' has 400 objects: its n x n matrices need about {need} bytes, "
                f"more than the {need - 1} bytes of memory available "
                "(physical memory, or the cgroup limit where lower)\n"
            )
        else:
            assert code == 1
            assert "started" in err
        assert not (tmp_path / "out").exists()

    def test_no_memory_check_where_sysconf_lacks_the_counts(self, monkeypatch):
        def sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "sysconf", sysconf)
        monkeypatch.setattr(cli, "_read_text", lambda path: None)
        assert cli._memory_budget() is None
        cli._check_memory([("huge", SimpleNamespace(n=10 ** 9))], 16)

    def test_unreadable_system_file_reads_as_none(self, tmp_path):
        assert cli._read_text(str(tmp_path / "memory.max")) is None

    PHYSICAL = 4096 * 2 ** 20  # bytes; sysconf reports 2^20 pages of 4096

    @pytest.mark.parametrize("files, budget", [
        ({"/proc/self/cgroup": "0::/job\n", "/sys/fs/cgroup/job/memory.max": "1073741824\n"}, 2 ** 30),
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "max\n"}, PHYSICAL),
        ({"/proc/self/cgroup": "5:cpu,cpuacct:/a\n4:memory:/job/7\n0::/\n",
          "/sys/fs/cgroup/cpu,cpuacct/a/memory.limit_in_bytes": "1\n",
          "/sys/fs/cgroup/memory/job/7/memory.limit_in_bytes": "536870912\n"}, 2 ** 29),
        ({"/proc/self/cgroup": "4:memory:/\n", "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n"},
         PHYSICAL),
        ({"/proc/self/cgroup": "4:memory:/job\n0::/job\n"}, PHYSICAL),
        ({}, PHYSICAL),
        ({"/proc/self/cgroup": "0::/big\n", "/sys/fs/cgroup/big/memory.max": str(8 * 2 ** 30)}, PHYSICAL),
    ], ids=["v2", "v2-max", "v1", "v1-unlimited", "missing-file", "no-proc-file", "above-physical"])
    def test_budget_is_the_lower_of_physical_memory_and_the_cgroup_limit(self, monkeypatch, files, budget):
        sizes = {"SC_PHYS_PAGES": 2 ** 20, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        monkeypatch.setattr(cli, "_read_text", files.get)
        assert cli._memory_budget() == budget

    @pytest.mark.parametrize("argv, message", [
        (["assess", "--gen", "synth1", "--n-constraints", "-1"], "--n-constraints must be >= 0, got -1"),
        (["cluster", "--gen", "synth1", "--k", "2", "--n-constraints", "-4"], "--n-constraints must be >= 0, got -4"),
        (["assess", "--gen", "synth1", "--variant", "metric_ivat", "--n-constraints", "79801"],
         "--n-constraints must be <= 79800 for dataset 'synth1', the distinct pairs "
         "in its constraint pool of 400 objects, got 79801"),
        (["cluster", "--gen", "synth1", "--k", "2", "--variant", "mtd_vat", "--n-constraints", "79801"],
         "--n-constraints must be <= 79800 for dataset 'synth1', the distinct pairs "
         "in its constraint pool of 400 objects, got 79801"),
    ])
    def test_assessment_names_the_flag_in_count_errors(self, argv, message, tmp_path, capsys):
        # an assessment draws from all of synth1's 400 objects
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["assess"], ["cluster", "--k", "2"]], ids=["assess", "cluster"])
    def test_default_count_beyond_a_small_file_names_the_flag(self, command, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("x,label\n1,0\n1,0\n2,1\n", encoding="utf-8")
        assert run_cli(*command, "--data", str(path), "--label-column", "label", "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            "error: --n-constraints must be <= 3 for dataset 'dup', the distinct pairs "
            "in its constraint pool of 3 objects, got 30\n"
        )
        assert not (tmp_path / "out").exists()

    def test_zero_runs(self, iris_csv, tmp_path):
        assert run_cli("benchmark", "--data", iris_csv, "--label-column", "species",
                       "--runs", "0", "--out", str(tmp_path)) == 2

    def test_bad_counts(self, iris_csv, tmp_path):
        assert run_cli("sweep", "--data", iris_csv, "--label-column", "species",
                       "--counts", "5,many", "--out", str(tmp_path)) == 2

    def test_unlabeled_benchmark(self, unlabeled_csv, tmp_path):
        assert run_cli("benchmark", "--data", unlabeled_csv, "--out", str(tmp_path)) == 2

    def test_negative_alpha(self, iris_csv, tmp_path):
        code = run_cli("assess", "--data", iris_csv, "--label-column", "species",
                       "--alpha", "-0.5", "--out", str(tmp_path))
        assert code == 2

    def test_unwritable_out_is_runtime_error(self, iris_csv, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        code = run_cli("assess", "--data", iris_csv, "--label-column", "species",
                       "--variant", "ivat", "--out", str(blocker / "sub"))
        assert code == 1
        assert "runtime error" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # the command line starts without paying for scipy's import
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, conivat, conivat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
