"""CLI smoke tests (in-process main())."""

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "oltp" in out and "domino" in out and "fig11" in out


def test_run_table1(capsys):
    assert main(["run", "table1"]) == 0
    assert "Evaluation parameters" in capsys.readouterr().out


def test_run_restores_the_callers_policy(capsys):
    """`run` installs its policy for the call only; a later experiment
    in the same process must not pool or degrade under it."""
    from repro.runner import ExecutionPolicy, get_policy, set_policy

    previous = get_policy()
    mine = set_policy(ExecutionPolicy(retries=1))
    try:
        assert main(["run", "table1", "--jobs", "3", "--no-cache"]) == 0
        assert get_policy() is mine
    finally:
        set_policy(previous)


def test_run_experiment_with_overrides(capsys):
    assert main(["run", "fig02", "--quick", "--n", "8000",
                 "--workloads", "oltp"]) == 0
    out = capsys.readouterr().out
    assert "stms" in out and "sequitur" in out


def test_compare(capsys):
    assert main(["compare", "--workload", "oltp", "--quick",
                 "--n", "8000", "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "domino" in out and "coverage" in out


def test_trace_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "t.npz"
    assert main(["trace", "--workload", "oltp", "--n", "2000",
                 "--out", str(out_file)]) == 0
    assert out_file.exists()

    from repro.sim.trace import load_trace
    assert len(load_trace(out_file)) == 2000


def test_trace_seed_zero_respected(tmp_path, capsys):
    """--seed 0 is a valid seed, not a request for the default."""
    from repro.sim.trace import load_trace
    zero, default = tmp_path / "s0.npz", tmp_path / "s1234.npz"
    assert main(["trace", "--workload", "oltp", "--n", "2000",
                 "--seed", "0", "--out", str(zero)]) == 0
    assert main(["trace", "--workload", "oltp", "--n", "2000",
                 "--out", str(default)]) == 0
    assert (load_trace(zero).blocks.tolist()
            != load_trace(default).blocks.tolist())


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare", "--workload", "doom"])


def test_version(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])


def test_run_markdown_format(capsys):
    assert main(["run", "table2", "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("###")
    assert "|---|" in out


def test_run_csv_format(capsys):
    assert main(["run", "table2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("workload,")


def test_run_with_chart(capsys):
    assert main(["run", "fig02", "--quick", "--n", "6000",
                 "--workloads", "oltp", "--chart", "stms"]) == 0
    out = capsys.readouterr().out
    assert "stms:" in out and "█" in out


def test_run_with_nonnumeric_chart_column(capsys):
    assert main(["run", "table2", "--chart", "models"]) == 0
    assert "not numeric" in capsys.readouterr().out


RUN_TINY = ["run", "fig11", "--quick", "--n", "8000", "--workloads", "oltp"]


def test_run_jobs_parallel_matches_serial(tmp_path, capsys):
    """`--jobs 4` must render byte-identical tables to `--jobs 1`."""
    def table_of(argv):
        assert main(argv) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith(("[runner]", "("))]

    cache = str(tmp_path / "c")
    serial = table_of(RUN_TINY + ["--jobs", "1", "--no-cache",
                                  "--cache-dir", cache])
    parallel = table_of(RUN_TINY + ["--jobs", "4", "--no-cache",
                                    "--cache-dir", cache])
    assert parallel == serial


def test_run_reports_cache_hits_on_rerun(tmp_path, capsys):
    cache = str(tmp_path / "c")
    assert main(RUN_TINY + ["--cache-dir", cache]) == 0
    cold = capsys.readouterr().out
    assert "0 cache hits" in cold
    assert main(RUN_TINY + ["--cache-dir", cache]) == 0
    warm = capsys.readouterr().out
    assert "6 cache hits, 0 executed" in warm  # 5 prefetchers + opportunity
    strip = lambda out: [l for l in out.splitlines()
                         if not l.startswith(("[runner]", "("))]
    assert strip(warm) == strip(cold)


def test_cache_stats_and_clear(tmp_path, capsys):
    cache = str(tmp_path / "c")
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    assert "0 artifacts" in capsys.readouterr().out
    assert main(RUN_TINY + ["--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    # 5 prefetcher cells, the opportunity cell, and the whole-trace and
    # measured-window L1 filters they read.
    assert "8 artifacts" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cache]) == 0
    assert "removed 8" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    assert "0 artifacts" in capsys.readouterr().out


def test_cache_gc(tmp_path, capsys):
    cache = str(tmp_path / "c")
    assert main(RUN_TINY + ["--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["cache", "gc", "--keep", "2", "--cache-dir", cache]) == 0
    assert "removed 6" in capsys.readouterr().out  # 8 artifacts, 2 kept


class TestRobustness:
    """Fault-tolerance surface: exit codes and chaos flags."""

    def test_injected_crashes_survive_on_retries(self, capsys):
        assert main(RUN_TINY + ["--no-cache", "--jobs", "2",
                                "--inject-faults", "crash@1",
                                "--retries", "2"]) == 0
        assert "6 retried, 0 FAILED" in capsys.readouterr().out

    def test_exhausted_retries_exit_partial(self, capsys):
        assert main(["run", "table1", "--no-cache",
                     "--inject-faults", "crash:1.0", "--retries", "0"]) == 3
        captured = capsys.readouterr()
        assert "partial" in captured.err
        assert "1 FAILED" in captured.out

    def test_chaos_run_matches_clean_run(self, capsys):
        def table_of(argv):
            assert main(argv) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith(("[runner]", "("))]
        clean = table_of(RUN_TINY + ["--no-cache"])
        chaos = table_of(RUN_TINY + ["--no-cache", "--jobs", "2",
                                     "--inject-faults", "crash:0.3,seed:1",
                                     "--retries", "3"])
        assert chaos == clean

    def test_bad_fault_spec_is_usage_error(self, capsys):
        assert main(RUN_TINY + ["--no-cache",
                                "--inject-faults", "bogus:1"]) == 2
        assert "unknown fault mode" in capsys.readouterr().err
