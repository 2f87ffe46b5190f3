"""Tests for the command-line interface."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spawn_cli(argv, interpreter_args=(), **popen_kwargs):
    """``python -m repro ...`` as a child process (not yet waited on)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    return subprocess.Popen(
        [sys.executable, *interpreter_args, "-m", "repro", *argv],
        env=env, cwd=REPO_ROOT, text=True, **popen_kwargs,
    )


def run_cli(argv):
    lines = []
    code = main(argv, emit=lines.append)
    return code, "\n".join(lines)


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


class TestMutexCommand:
    def test_l2_default_run(self):
        code, out = run_cli([
            "mutex", "--algorithm", "L2", "--duration", "200",
            "--seed", "3",
        ])
        assert code == 0
        assert "safety         : verified" in out
        assert "region accesses" in out

    def test_l1_baseline(self):
        code, out = run_cli([
            "mutex", "--algorithm", "L1", "--n-mss", "4", "--n-mh", "4",
            "--duration", "100",
        ])
        assert code == 0
        assert "baseline" in out

    def test_r1_baseline(self):
        code, out = run_cli([
            "mutex", "--algorithm", "R1", "--n-mss", "4", "--n-mh", "4",
            "--duration", "200",
        ])
        assert code == 0
        assert "region accesses" in out

    def test_r2_variants(self):
        for name in ("R2", "R2'", "R2''"):
            code, out = run_cli([
                "mutex", "--algorithm", name, "--duration", "200",
                "--request-rate", "0.02", "--seed", "5",
            ])
            assert code == 0
            assert "safety         : verified" in out

    def test_with_mobility_and_broadcast_search(self):
        code, out = run_cli([
            "mutex", "--algorithm", "L2", "--duration", "200",
            "--move-rate", "0.02", "--search", "broadcast",
        ])
        assert code == 0
        assert "search_probe" in out

    def test_deterministic_for_seed(self):
        run = lambda: run_cli([
            "mutex", "--algorithm", "L2", "--duration", "150",
            "--seed", "9", "--move-rate", "0.01",
        ])
        assert run() == run()


class TestGroupsCommand:
    @pytest.mark.parametrize("strategy", [
        "pure_search", "always_inform", "location_view",
    ])
    def test_each_strategy_runs(self, strategy):
        code, out = run_cli([
            "groups", "--strategy", strategy, "--duration", "300",
            "--move-rate", "0.01", "--group-size", "5",
        ])
        assert code == 0
        assert "effective cost" in out
        assert "MOB/MSG" in out

    def test_location_view_reports_view_stats(self):
        code, out = run_cli([
            "groups", "--strategy", "location_view", "--duration", "300",
        ])
        assert "significant f" in out
        assert "|LV| now/max" in out

    def test_group_size_validated(self):
        with pytest.raises(SystemExit):
            run_cli([
                "groups", "--group-size", "20", "--n-mh", "5",
            ])


class TestProxyCommand:
    @pytest.mark.parametrize("policy", ["fixed", "local", "adaptive"])
    def test_each_policy_runs(self, policy):
        code, out = run_cli([
            "proxy", "--policy", policy, "--duration", "300",
            "--move-rate", "0.02",
        ])
        assert code == 0
        assert "letters" in out
        assert "delivered" in out

    def test_all_letters_delivered(self):
        code, out = run_cli([
            "proxy", "--policy", "fixed", "--duration", "400",
            "--move-rate", "0.05", "--seed", "2",
        ])
        line = next(l for l in out.splitlines() if "letters" in l)
        sent = int(line.split("sent=")[1].split()[0])
        delivered = int(line.split("delivered=")[1].split()[0])
        assert sent == delivered


def test_cost_model_flags_affect_report():
    _, cheap = run_cli([
        "mutex", "--algorithm", "L2", "--duration", "100", "--seed", "1",
        "--c-wireless", "1", "--c-search", "1",
    ])
    _, costly = run_cli([
        "mutex", "--algorithm", "L2", "--duration", "100", "--seed", "1",
        "--c-wireless", "50", "--c-search", "100",
    ])
    def total(out):
        line = next(l for l in out.splitlines() if "total cost" in l)
        return float(line.split(":")[1])
    assert total(costly) > total(cheap)


class TestMulticastCommand:
    def test_exactly_once_under_mobility(self):
        code, out = run_cli([
            "multicast", "--duration", "300", "--move-rate", "0.02",
            "--seed", "4",
        ])
        assert code == 0
        assert "exactly once   : True" in out

    def test_gc_flag(self):
        code, out = run_cli([
            "multicast", "--duration", "200", "--no-gc",
        ])
        assert code == 0
        assert "GC disabled" in out

    def test_group_size_validated(self):
        with pytest.raises(SystemExit):
            run_cli(["multicast", "--group-size", "99"])


class TestCompareCommand:
    def test_all_comparisons_match(self):
        code, out = run_cli(["compare"])
        assert code == 0
        assert "MISMATCH" not in out
        assert "all comparisons matched" in out

    @pytest.mark.parametrize("experiment", ["lamport", "ring", "groups"])
    def test_single_experiment(self, experiment):
        code, out = run_cli(["compare", "--experiment", experiment])
        assert code == 0
        assert "OK" in out

    def test_custom_cost_model(self):
        code, out = run_cli([
            "compare", "--c-fixed", "2", "--c-wireless", "7",
            "--c-search", "20",
        ])
        assert code == 0
        assert "all comparisons matched" in out

    def test_custom_sizes(self):
        code, out = run_cli([
            "compare", "--n-mss", "10", "--n-mh", "20",
        ])
        assert code == 0
        assert "N=20" in out and "M=10" in out


class TestSubcommandTable:
    """The tier-1 twin of ``test_simulation_has_no_performance_switch``
    for the CLI: speed is measured by ``bench/run.py`` alone, so the
    retired ``repro perf`` may not come back as a subcommand."""

    SUBCOMMANDS = ("mutex groups proxy multicast compare trace monitor "
                   "scenarios scale serve").split()

    def test_perf_is_an_invalid_choice_and_the_table_is_exact(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'perf'" in err
        offered = re.search(r"\(choose from ([^)]*)\)", err).group(1)
        assert re.findall(r"[\w-]+", offered) == self.SUBCOMMANDS


class TestConfigurationErrors:
    """A ConfigurationError out of a subcommand is a usage error: one
    ``repro: error:`` line on stderr and exit status 2, no traceback."""

    @pytest.mark.parametrize("command", [
        "mutex", "groups", "proxy", "multicast", "scale", "serve",
    ])
    def test_no_mss_is_a_usage_error(self, command, capsys):
        code, out = run_cli([command, "--n-mss", "0"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == (
            "repro: error: need at least one MSS\n"
        )

    def test_error_raised_past_the_facade(self, capsys):
        # Not only Simulation's own checks: here CrowdChurn refuses.
        code, out = run_cli(["scale", "--n-mh", "50", "--tick", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "repro: error: tick must be positive\n"
        )

    def test_process_exit_status_and_no_traceback(self):
        proc = spawn_cli(["mutex", "--n-mss", "0"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert out == ""
        assert err == "repro: error: need at least one MSS\n"


class TestClosedStdout:
    """``repro ... | head -1``: a reader that goes away ends the run
    quietly, with the status a SIGPIPE death would have (128 + 13)."""

    @pytest.mark.parametrize("interpreter_args", [(), ("-u",)],
                             ids=["buffered", "unbuffered"])
    def test_reader_already_gone(self, interpreter_args):
        # Buffered, the failure surfaces at the final flush;
        # unbuffered, at the first line emitted.
        read_end, write_end = os.pipe()
        proc = spawn_cli(
            ["mutex", "--algorithm", "L2", "--duration", "50"],
            interpreter_args, stdout=write_end, stderr=subprocess.PIPE,
        )
        os.close(write_end)
        os.close(read_end)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == ""

    def test_reader_leaves_after_the_first_line(self):
        # L1 prints its note before the run starts; the rest of the
        # report comes after ~10^5 events, long after the close below.
        proc = spawn_cli(
            ["mutex", "--algorithm", "L1", "--n-mss", "8", "--n-mh", "150",
             "--duration", "50"],
            ("-u",), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        assert first.startswith("note: L1 is a baseline")
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == ""
