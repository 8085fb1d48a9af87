"""The command-line interface produces the paper's tables."""

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in (
        "summary", "table1", "table2", "table3", "table4", "table5",
        "table6", "table7", "fig3", "topper", "green500", "all",
    ):
        args = parser.parse_args([command])
        assert args.command == command


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_table5(capsys):
    assert main(["table5"]) == 0
    out = capsys.readouterr().out
    assert "MetaBlade" in out
    assert "$35K" in out


def test_cli_summary(capsys):
    assert main(["summary"]) == 0
    out = capsys.readouterr().out
    assert "633-MHz" in out


def test_cli_green500(capsys):
    assert main(["green500"]) == 0
    out = capsys.readouterr().out
    assert "Green500-style" in out
    assert "Top500-style" in out


def test_cli_table2_with_options(capsys):
    assert main(["table2", "--particles", "600", "--cpus", "1", "3"]) == 0
    out = capsys.readouterr().out
    assert "Speed-Up" in out


@pytest.mark.parametrize("argv", [
    "table2 --particles 0",         # was: ZeroDivisionError
    "fig3 --particles 0",           # was: ZeroDivisionError
    "timeline --particles 0",       # was: ZeroDivisionError
    "fig3 --particles -5",          # was: a numpy error
    "fig3 --particles 1",           # two clusters need two particles
    "table2 --cpus 0",              # was: ValueError traceback
    "timeline --ranks 0",
])
def test_treecode_counts_that_cannot_run_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv.split())
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv.split()[1]}: must be >=" in err


def test_cli_topper(capsys):
    assert main(["topper"]) == 0
    assert "ToPPeR" in capsys.readouterr().out


def test_parser_knows_sched():
    args = build_parser().parse_args(
        ["sched", "--jobs", "12", "--policy", "backfill", "--fail-inject"]
    )
    assert args.command == "sched"
    assert args.jobs == 12
    assert args.policy == "backfill"
    assert args.fail_inject is True
    assert args.seed == 2001


def test_cli_sched_runs_a_small_stream(capsys):
    assert main(
        ["sched", "--jobs", "6", "--policy", "fcfs", "--width", "40"]
    ) == 0
    out = capsys.readouterr().out
    assert "blade  0 |" in out
    assert "Job-stream accounting (fcfs)" in out
    assert "jobs completed" in out


def test_cli_sched_with_failures_and_checkpoints(capsys):
    assert main(
        ["sched", "--jobs", "8", "--policy", "backfill", "--fail-inject",
         "--mtbf", "0.02", "--checkpoint", "1", "--width", "40"]
    ) == 0
    out = capsys.readouterr().out
    assert "Job-stream accounting (backfill)" in out


def test_cli_seed_flag_reproduces_and_varies(capsys):
    def table2(seed):
        assert main(
            ["table2", "--particles", "600", "--cpus", "1", "3",
             "--seed", seed]
        ) == 0
        return capsys.readouterr().out

    assert table2("7") == table2("7")
    assert table2("7") != table2("8")


def test_cli_sched_seed_is_deterministic(capsys):
    def sched(seed):
        assert main(
            ["sched", "--jobs", "5", "--seed", seed, "--width", "40"]
        ) == 0
        return capsys.readouterr().out

    assert sched("3") == sched("3")
    assert sched("3") != sched("4")
