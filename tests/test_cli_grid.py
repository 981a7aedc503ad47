import runpy
from pathlib import Path

CLI_GRID = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "cli_grid.py"))


def test_run_cli_rerun_into_one_directory_writes_the_same_bytes(tmp_path):
    # a configuration mistake writes no output, so a second run into the
    # same directory must not fold the first run's file into its own
    name, (command, *flags) = next(iter(CLI_GRID["MISTAKES"].items()))
    argv = [command, "--trials", "2000", *flags]
    path = tmp_path / f"mistake_{name}.json"
    CLI_GRID["run_cli"](tmp_path, path.name, argv)
    first = path.read_bytes()
    CLI_GRID["run_cli"](tmp_path, path.name, argv)
    assert path.read_bytes() == first
    assert first.startswith(b"--- exit code\n2\n")
