import bisect
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfsmem import cli, trials
from dfsmem.cli import (
    COMMANDS,
    CliConfig,
    ConfigError,
    main,
    parse_amplitude,
    parse_config,
)
from dfsmem.noise import NoiseParams
from dfsmem.protocol import build_write_setup, generate_entanglement, write_branches
from dfsmem.trials import (
    OracleEntry,
    OracleReport,
    RunConfig,
    run_remote_trials,
    run_write_trials,
)


def test_parse_amplitude_forms():
    assert parse_amplitude("0.6,0.8") == complex(0.6, 0.8)
    assert parse_amplitude("0.5") == complex(0.5, 0.0)
    z = parse_amplitude("1@90")
    assert z.real == pytest.approx(0.0, abs=1e-15)
    assert z.imag == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        parse_amplitude("not-a-number")


def test_parse_config_teleport_example():
    cfg = parse_config(
        ["teleport", "--alpha", "0.7071,0", "--beta", "0,0.7071",
         "--trials", "100000", "--seed", "42"]
    )
    assert cfg.command == "teleport"
    assert cfg.trials == 100000
    assert cfg.seed == 42
    # near-unit input is accepted and renormalized exactly
    assert abs(cfg.alpha) ** 2 + abs(cfg.beta) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_parse_config_curves_example():
    cfg = parse_config(
        ["curves-fig4a", "--eta-prime", "0.3333", "--t-min", "5e-6",
         "--t-max", "5e-5", "--points", "100"]
    )
    assert cfg.eta_prime == pytest.approx(0.3333)
    assert cfg.points == 100
    assert cfg.resolved_format() == "csv"


def test_parse_config_rejects_gross_normalization():
    with pytest.raises(ConfigError, match="normalized"):
        parse_config(["teleport", "--beta", "2,0"])


def test_main_exit_codes_for_bad_config(tmp_path):
    assert main(["teleport", "--beta", "2,0"]) == 2
    assert main(["teleport", "--no-such-flag", "1"]) == 2
    assert main(["teleport", "--pc", "0.9"]) == 2


CONFIG_MISTAKES = [
    pytest.param(["--l0=-1"], None, id="l0"),
    pytest.param(["--pc", "0.7"], None, id="pc"),
    pytest.param(["--trials", "-1"], None, id="trials"),
    pytest.param(["--seed", "-1"], None, id="seed"),
    pytest.param(["--truncation", "2"], None, id="truncation"),
    pytest.param(["--threads", "0"], None, id="threads"),
    pytest.param(["--points", "0"], None, id="points"),
    pytest.param(["--format", "xml"], None, id="format"),
    pytest.param(["--output", "/missing-dir/x.json"], None, id="output"),
    pytest.param([], "12.5", id="env-seed"),
    # flags are spelled in full: a unique prefix is not read as its flag
    pytest.param(["--tri", "7"], None, id="abbreviated-flag"),
    # non-finite values, each a test that NaN or infinity used to pass
    pytest.param(["--alpha", "nan"], None, id="alpha-nan"),
    pytest.param(["--t-min", "nan"], None, id="t-min-nan"),
    pytest.param(["--t-max", "nan"], None, id="t-max-nan"),
    pytest.param(["--t-max", "inf"], None, id="t-max-inf"),
    pytest.param(["--t-list", "nan"], None, id="t-list-nan"),
    pytest.param(["--f-p", "nan"], None, id="f-p-nan"),
    pytest.param(["--f-p", "inf"], None, id="f-p-inf"),
    pytest.param(["--l0", "nan"], None, id="l0-nan"),
    pytest.param(["--l0", "inf"], None, id="l0-inf"),
    pytest.param(["--l-att", "nan"], None, id="l-att-nan"),
    pytest.param(["--l-att", "inf"], None, id="l-att-inf"),
]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flags, env_seed", CONFIG_MISTAKES)
def test_every_config_mistake_exits_2(command, flags, env_seed, tmp_path, monkeypatch):
    monkeypatch.delenv("DFS_SIM_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("DFS_SIM_SEED", env_seed)
    out = tmp_path / "out"
    assert main([command, "--trials", "10", "--output", str(out), *flags]) == 2
    assert not out.exists()


def test_flags_take_the_name_equals_value_form():
    cfg = parse_config(["teleport", "--alpha=-0.6,0", "--beta=0,0.8", "--trials=7"])
    assert (cfg.alpha, cfg.beta, cfg.trials) == (complex(-0.6, 0.0), complex(0.0, 0.8), 7)
    # spaced, a value with a leading minus is still the flag's value
    assert cfg == parse_config(["teleport", "--alpha", "-0.6,0", "--beta", "0,0.8",
                                "--trials", "7"])
    for alpha, beta in (("-1@30", "0"), ("-1e-3", "0.9999995"), ("-0.6", "-0.8")):
        assert (parse_config(["teleport", "--alpha", alpha, "--beta", beta])
                == parse_config(["teleport", f"--alpha={alpha}", f"--beta={beta}"]))


def test_help_lists_every_flag_and_command(capsys):
    for argv in (["--help"], ["-h"], ["teleport", "--help"]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: dfsmem") and err == ""
        assert all(command in out for command in COMMANDS)
        assert all(f"--{name.replace('_', '-')} " in out for name in cli._PARAMS)
        assert "--config" in out


@pytest.mark.parametrize("argv, message", [
    pytest.param([], "no command given", id="bare"),
    pytest.param(["teleport", "--trials"], "--trials needs a value", id="trailing-flag"),
    pytest.param(["teleprt"], "unknown command 'teleprt'", id="unknown-command"),
    pytest.param(["teleport", "read"], "a second command 'read'", id="second-command"),
    pytest.param(["teleport", "-x", "1"], "unknown flag '-x'", id="unknown-short-flag"),
    pytest.param(["teleport", "--tri=7"], "unknown flag '--tri'", id="abbreviated-equals"),
])
def test_command_line_mistakes_exit_2_with_the_usage(argv, message, capsys, tmp_path):
    out = tmp_path / "out"
    assert main(["--output", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.splitlines()[-1] == cli.USAGE
    assert not out.exists()


@pytest.mark.parametrize("command", ["teleport", "remote-transfer", "oracle-check"])
def test_cli_config_builds_its_run_config_once(command, tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "RunConfig", lambda **k: built.append(k) or RunConfig(**k))
    assert main([command, "--alpha", "0.7071,0", "--beta", "0,0.7071", "--trials", "50",
                 "--output", str(tmp_path / "out.json")]) == 0
    assert len(built) == 1
    # the run reads the renormalized qubit
    alpha, beta = built[0]["alpha"], built[0]["beta"]
    assert alpha == parse_config([command, "--alpha", "0.7071,0", "--beta", "0,0.7071"]).alpha
    assert abs(alpha) ** 2 + abs(beta) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_seed_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("DFS_SIM_SEED", "31415")
    conf = tmp_path / "seed.conf"
    conf.write_text("seed=7\n")
    assert parse_config(["teleport"]).seed == 31415
    assert parse_config(["teleport", "--config", str(conf)]).seed == 7
    # flags win over both, and may come before the command
    assert parse_config(["--seed", "9", "teleport", "--config", str(conf)]).seed == 9


def test_main_exit_code_on_simulation_failure(tmp_path):
    # herald probability ~2e-12: every trial runs into the round cap
    out = tmp_path / "dead.json"
    code = main(["teleport", "--pc", "1e-12", "--trials", "5",
                 "--seed", "1", "--output", str(out)])
    assert code == 1


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("pc=0.02\ntrials=50\nseed=7\n")
    cfg = parse_config(["teleport", "--config", str(conf), "--trials", "75"])
    assert cfg.pc == 0.02
    assert cfg.trials == 75  # flag wins over file
    assert cfg.seed == 7


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense=1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config(["teleport", "--config", str(conf)])


def test_parse_config_hand_written_flags(monkeypatch):
    monkeypatch.delenv("DFS_SIM_SEED", raising=False)
    examples = [
        (["teleport", "--pc", "0.02", "--trials", "123", "--seed", "99",
          "--alpha", "0.6", "--beta", "0,0.8", "--threads", "4"],
         CliConfig(command="teleport", pc=0.02, trials=123, seed=99,
                   alpha=complex(0.6, 0.0), beta=complex(0.0, 0.8), threads=4)),
        (["curves-fig4a", "--eta-prime", "0.3333333333333333", "--t-min", "15e-6",
          "--t-max", "5e-5", "--points", "100", "--f-p", "10e6"],
         CliConfig(command="curves-fig4a", eta_prime=1 / 3, t_min=15e-6,
                   t_max=5e-5, points=100, f_p=10e6)),
        (["curves-fig4b", "--t-list", "20e-6;30e-6;40e-6", "--eta-min", "0.1",
          "--eta-max", "1.0", "--points", "50"],
         CliConfig(command="curves-fig4b", t_list=(20e-6, 30e-6, 40e-6),
                   eta_min=0.1, eta_max=1.0, points=50)),
        (["oracle-check", "--trials", "10", "--seed", "3", "--chi", "0.5",
          "--eta-d", "0.9", "--p-dc", "1e-5", "--l0", "2.0", "--l-att", "11.0"],
         CliConfig(command="oracle-check", trials=10, seed=3, chi=0.5,
                   eta_d=0.9, p_dc=1e-5, l0=2.0, l_att=11.0)),
    ]
    for argv, cfg in examples:
        assert parse_config(argv) == cfg


def test_fig4a_csv_contains_anchor_row(tmp_path):
    out = tmp_path / "fig4a.csv"
    code = main([
        "curves-fig4a", "--eta-prime", str(1 / 3), "--f-p", "10e6",
        "--t-min", "5e-6", "--t-max", "5e-5", "--points", "100",
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "T_seconds,F"
    assert len(lines) == 101
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    t, f = min(rows, key=lambda r: abs(r[0] - 1.5e-5))
    assert t == pytest.approx(1.5e-5, abs=1e-12)
    assert f == pytest.approx(0.99, abs=1e-6)


def test_fig4b_csv_schema(tmp_path):
    out = tmp_path / "fig4b.csv"
    code = main(["curves-fig4b", "--points", "10", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "eta_prime,delta_F,T_seconds"
    assert len(lines) == 1 + 3 * 10  # three default prep-time curves


def test_fig4b_grid_endpoints_exact(tmp_path):
    # point counts whose step does not divide the range evenly must not
    # overshoot the upper efficiency bound
    out = tmp_path / "fig4b50.csv"
    for points in ("50", "7", "33"):
        assert main(["curves-fig4b", "--points", points, "--output", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        etas = sorted({float(r[0]) for r in rows})
        assert etas[0] == 0.1
        assert etas[-1] == 1.0


def test_teleport_json_output_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["teleport", "--trials", "400", "--seed", "17", "--pc", "0.01"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stats = json.loads(out1.read_text())
    assert stats["trial_count"] == 400
    assert set(stats["outcome_frequencies"]) == {
        "PsiPlus", "PsiMinus", "PhiPlus", "PhiMinus"
    }
    assert abs(sum(stats["outcome_frequencies"].values()) - 1.0) < 1e-12


def test_teleport_thread_count_byte_identical(tmp_path):
    out1, out8 = tmp_path / "t1.json", tmp_path / "t8.json"
    base = ["teleport", "--trials", "400", "--seed", "23"]
    assert main(base + ["--threads", "1", "--output", str(out1)]) == 0
    assert main(base + ["--threads", "8", "--output", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_entangle_command(tmp_path):
    out = tmp_path / "ent.json"
    assert main(["entangle", "--pc", "0.01", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["herald_probability"] == pytest.approx(
        2 * 0.01 / (1 + 2 * 0.01 + 3 * 0.01**2), abs=1e-12
    )
    assert payload["fidelity_vs_ideal"] == pytest.approx(1.0, abs=1e-12)


def test_read_command(tmp_path):
    out = tmp_path / "read.json"
    assert main([
        "read", "--efficiency", "0.5", "--seed", "3",
        "--alpha", "0.6,0", "--beta", "0,0.8", "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["photon_present_probability"] == pytest.approx(0.5, abs=1e-10)
    assert payload["roundtrip_fidelity"] == pytest.approx(0.5, abs=1e-10)


def test_read_command_draws_trial_zero_row(tmp_path):
    # `read` writes with row 0 of the seed's Philox draw: u0 inverted into
    # the rounds, u1 picking the outcome over the normalised write_branches
    # CDF, both written out here from numpy and not through trial_rng
    pc, alpha, beta = 0.1, 0.6, 0.8j
    setup = build_write_setup(3)
    _, herald = generate_entanglement(pc, setup)
    branches = write_branches(alpha, beta, pc, setup)
    weights = np.array([b.probability for b in branches.values()])
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    outcomes = set()
    for seed in (0, 3, 11, 2**40, 12345):
        bits = np.random.Philox(np.random.SeedSequence(seed))
        u0, u1 = np.random.Generator(bits).random((1, 2))[0].tolist()
        out = tmp_path / f"read-{seed}.json"
        assert main(["read", "--seed", str(seed), "--pc", str(pc), "--truncation", "3",
                     "--alpha", "0.6,0", "--beta", "0,0.8", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        rounds = max(1, math.ceil(math.log1p(-u0) / math.log1p(-herald)))
        assert payload["rounds_until_herald"] == rounds
        outcome = list(branches)[bisect.bisect_right(cdf.tolist(), u1)]
        assert payload["outcome"] == outcome.value
        outcomes.add(outcome)
    assert len(outcomes) > 1  # u1 reaches the outcome


def test_remote_transfer_command(tmp_path):
    out = tmp_path / "remote.json"
    assert main([
        "remote-transfer", "--trials", "2000", "--seed", "8",
        "--output", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["success_rate"] - 0.5) < 0.05
    assert payload["mean_conditional_fidelity"] == pytest.approx(1.0, abs=1e-10)


def test_bsm_stats_command(tmp_path):
    out = tmp_path / "bsm.json"
    assert main(["bsm-stats", "--alpha", "0.6,0", "--beta", "0.8,0",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    for prob in payload["outcome_probabilities"].values():
        assert prob == pytest.approx(0.25, abs=1e-12)
    assert payload["marks"] == {
        "PsiPlus": "I", "PsiMinus": "Z", "PhiPlus": "X", "PhiMinus": "ZX"
    }


def test_oracle_check_command(tmp_path):
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--trials", "5000", "--seed", "4",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["insufficient_data"] is False
    assert all(not e["flagged"] for e in payload["entries"])


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DFS_SIM_SEED", "31415")
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    assert main(["teleport", "--trials", "200", "--output", str(out1)]) == 0
    assert main(["teleport", "--trials", "200", "--seed", "31415",
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_format_for_stats(tmp_path):
    out = tmp_path / "stats.csv"
    assert main(["teleport", "--trials", "200", "--seed", "5",
                 "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "quantity,value"
    assert any(ln.startswith("success_rate,") for ln in lines)


# The writers as they were before the one-pass writer (one f-string per CSV
# cell, a dataclasses.asdict copy and a streamed json.dump for JSON): the
# reference for the bytes that cli._emit writes.
def _reference_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_json_ready(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _reference_json_ready(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _reference_json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_json_ready(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _reference_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_reference_json_ready(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emitted(tmp_path, fmt, record=None, table=None) -> bytes:
    cfg = CliConfig(command="entangle", output=str(tmp_path / f"out.{fmt}"), format=fmt)
    return open(cli._emit(cfg, record=record, table=table), "rb").read()


def _assert_csv_bytes(tmp_path, header, rows):
    _reference_csv(tmp_path / "ref.csv", header, rows)
    assert _emitted(tmp_path, "csv", table=(header, rows)) == (tmp_path / "ref.csv").read_bytes()


def _assert_json_bytes(tmp_path, obj):
    _reference_json(tmp_path / "ref.json", obj)
    assert _emitted(tmp_path, "json", record=obj) == (tmp_path / "ref.json").read_bytes()


NAN = float("nan")

CSV_TABLES = {
    # every column all floats: repeats, both zeros, inf and nan
    "floats": [(0.1, -0.0, 2.5, 0.1), (0.1, 0.0, 2.5, 1 / 3), (0.2, 0.1, -0.0, 1 / 3),
               (NAN, float("inf"), -float("inf"), float("nan")), (0.3, 1e-300, 0.0, 0.1)],
    # -0.0 alone in a later column, 0.0 alone in an earlier one
    "zeros-apart": [(0.0, 1.5, -0.0), (0.5, 1.5, -0.0), (0.0, 0.5, -0.0)],
    "mixed": [("a", 0.0, 1, np.float64(0.1), True), ("b", -0.0, 2, np.float64(-0.0), False),
              ("c", 0.1, np.int64(3), 0.1, None), ("d,e", 2.0, -4, np.float64(2.0), "x")],
    "np-floats": [(np.float64(0.1), np.float64(1e-20)), (np.float64(0.1), np.float64(-0.0))],
    "ragged": [(0.1, 1), ("x",), (0.1, 0.2, 0.3)],
    "one-column": [(0.25,), (0.25,), (-0.0,)],
    "empty-rows": [(), ()],
    "no-rows": [],
}


@pytest.mark.parametrize("name", CSV_TABLES)
def test_csv_writer_keeps_reference_bytes(tmp_path, name):
    rows = CSV_TABLES[name]
    _assert_csv_bytes(tmp_path, [f"c{i}" for i in range(max(map(len, rows), default=2))], rows)


_cells = (st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from([0.0, -0.0, 0.1, 1e-300])
          | st.integers(-5, 5) | st.text(st.characters(codec="ascii"), max_size=3))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 4).flatmap(
    lambda w: st.lists(st.tuples(*[st.floats() | st.sampled_from([0.0, -0.0, 0.1])] * w)
                       | st.tuples(*[_cells] * w), max_size=12)))
def test_csv_writer_keeps_reference_bytes_on_any_rows(tmp_path, rows):
    _assert_csv_bytes(tmp_path, ["h"], rows)


def test_json_writer_keeps_reference_bytes_for_an_oracle_report(tmp_path):
    entries = (OracleEntry("p[PsiPlus]", 0.25, 0.2500000000000001, 0.0, False),
               OracleEntry("mean_fidelity", -0.0, float("nan"), float("inf"), True))
    _assert_json_bytes(tmp_path, OracleReport(entries, 3.0, False))


def test_json_writer_keeps_reference_bytes_for_run_stats(tmp_path):
    noise = NoiseParams(chi=0.7, eta_d=0.8, p_dc=1e-3)
    _assert_json_bytes(tmp_path, run_write_trials(RunConfig(100, 9, 0.1, 0.6, 0.8j, noise)))


def test_json_writer_keeps_reference_bytes_for_complex_values_and_other_keys(tmp_path):
    payload = {
        "z": complex(0.6, -0.8), 3: [0.5, (1j, -0.0)], (1, 2): {"inner": -0.0j},
        True: None, 2.5: [OracleEntry("e", 0.1, 0.2, 0.3, False)], "s": "text",
    }
    _assert_json_bytes(tmp_path, payload)


def test_emit_builds_only_the_written_form(tmp_path, monkeypatch):
    def unused(*args):
        raise AssertionError("the other format was built")

    monkeypatch.setattr(cli, "_rows", unused)
    monkeypatch.setattr(cli, "_objects", unused)
    record, table = {"a": 0.5}, (["a"], [(0.5,)])
    cfg = {fmt: CliConfig(command="entangle", output=str(tmp_path / f"x.{fmt}"), format=fmt)
           for fmt in ("csv", "json")}
    # a record's CSV rows are built only for CSV, a table's objects only for JSON
    cli._emit(cfg["json"], record=record)
    cli._emit(cfg["csv"], table=table)
    # given both, each format writes its own and derives nothing
    for fmt in cfg:
        cli._emit(cfg[fmt], record=record, table=table)
    assert (tmp_path / "x.csv").read_text() == "a\n0.5\n"
    assert json.loads((tmp_path / "x.json").read_text()) == record


def test_emit_derives_the_other_form(tmp_path):
    table = (["x", "y"], [(0.5, "s"), (-0.0, "t")])
    assert json.loads(_emitted(tmp_path, "json", table=table)) == [
        {"x": 0.5, "y": "s"}, {"x": -0.0, "y": "t"}]
    record = {"n": 3, "d": {"b": 0.25, "a": 1}, "s": "text"}
    assert _emitted(tmp_path, "csv", record=record) == (
        b"quantity,value\nn,3\nd[a],1\nd[b],0.25\ns,text\n")


# The CSV row builders of the record commands as they were before the
# output rule: one for RunStats, one for the entangle payload, one for read.
def _stats_rows(stats):
    flat = []
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            for sub, v in sorted(value.items()):
                flat.append((f"{f.name}[{sub}]", float(v)))
        else:
            flat.append((f.name, float(value)))
    return ["quantity", "value"], flat


def _entangle_rows(payload):
    return ["quantity", "value"], [(k, float(v)) for k, v in payload.items()]


def _read_rows(payload):
    return ["quantity", "value"], [(k, v if isinstance(v, str) else float(v))
                                   for k, v in payload.items()]


def _typed(table):
    header, rows = table
    return header, [tuple((type(c), c) for c in row) for row in rows]


@pytest.mark.parametrize("run_trials", [run_write_trials, run_remote_trials])
def test_rows_of_a_record_match_the_former_builders(run_trials):
    noise = NoiseParams(chi=0.7, eta_d=0.8, p_dc=1e-3)
    stats = run_trials(RunConfig(300, 9, 0.1, 0.6, 0.8j, noise))
    assert _typed(cli._rows(stats)) == _typed(_stats_rows(stats))
    cfg = parse_config(["read", "--pc", "0.1", "--alpha", "0.6", "--beta", "0,0.8",
                        "--seed", "5", "--efficiency", "0.7"])
    payload = cli._read(cfg)[2]
    assert _typed(cli._rows(payload)) == _typed(_read_rows(payload))
    payload = cli._entangle(dataclasses.replace(cfg, command="entangle"))[2]
    assert _typed(cli._rows(payload)) == _typed(_entangle_rows(payload))


def test_read_draws_one_philox_step_not_a_block(tmp_path, monkeypatch):
    drawn = []
    real = trials._uniform_block

    def counted(seed, start, rows=trials._BLOCK):
        drawn.append(rows)
        return real(seed, start, rows)

    monkeypatch.setattr(trials, "_uniform_block", counted)
    assert cli.trial_rng is trials.trial_rng
    assert main(["read", "--seed", "987654321", "--output", str(tmp_path / "r.json")]) == 0
    assert drawn == [2]
