import bisect
import json
import math

import numpy as np
import pytest

from dfsmem.cli import (
    COMMANDS,
    CliConfig,
    ConfigError,
    main,
    parse_amplitude,
    parse_config,
)
from dfsmem.protocol import build_write_setup, generate_entanglement, write_branches


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
