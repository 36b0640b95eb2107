"""Trial harness, CSV export, sweeps, bound comparisons, and the CLI."""
import contextlib
import io
import math

import numpy as np
import pytest

from secopt.adversary import ADVERSARY_ORDER, default_packing_centers
from secopt.cli import build_parser, load_config
from secopt.cli import main as cli_main
from secopt.errors import ParameterError
from secopt.harness import (
    CSV_HEADER,
    TrialOutcome,
    export_csv,
    run_batch,
    summarize,
    sweep_budget,
    trial_seed,
)
from secopt.protocol import ProtocolConfig


def test_csv_header_is_frozen() -> None:
    assert CSV_HEADER == (
        "trial,seed,T,delta_adv,eps_adv,eps,delta,kappa,sigma_or_p,mode,"
        "point_error,function_error,adv_prop_success,adv_pack_success,"
        "adv_post_success,adv_naive_success,queries_used,ms"
    )


def test_trial_seed_derivation() -> None:
    ss = np.random.SeedSequence(123, spawn_key=(5,))
    assert trial_seed(123, 5) == int(ss.generate_state(1, np.uint64)[0])
    assert trial_seed(123, 5) != trial_seed(123, 6)
    assert trial_seed(123, 5) != trial_seed(124, 5)


def test_default_packing_centers_form_a_packing() -> None:
    centers = default_packing_centers(0.04)
    assert centers[0] == 0.04
    assert centers[-1] <= 1.0 - 0.04
    assert np.min(np.diff(centers)) >= 2 * 0.04 - 1e-12


def test_run_batch_matches_across_worker_counts() -> None:
    config = ProtocolConfig(T=4000, overrides={"C0": 2.0})
    serial = run_batch(config, 8, master_seed=99, workers=1)
    pooled = run_batch(config, 8, master_seed=99, workers=2)
    assert export_csv(serial) == export_csv(pooled)
    assert serial.delta_hat == pooled.delta_hat
    assert serial.adv_rates == pooled.adv_rates
    # seed column records the per-trial derivation
    assert serial.outcomes[3].seed == trial_seed(99, 3)


def test_run_batch_validation() -> None:
    config = ProtocolConfig(T=2000)
    with pytest.raises(ParameterError):
        run_batch(config, 0, master_seed=1)
    with pytest.raises(ParameterError):
        run_batch(config, 4, master_seed=1, workers=0)


def test_bisection_batch_always_hits_tolerance() -> None:
    config = ProtocolConfig(T=20000, mode="Bisection", eps=1e-3)
    summary = run_batch(config, 20, master_seed=7)
    assert summary.delta_hat == 0.0
    expected = config.subintervals * math.ceil(math.log2(config.delta_adv / config.eps))
    assert all(o.queries_used == expected for o in summary.outcomes)
    assert all(o.point_error <= config.eps for o in summary.outcomes)


def test_summarize_statistics_by_hand() -> None:
    config = ProtocolConfig(T=2000)
    errs = [0.0005, 0.0005, 0.002, 0.003]
    outcomes = [
        TrialOutcome(
            trial=i, seed=i, point_error=errs[i], function_error=errs[i] ** 2,
            adv_success={k: (k == "proportional" and i == 0) for k in ADVERSARY_ORDER},
            queries_used=2000, ms=4.0,
        )
        for i in range(4)
    ]
    s = summarize(config, outcomes)
    assert s.n_trials == 4
    assert s.delta_hat == 0.5  # two errors at or above eps = 1e-3
    # null standard error at the target rates, used by the --check gates
    assert s.se_delta == pytest.approx(math.sqrt(0.05 * 0.95 / 4), rel=1e-12)
    assert s.se_adv == pytest.approx(math.sqrt(0.1 * 0.9 / 4), rel=1e-12)
    assert s.adv_rates["proportional"] == 0.25
    assert s.adv_rates["uniform_naive"] == 0.0
    assert s.point_quantiles[1] == pytest.approx(0.00125, rel=1e-12)
    assert s.mean_ms == pytest.approx(4.0, rel=1e-12)


def test_export_csv_shape_and_mode_column() -> None:
    config = ProtocolConfig(T=4000, mode="Bisection", eps=1e-3, x_star=0.43)
    summary = run_batch(config, 3, master_seed=11)
    text = export_csv(summary)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 18
        assert cells[2] == "4000"
        assert cells[9] == "Bisection"
        assert cells[17] == "0"  # wall-time column is zeroed for reproducibility


def test_sweep_guards() -> None:
    config = ProtocolConfig(T=2000)
    with pytest.raises(ParameterError):
        sweep_budget(config, [1000, 2000, 4000], 2, master_seed=1)
    with pytest.warns(UserWarning):
        sweep_budget(config, [1000, 1100, 1200, 1300], 2, master_seed=1)


def test_sweep_fits_decaying_errors() -> None:
    config = ProtocolConfig(overrides={"C0": 2.0})
    result = sweep_budget(config, [2000, 8000, 32000, 256000], 3, master_seed=42)
    assert result.budgets == [2000, 8000, 32000, 256000]
    assert len(result.summaries) == 4
    assert result.fit_point is not None and result.fit_function is not None
    assert result.fit_point.n_points == 4
    assert result.fit_point.slope < -0.1
    assert result.fit_function.slope < result.fit_point.slope  # function decays faster


def test_cli_run_writes_csv(tmp_path, capsys) -> None:
    out = tmp_path / "trials.csv"
    rc = cli_main(["run", "--seed", "7", "-N", "4", "--out", str(out), "--T=4000"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert "wrote 4 rows" in capsys.readouterr().out


def test_cli_run_check_fails_on_weak_setting(capsys) -> None:
    # stock constants leave the solver idle at T=4000, so accuracy check trips
    rc = cli_main(["run", "--seed", "7", "-N", "4", "--check", "--T=4000"])
    assert rc == 3
    assert "CHECK FAILED" in capsys.readouterr().err


def test_cli_invalid_parameters_exit_2(capsys) -> None:
    # the bisection modes do not read kappa or sigma, but must not accept bad ones
    for argv in (
        ["run", "--seed", "1", "--delta_adv=0.6"],
        ["run", "--seed", "1", "-N", "2", "--T=2000", "--mode=Bisection", "--sigma=5", "--kappa=1"],
    ):
        rc = cli_main(argv)
        assert rc == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_cli_non_finite_values_exit_2(capsys) -> None:
    # --kappa=.inf once gave NaN point errors, and delta_hat = 0 passed --check
    huge = "1" + "0" * 400  # an int that no float holds
    for token in (
        "--kappa=.inf", "--lam=.inf", "--W=.inf", "--sigma=.inf",
        f"--lam={huge}", f"--overrides.C0={huge}",
    ):
        rc = cli_main(["run", "--seed", "1", "-N", "20", "--T=40000", token, "--check"])
        assert rc == 2, token
        assert "finite" in capsys.readouterr().err, token


def test_cli_overrides_never_prefix_match_subcommand_flags() -> None:
    # --p once matched --point-band in sweep and --public in export-transcript
    parser = build_parser()
    args, extras = parser.parse_known_args(
        ["sweep", "--seed", "1", "--budgets", "1000", "--p=0.6"]
    )
    assert args.point_band == "-0.7,-0.3"
    assert load_config(None, extras).p == 0.6
    args, extras = parser.parse_known_args(
        ["export-transcript", "--seed", "1", "--mode=NoisyBisection", "--p=0.6"]
    )
    assert not args.public
    config = load_config(None, extras)
    assert config.mode == "NoisyBisection" and config.p == 0.6


def test_cli_scientific_notation_values(tmp_path) -> None:
    # yaml 1.1 reads dotless "1e-4" as a string; the CLI must still accept it
    out = tmp_path / "trials.csv"
    rc = cli_main([
        "run", "--seed", "3", "-N", "2", "--mode=Bisection",
        "--eps=1e-4", "--T=2e3", "--out", str(out),
    ])
    assert rc == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    assert all(r[5] == "0.0001" for r in rows)
    assert all(r[2] == "2000" for r in rows)  # integral floats become ints


def test_cli_non_numeric_value_exits_2(capsys) -> None:
    rc = cli_main(["run", "--seed", "1", "--eps=tiny"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_missing_file_exits_2(tmp_path, capsys) -> None:
    rc = cli_main(["run", "--seed", "1", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 2
    rc = cli_main([
        "adversary-eval", "--seed", "1",
        "--transcript", str(tmp_path / "nope.txt"), "--x-star", "0.3",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2


def test_cli_malformed_yaml_config_exits_2(tmp_path, capsys) -> None:
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("T: [unclosed\n")
    rc = cli_main(["run", "--seed", "1", "--config", str(cfg)])
    assert rc == 2
    assert "broken.yaml" in capsys.readouterr().err


def test_cli_yaml_config_with_override(tmp_path) -> None:
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("T: 4000\nmode: Bisection\neps: 0.001\nx_star: 0.3\n")
    out = tmp_path / "trials.csv"
    rc = cli_main([
        "run", "--seed", "2", "-N", "2", "--config", str(cfg),
        "--out", str(out), "--T=2000",
    ])
    assert rc == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert all(r.split(",")[2] == "2000" for r in rows)  # override beats the file
    assert all(r.split(",")[9] == "Bisection" for r in rows)


def test_cli_unknown_config_key_exits_2(tmp_path, capsys) -> None:
    # seed and with_replacement were once config fields; they must not be
    # accepted and silently ignored
    cfg = tmp_path / "cfg.yaml"
    for key, value in (("bogus", "1"), ("seed", "5"), ("with_replacement", "true")):
        cfg.write_text(f"{key}: {value}\n")
        rc = cli_main(["run", "--seed", "2", "--config", str(cfg)])
        assert rc == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err


def test_cli_eps_not_below_delta_adv_exits_2(capsys) -> None:
    # bisection would run zero phases and leave the adversaries nothing to see
    rc = cli_main(["run", "--seed", "1", "--mode=Bisection", "--T=2000", "--eps=0.15"])
    assert rc == 2
    assert "below delta_adv" in capsys.readouterr().err


def test_cli_bad_constant_overrides_exit_2(capsys) -> None:
    # a zero C0 made the first epoch empty; a negative C1 a complex radius
    for token in (
        "--overrides.C0=0", "--overrides.C9=1", "--overrides.C0=.nan",
        "--overrides.C1=-1", "--overrides=2",
    ):
        rc = cli_main(["run", "--seed", "1", "-N", "1", "--T=2000", token])
        assert rc == 2, token
        assert capsys.readouterr().err.startswith("error:"), token


def test_cli_huge_c0_runs_like_an_oversized_first_epoch(tmp_path) -> None:
    # 2*C0 overflowed to inf in math.ceil; both first epochs exceed the budget
    csv = {}
    for c0 in ("1e308", "1e6"):
        out = tmp_path / f"c0_{c0}.csv"
        argv = ["run", "--seed", "1", "-N", "1", "--T=2000", f"--overrides.C0={c0}"]
        assert cli_main([*argv, "--out", str(out)]) == 0, c0
        csv[c0] = out.read_bytes()
    assert csv["1e308"] == csv["1e6"]


def test_harness_trials_never_draw_the_order_block(monkeypatch) -> None:
    from secopt import protocol

    configs = [
        ProtocolConfig(T=4000, overrides={"C0": 2.0}),
        ProtocolConfig(T=4000, mode="Bisection", eps=1e-3),
        ProtocolConfig(T=4000, mode="NoisyBisection", eps=1e-3),
    ]
    expected = [export_csv(run_batch(config, 4, master_seed=17)) for config in configs]

    def no_block_draw(*args):
        raise AssertionError("a harness trial drew the K x S order block")

    monkeypatch.setattr(protocol, "_draw_sub_orders", no_block_draw)
    for config, csv in zip(configs, expected):
        assert export_csv(run_batch(config, 4, master_seed=17)) == csv, config.mode


def test_cli_bisection_runs_first_halving_when_width_rounds_below_eps(tmp_path) -> None:
    # 0.4 - 0.30000000000000004 < eps < delta_adv: ceil(log2(delta_adv/eps)) = 1
    out = tmp_path / "trials.csv"
    rc = cli_main([
        "run", "--seed", "1", "-N", "2", "--mode=Bisection", "--T=2000",
        "--eps=0.09999999999999999", "--x_star=0.35", "--out", str(out),
    ])
    assert rc == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    assert [r[-2] for r in rows] == ["10", "10"]  # S * 1 queries


def test_cli_run_summary_follows_redirected_stdout() -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["run", "--seed", "7", "-N", "2", "--T=4000"])
    assert rc == 0
    assert "delta_hat=" in buf.getvalue()


_V3_HEAD = "# secopt-transcript version=3 mode=ConvexEpochGD public=0 phases=2 s=3 eps_adv=0.04\n"


def test_cli_adversary_eval_malformed_transcript_exits_2(tmp_path, capsys) -> None:
    path = tmp_path / "transcript.txt"
    for row in ("2,abc,1,2,3,1", "2,0.5,1,2,3", "2,0.5,1,2,3,1,7"):
        path.write_text(f"{_V3_HEAD}1,0.25,3,1,2,1\n{row}\n")
        rc = cli_main([
            "adversary-eval", "--transcript", str(path), "--x-star", "0.5", "--seed", "9",
        ])
        assert rc == 2, row
        assert "malformed transcript data" in capsys.readouterr().err


def test_cli_adversary_eval_unchecked_fields_exit_2(tmp_path, capsys) -> None:
    path = tmp_path / "transcript.txt"
    rows = "1,0.25,3,1,2,1\n2,0.5,1,2,3,3\n"
    texts = [
        _V3_HEAD + "7,0.5,1,2,3,1\n7,0.25,3,1,2,1\n",  # phases numbered 7, 7
        _V3_HEAD.replace("public=0", "public=yes bogus=1") + rows,
        _V3_HEAD.replace("public=0", "public=0 bogus=1") + rows,
    ]
    for text in texts:
        path.write_text(text)
        rc = cli_main([
            "adversary-eval", "--transcript", str(path), "--x-star", "0.5", "--seed", "9",
        ])
        assert rc == 2, text
        assert "transcript" in capsys.readouterr().err


def test_cli_adversary_eval_rejects_zero_samples(tmp_path, capsys) -> None:
    path = tmp_path / "transcript.txt"
    assert cli_main(["export-transcript", "--seed", "3", "--out", str(path), "--T=2000"]) == 0
    for samples in ("0", "-1"):
        rc = cli_main([
            "adversary-eval", "--transcript", str(path), "--x-star", "0.5",
            "--seed", "9", "--samples", samples,
        ])
        assert rc == 2
    assert capsys.readouterr().err.count("--samples must be at least 1") == 2


def test_cli_sweep_rejects_short_budget_list(capsys) -> None:
    rc = cli_main(["sweep", "--seed", "1", "--budgets", "1000,2000,4000"])
    assert rc == 2


def test_cli_missing_seed_is_a_usage_error() -> None:
    with pytest.raises(SystemExit) as exc:
        cli_main(["run"])
    assert exc.value.code == 2


def test_cli_bounds_table(capsys) -> None:
    rc = cli_main(["bounds", "--eps_adv=0.02"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "setting,quantity,value"
    assert any(ln.startswith("binary,") for ln in lines)
    assert any(ln.startswith("noisy-binary,") for ln in lines)
    assert any(ln.startswith("convex,") for ln in lines)


def test_cli_bounds_warns_and_refuses(capsys) -> None:
    # an effective budget T*delta_adv below 1 still prints, with a warning
    with pytest.warns(UserWarning, match="effective budget"):
        assert cli_main(["bounds", "--delta_adv=0.4", "--eps_adv=0.1", "--T=2", "--eps=0.01"]) == 0
    # c = 0 zeroes every lower bound; eps^q underflowing once raised ZeroDivisionError
    for argv in (["--c", "0"], ["--eps=1e-300", "--kappa=100"]):
        capsys.readouterr()
        assert cli_main(["bounds", *argv]) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_cli_export_then_adversary_eval(tmp_path, capsys) -> None:
    path = tmp_path / "transcript.txt"
    rc = cli_main([
        "export-transcript", "--seed", "3", "--out", str(path), "--public", "--T=4000",
    ])
    assert rc == 0
    text = path.read_text()
    assert text.startswith("# secopt-transcript")
    capsys.readouterr()
    rc = cli_main([
        "adversary-eval", "--transcript", str(path), "--x-star", "0.5",
        "--seed", "9", "--samples", "200",
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "strategy,successes,samples,success_rate"
    assert len(out) == 5
    assert all(int(ln.split(",")[2]) == 200 for ln in out[1:])
    # --eps was accepted and never used; it must not prefix-match --eps-adv either
    rc = cli_main([
        "adversary-eval", "--transcript", str(path), "--x-star", "0.5",
        "--seed", "9", "--eps", "0.01",
    ])
    assert rc == 2


def test_cli_adversary_eval_scores_at_the_runs_eps_adv(tmp_path, capsys) -> None:
    path = tmp_path / "transcript.txt"
    argv = ["export-transcript", "--seed", "3", "--out", str(path), "--T=20000", "--x_star=0.4"]
    assert cli_main([*argv, "--eps_adv=0.02"]) == 0

    def evaluate(*flags: str) -> str:
        capsys.readouterr()
        assert cli_main([
            "adversary-eval", "--transcript", str(path), "--x-star", "0.4",
            "--seed", "9", "--samples", "2000", *flags,
        ]) == 0
        return capsys.readouterr().out

    assert evaluate() == evaluate("--eps-adv", "0.02") != evaluate("--eps-adv", "0.04")
    # a version 1 header carried no eps_adv: such a file is refused, not
    # scored at a default that need not be the run's
    head, _, rows = path.read_text().partition("\n")
    kept = [tok for tok in head.split() if tok.split("=")[0] in ("config", "mode", "public")]
    path.write_text(" ".join(["# secopt-transcript", *kept]) + "\n" + rows)
    capsys.readouterr()
    assert cli_main([
        "adversary-eval", "--transcript", str(path), "--x-star", "0.4", "--seed", "9",
    ]) == 2
    assert "version 1" in capsys.readouterr().err


def test_cli_public_export_writes_no_seed_or_stream_key(capsys) -> None:
    # child streams share their parent's seed and key prefix: either would
    # reveal the init, noise and x* streams, the learner's whole trajectory
    seed, trial = 987654321, 424242
    argv = ["export-transcript", "--seed", str(seed), "--trial", str(trial), "--T=2000"]
    assert cli_main([*argv, "--public"]) == 0
    text = capsys.readouterr().out
    head = text.partition("\n")[0]
    fields = dict(tok.split("=", 1) for tok in head.split()[2:])
    assert sorted(fields) == ["eps_adv", "mode", "phases", "public", "s", "version"]
    for secret in (str(seed), hex(seed)[2:], str(trial)):
        assert secret not in head
    assert str(seed) not in text


def test_cli_public_header_does_not_depend_on_x_star(capsys) -> None:
    # the config hash covers a fixed x_star: hashing 1,001 candidate configs
    # would find it, so a public header carries no hash
    heads = []
    for x_star in ("0.4", "0.41"):
        argv = ["export-transcript", "--seed", "3", "--T=2000", f"--x_star={x_star}"]
        assert cli_main([*argv, "--public"]) == 0
        heads.append(capsys.readouterr().out.partition("\n")[0])
        assert cli_main(argv) == 0
        assert "config=" in capsys.readouterr().out.partition("\n")[0]  # private keeps it
    assert heads[0] == heads[1]
    assert "config=" not in heads[0]
