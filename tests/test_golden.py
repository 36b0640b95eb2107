"""Golden outputs: fixed seeded commands must keep producing the same bytes.

The digests were recorded before the solver drive loop, the transcript
assembly and the gradient-noise draw were merged into one implementation
each.  A change that alters any seeded random stream or arithmetic on
purpose must say so and update them.  Transcript digests cover the data rows
only: the header carries the config hash, which changes whenever a config
field is added or removed.
"""
import hashlib

from secopt.cli import main as cli_main
from secopt.functions import make_uniformly_convex
from secopt.harness import export_csv, run_batch
from secopt.oracles import RngStream
from secopt.protocol import ProtocolConfig, Transcript, run_plain_convex


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _data_rows(text: bytes) -> bytes:
    return text.partition(b"\n")[2]


def _query_bytes(tr: Transcript) -> bytes:
    return tr.points.tobytes() + tr.phase.tobytes() + tr.sub.tobytes() + tr.informative.tobytes()


def test_cli_run_csv_digest(tmp_path) -> None:
    out = tmp_path / "run.csv"
    assert cli_main(["run", "--seed", "7", "-N", "16", "--T=20000", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == (
        "0fac54e3a9e808f899ab8627728c7905362c91d615b2e4c3ffa951310371e3ac"
    )


def test_bisection_batch_csv_digests() -> None:
    expected = {
        # 47 votes per decision: the union bound covers all ceil(log2(0.1/1e-3)) = 7
        "NoisyBisection": "d5633d0257ba6e9364af4040ec457dc10bf74f6809449f31486314e4ad97ddfc",
        "Bisection": "87318486a4db45b30abd9f647800d8af344ccb26137d804527ff9ec82f70dd46",
    }
    for mode, digest in expected.items():
        config = ProtocolConfig(T=20000, mode=mode, p=0.75, eps=1e-3)
        summary = run_batch(config, 40, master_seed=5)
        assert _sha(export_csv(summary).encode()) == digest, mode


def test_noiseless_batch_csv_digest() -> None:
    summary = run_batch(ProtocolConfig(T=20000, sigma=0.0), 8, master_seed=7)
    assert _sha(export_csv(summary).encode()) == (
        "b552bbf732ddc455620fa1e76f8a017a6ab41392ca921f4d08be62fa1f9ac6d4"
    )


def test_non_quadratic_batch_csv_digests() -> None:
    # kappa != 2 takes the |d|**(kappa-2) branch of subgrad; recorded before
    # the solver's drive loop ran each epoch as one loop over locals
    expected = {
        3.0: "3e7c1d8ed314e20e3bd7c921667a66955df4b3b16387e1c3bf81df601eb57d3d",
        2.5: "c3374f654dca902acf6a58d6514799b32ec1a52d27dc5c6eae4da29afabc234d",
    }
    for kappa, digest in expected.items():
        summary = run_batch(ProtocolConfig(kappa=kappa, T=50000), 6, master_seed=11)
        assert _sha(export_csv(summary).encode()) == digest, kappa


def test_exported_transcript_rows_digest(tmp_path) -> None:
    # version 3 data rows, one per phase: re-pinned when the format changed
    # from one row per query; the query arrays they give are pinned below
    expected = {
        (): "368c53024b7fa409a2138407c66440e9013cd94c92eacd478299425e1caeec2c",
        ("--public",): "33285b9fe151b580ae8d7220ae6ccac65a082e68a9d06bdf9cdb1a997045d4f9",
    }
    out = tmp_path / "t.txt"
    for flags, digest in expected.items():
        argv = ["export-transcript", "--seed", "3", "--T=200000", "--out", str(out), *flags]
        assert cli_main(argv) == 0
        assert _sha(_data_rows(out.read_bytes())) == digest, flags


def test_exported_transcript_stdout_rows_digest(capsys) -> None:
    assert cli_main(["export-transcript", "--seed", "3", "--T=200000"]) == 0
    assert _sha(_data_rows(capsys.readouterr().out.encode())) == (
        "368c53024b7fa409a2138407c66440e9013cd94c92eacd478299425e1caeec2c"
    )


def test_exported_transcript_query_arrays_digest(capsys) -> None:
    # recorded from the version 2 text, one row per query: the query stream
    # survives the change to one row per phase bit for bit
    assert cli_main(["export-transcript", "--seed", "3", "--T=200000"]) == 0
    assert _sha(_query_bytes(Transcript.from_text(capsys.readouterr().out))) == (
        "03698c173e5d4f3bb5134f1f2b480c973ec8d8611753e33863df64e6daa1569b"
    )


def test_adversary_eval_stdout_digest(tmp_path, capsys) -> None:
    out = tmp_path / "t.txt"
    assert cli_main(["export-transcript", "--seed", "3", "--T=200000", "--out", str(out)]) == 0
    capsys.readouterr()
    # x-star is the optimizer export-transcript sampled for this seed and trial
    argv = ["adversary-eval", "--transcript", str(out), "--x-star", "0.3985985774593667",
            "--seed", "5", "--samples", "2000"]
    assert cli_main(argv) == 0
    assert _sha(capsys.readouterr().out.encode()) == (
        "06023beacfed09a57f5a10f625a46541ec11dc3f3157725ed54ca1065c1aab71"
    )


def test_plain_control_transcript_digest() -> None:
    # the plain control has no text form: its query arrays are pinned, as
    # recorded when they were still written one row per query
    config = ProtocolConfig(T=30000, overrides={"C0": 2.0})
    tr = run_plain_convex(config, make_uniformly_convex(2.0, 1.0, 0.3), RngStream(4, (1,)))
    assert tr.effective_gradients == 16380
    assert tr.x_hat == 0.3007684810746028
    assert _sha(_query_bytes(tr)) == (
        "837affae6198ec67b2e7b3c7968627bfefc36042930c89c49af8c15636c1c117"
    )


def test_bounds_stdout_digests(capsys) -> None:
    expected = {
        (): "3a4e8787da55cd064614ef3c6f1fa035a160a0e7b2402a037cd3a5ac565eaff2",
        ("--eps_adv=0.02",): "767094d3de0c037759062b57d820264fe9aa96985bc3e0d5686ed819a8ed8db9",
        ("--kappa=3", "--c", "2"): (
            "179bc5cfedef35b158b5974bcf0317358c70472ed563cbee5f5ba32f305cfbda"
        ),
        ("--kappa=2.5", "--sigma=0.3", "--p=0.6"): (
            "bdfdd38a248086868b8e0fcabdb21bcd9919509f6b848c91556e9a5665aab561"
        ),
    }
    for argv, digest in expected.items():
        assert cli_main(["bounds", *argv]) == 0
        assert _sha(capsys.readouterr().out.encode()) == digest, argv
