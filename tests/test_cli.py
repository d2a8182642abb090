"""End-to-end CLI coverage: synth gen / train / eval / sweep, exit codes."""

import csv
import json
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from emgkin import __version__, cli, evaluation, synth, training
from emgkin.cli import main
from emgkin.errors import (
    ConfigError,
    DataError,
    DegenerateChannelError,
    DivergenceError,
    InsufficientDataError,
    LoadError,
    OutputPathError,
)
from emgkin.evaluation import evaluate_model
from emgkin.config import PipelineConfig, StageConfig
from emgkin.io import load_model, load_session, read_report, save_model, save_session
from emgkin.synth import SynthConfig, generate


TINY_YAML = """\
seed: 5
cnn:
  epochs: 1
  lr0: 1.0e-4
lstm:
  epochs: 2
  lr0: 1.0e-3
"""


def _invoke(args, env=None):
    runner = CliRunner()
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def _all_output(result) -> str:
    try:
        return result.output + result.stderr
    except ValueError:  # stderr merged into output on this click version
        return result.output


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One 20 s session dir, one session-pair dir, and a tiny YAML config."""
    root = tmp_path_factory.mktemp("cli")
    result = _invoke(
        ["synth", "gen", "--duration", "20", "--seed", "5", "--out",
         str(root / "solo")]
    )
    assert result.exit_code == 0, result.output
    result = _invoke(
        ["synth", "gen", "--duration", "20", "--seed", "5", "--pair", "--out",
         str(root / "pair")]
    )
    assert result.exit_code == 0, result.output
    (root / "tiny.yaml").write_text(TINY_YAML)
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    """A checkpoint trained through the CLI on the solo session."""
    out = workspace / "model.ckpt"
    result = _invoke(
        ["train", "--config", str(workspace / "tiny.yaml"),
         "--data", str(workspace / "solo"), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    return out, result


def test_version_flag():
    result = _invoke(["--version"])
    assert result.exit_code == 0
    assert "emgkin" in result.output
    assert __version__ in result.output


def test_synth_gen_is_deterministic(tmp_path):
    for name in ("a", "b"):
        result = _invoke(
            ["synth", "gen", "--duration", "2", "--seed", "3", "--out",
             str(tmp_path / name)]
        )
        assert result.exit_code == 0, result.output
    assert (tmp_path / "a" / "emg.csv").read_bytes() == (
        tmp_path / "b" / "emg.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "angles.csv").exists()
    assert (tmp_path / "a" / "meta.json").exists()


def test_synth_gen_pair_layout(workspace):
    children = sorted(p.name for p in (workspace / "pair").iterdir())
    assert children == ["s0", "s0_b"]
    for child in children:
        assert (workspace / "pair" / child / "emg.csv").is_file()


def test_banner_reports_effective_config(trained):
    _, result = trained
    first = result.output.splitlines()[0]
    assert first.startswith("effective-config: ")
    payload = json.loads(first.removeprefix("effective-config: "))
    assert payload["command"] == "train"
    assert payload["config"]["cnn"]["epochs"] == 1
    assert payload["protocol"] == "P1"
    assert "protocol" not in payload["config"]
    assert payload["split"] == "intra"


def test_train_writes_checkpoint_and_losses(workspace, trained):
    out, result = trained
    assert "final cnn loss" in result.output
    assert "final lstm loss" in result.output
    assert out.is_file()
    losses = (workspace / "model.losses.csv").read_text().splitlines()
    assert losses[0] == "stage,epoch,loss"
    assert len(losses) == 1 + 1 + 2  # header + cnn epochs + lstm epochs

    model = load_model(out)
    assert model.k == 18
    assert model.dof_names == ["fe"]


def test_train_cli_overrides_reach_checkpoint(workspace, tmp_path):
    out = tmp_path / "k8.ckpt"
    result = _invoke(
        ["train", "--config", str(workspace / "tiny.yaml"),
         "--data", str(workspace / "solo"), "--out", str(out), "--k", "8"]
    )
    assert result.exit_code == 0, result.output
    assert load_model(out).k == 8


def test_train_missing_data_dir_exits_2(workspace, tmp_path):
    result = _invoke(
        ["train", "--config", str(workspace / "tiny.yaml"),
         "--data", str(tmp_path / "void"), "--out", str(tmp_path / "m.ckpt")]
    )
    assert result.exit_code == 2
    assert "does not exist" in _all_output(result)


def test_eval_intra_writes_report_and_trajectory(workspace, trained, tmp_path):
    out, _ = trained
    report_path = tmp_path / "report.json"
    result = _invoke(
        ["eval", "--model", str(out), "--data", str(workspace / "solo"),
         "--report", str(report_path)]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(report_path.read_text())
    assert isinstance(payload, dict)  # single model -> single object
    assert payload["model"] == "cnn-lstm"
    assert payload["split"].startswith("intra:")
    assert "cnn-lstm: fe=" in result.output

    traj = (tmp_path / "report.trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,true,pred,dof"
    assert len(traj) == 1 + len(payload["trajectory"]["t"])


def test_eval_baselines_writes_report_array(workspace, trained, tmp_path):
    out, _ = trained
    report_path = tmp_path / "report.json"
    result = _invoke(
        ["eval", "--model", str(out), "--data", str(workspace / "solo"),
         "--report", str(report_path), "--baselines"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(report_path.read_text())
    assert [entry["model"] for entry in payload] == ["cnn-lstm", "cnn", "krr"]
    for name in ("cnn-lstm:", "cnn:", "krr:"):
        assert name in result.output


def _mask_runtime(text: str) -> str:
    return re.sub(r'"runtime_s": [^,\n]+', '"runtime_s": _', text)


def test_eval_baselines_report_text_is_pinned(workspace, trained, tmp_path):
    """The ``--baselines`` file is a 2-space-indented JSON array of the
    cnn-lstm, cnn and krr reports, each object's keys in the report order,
    with a trailing newline; only runtime_s varies from run to run."""
    out, _ = trained
    report_path = tmp_path / "report.json"
    result = _invoke(
        ["eval", "--model", str(out), "--data", str(workspace / "solo"),
         "--report", str(report_path), "--baselines"]
    )
    assert result.exit_code == 0, result.output
    reports = evaluate_model(
        load_model(out), load_session(workspace / "solo"), baselines=True
    )
    expected = [
        {
            "model": r.model,
            "protocol": r.protocol,
            "split": r.split,
            "dof": r.dof,
            "k": r.k,
            "matrix_mode": r.matrix_mode,
            "runtime_s": r.runtime_s,
            "input_len": r.input_len,
            "trajectory": {
                "t": r.timestamps.tolist(),
                "true": r.truths.tolist(),
                "pred": r.predictions.tolist(),
            },
        }
        for r in reports
    ]
    assert [entry["model"] for entry in expected] == ["cnn-lstm", "cnn", "krr"]
    assert _mask_runtime(report_path.read_text()) == _mask_runtime(
        json.dumps(expected, indent=2) + "\n"
    )


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_data_that_is_a_file_exits_2(workspace, trained, tmp_path, command):
    """``--data`` naming a file is refused with its path, not a traceback."""
    data = workspace / "solo" / "emg.csv"
    out, _ = trained
    args = {
        "train": ["train", "--config", str(workspace / "tiny.yaml"),
                  "--out", str(tmp_path / "m.ckpt")],
        "eval": ["eval", "--model", str(out), "--report", str(tmp_path / "r.json")],
        "sweep": ["sweep", "--what", "timesteps", "--config",
                  str(workspace / "tiny.yaml"), "--out", str(tmp_path / "ks")],
    }[command]
    result = _invoke([*args, "--data", str(data)])
    assert result.exit_code == 2
    assert f"data directory {data} is not a directory" in _all_output(result)
    assert "Traceback" not in _all_output(result)


def test_eval_names_a_test_fold_shorter_than_k(trained, tmp_path):
    """A 1 s session's test fold has 4 windows, fewer than the checkpoint's
    k=18: eval exits 2 naming the session, the partition and k."""
    out, _ = trained
    save_session(
        generate(SynthConfig(protocol="P1", duration_s=1.0, seed=3)), tmp_path / "short"
    )
    result = _invoke(
        ["eval", "--model", str(out), "--data", str(tmp_path / "short"),
         "--report", str(tmp_path / "r.json")]
    )
    assert result.exit_code == 2
    assert (
        "error: session s0: test partition has 4 windows, fewer than k=18"
        in _all_output(result)
    )


def test_train_names_a_session_shorter_than_k(workspace, tmp_path):
    """A 1 s session has 14 windows, fewer than k=18: train exits 2 naming
    the session, the partition and k, and writes no checkpoint."""
    save_session(
        generate(SynthConfig(protocol="P1", duration_s=1.0, seed=3)), tmp_path / "short"
    )
    result = _invoke(
        ["train", "--config", str(workspace / "tiny.yaml"), "--data", str(tmp_path / "short"),
         "--out", str(tmp_path / "m.ckpt")]
    )
    assert result.exit_code == 2
    assert (
        "error: session s0: training partition has 14 windows, fewer than k=18"
        in _all_output(result)
    )
    assert not (tmp_path / "m.ckpt").exists()


def test_train_refuses_a_session_without_meta(workspace, tmp_path):
    """A session directory without meta.json exits 2 naming the file, and no
    protocol is guessed from its angle columns."""
    shutil.copytree(workspace / "solo", tmp_path / "anon")
    (tmp_path / "anon" / "meta.json").unlink()
    result = _invoke(
        ["train", "--config", str(workspace / "tiny.yaml"), "--data", str(tmp_path / "anon"),
         "--out", str(tmp_path / "m.ckpt")]
    )
    assert result.exit_code == 2
    assert f"error: missing {tmp_path / 'anon' / 'meta.json'}" in _all_output(result)
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_three_session_dir_exits_2(workspace, trained, tmp_path, command):
    """One session is intra, two are inter; three name no protocol."""
    trio = tmp_path / "trio"
    for child in ("s0", "s0_b"):
        shutil.copytree(workspace / "pair" / child, trio / child)
    shutil.copytree(workspace / "solo", trio / "s1")
    out, _ = trained
    args = {
        "train": ["train", "--config", str(workspace / "tiny.yaml"),
                  "--out", str(tmp_path / "m.ckpt")],
        "eval": ["eval", "--model", str(out), "--report", str(tmp_path / "r.json")],
        "sweep": ["sweep", "--what", "timesteps", "--config",
                  str(workspace / "tiny.yaml"), "--out", str(tmp_path / "ks")],
    }[command]
    result = _invoke([*args, "--data", str(trio)])
    assert result.exit_code == 2
    assert "found 3" in _all_output(result)
    assert not (tmp_path / "m.ckpt").exists()
    assert not (tmp_path / "ks").exists()


def test_eval_inter_session_pair(workspace, tmp_path):
    # A pair directory is scored inter-session: train on the full first
    # session, no fold split, and test on the second.
    out = tmp_path / "inter.ckpt"
    result = _invoke(
        ["train", "--config", str(workspace / "tiny.yaml"),
         "--data", str(workspace / "pair"), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    banner = json.loads(result.output.splitlines()[0].removeprefix("effective-config: "))
    assert banner["split"] == "inter"

    report_path = tmp_path / "inter.json"
    result = _invoke(
        ["eval", "--model", str(out), "--data", str(workspace / "pair"),
         "--report", str(report_path)]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(report_path.read_text())
    assert payload["split"] == "inter:s0->s0_b"


def test_eval_refuses_session_at_other_rate(trained, tmp_path):
    """The checkpoint windows 1024 Hz data; a 2048 Hz session is refused
    before any report is written."""
    out, _ = trained
    fast = tmp_path / "fast"
    save_session(
        generate(SynthConfig(protocol="P1", duration_s=20.0, seed=5, fs_emg=2048.0)),
        fast,
    )
    report_path = tmp_path / "fast.json"
    result = _invoke(
        ["eval", "--model", str(out), "--data", str(fast),
         "--report", str(report_path)]
    )
    assert result.exit_code == 2
    assert "2048 Hz" in _all_output(result)
    assert not report_path.exists()
    assert not (tmp_path / "fast.trajectory.csv").exists()


def test_eval_refuses_session_at_a_rate_with_the_same_windows(trained, tmp_path):
    """A 1020 Hz session windows as 102/51 samples like the 1024 Hz
    checkpoint's, and is still refused (exit 2) before any report is written."""
    out, _ = trained
    near = tmp_path / "near"
    save_session(
        generate(SynthConfig(protocol="P1", duration_s=20.0, seed=5, fs_emg=1020.0)),
        near,
    )
    report_path = tmp_path / "near.json"
    result = _invoke(
        ["eval", "--model", str(out), "--data", str(near),
         "--report", str(report_path)]
    )
    assert result.exit_code == 2
    assert "1020 Hz" in _all_output(result)
    assert not report_path.exists()


def test_eval_refuses_session_of_other_protocol(trained, tmp_path):
    """The checkpoint predicts fe; a P2 session (ps) is refused before any
    report is written."""
    out, _ = trained
    other = tmp_path / "p2"
    save_session(generate(SynthConfig(protocol="P2", duration_s=20.0, seed=5)), other)
    report_path = tmp_path / "p2.json"
    result = _invoke(
        ["eval", "--model", str(out), "--data", str(other),
         "--report", str(report_path), "--baselines"]
    )
    assert result.exit_code == 2
    assert "protocol P2" in _all_output(result)
    assert not report_path.exists()
    assert not (tmp_path / "p2.trajectory.csv").exists()


@pytest.mark.parametrize(
    "error, code",
    [
        (ConfigError("bad key"), 2),
        (LoadError("bad file"), 2),
        (DataError("bad rate"), 2),
        (OutputPathError("bad output"), 2),
        (InsufficientDataError("short partition"), 2),
        (DegenerateChannelError("session s0: channel(s) ch3 have max <= min"), 2),
        (DivergenceError(0, 0, float("nan")), 1),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_error_class_sets_exit_code(monkeypatch, tmp_path, error, code):
    """Config, load and data errors are input problems (2); a divergence is a
    runtime failure (1)."""

    def fail(data_dir):
        raise error

    monkeypatch.setattr(cli, "_load_sessions", fail)
    result = _invoke(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.ckpt")])
    assert result.exit_code == code
    assert f"error: {error}" in _all_output(result)


@pytest.mark.parametrize(
    "args, named",
    [
        (["train", "--data", "{solo}", "--out", "{tmp}/adir"], "adir"),
        (["eval", "--model", "{model}", "--data", "{solo}", "--report", "{tmp}/adir"], "adir"),
        (["eval", "--model", "{model}", "--data", "{solo}", "--report", "{tmp}/afile/r.json"],
         "afile"),
        (["sweep", "--what", "matrixmode", "--data", "{solo}", "--out", "{tmp}/afile"], "afile"),
        (["synth", "gen", "--out", "{tmp}/afile"], "afile"),
        (["sweep", "--what", "timesteps", "--data", "{solo}", "--out", "{tmp}/kdir"],
         "kdir/k18.json"),
        (["sweep", "--what", "matrixmode", "--data", "{solo}", "--out", "{tmp}/mdir"],
         "mdir/temporal.json"),
        (["sweep", "--what", "timesteps", "--data", "{solo}", "--out", "{tmp}/sdir"],
         "sdir/summary.csv"),
    ],
    ids=["train-out-dir", "eval-report-dir", "eval-report-under-file", "sweep-out-file",
         "synth-out-file", "sweep-k-report-dir", "sweep-mode-report-dir", "sweep-summary-dir"],
)
def test_unwritable_output_exits_2_before_any_work(
    workspace, trained, tmp_path, monkeypatch, args, named
):
    """An output path the writers would fail on (a directory where a file
    goes, a file where a directory goes or in the way of one) exits 2 with
    an error naming it before any data is read, so nothing is trained,
    scored, generated or written; each of these used to end in a traceback
    after the work. A sweep checks each variant's report and its summary."""
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    for blocked in ("kdir/k18.json", "mdir/temporal.json", "sdir/summary.csv"):
        (tmp_path / blocked).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    calls = []
    for owner, name in [(cli, "_load_sessions"), (training, "train_hybrid"),
                        (training, "train_hybrids"), (evaluation, "evaluate_model"),
                        (evaluation, "compare_matrix_modes"), (synth, "generate")]:
        monkeypatch.setattr(owner, name, lambda *a, name=name, **kw: calls.append(name))
    fields = {"solo": workspace / "solo", "model": trained[0], "tmp": tmp_path}
    result = _invoke([arg.format(**fields) for arg in args])
    assert result.exit_code == 2, _all_output(result)
    assert f"error: output {tmp_path}/" in _all_output(result)
    assert str(tmp_path / named) in _all_output(result)
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


def test_eval_corrupt_checkpoint_exits_1(workspace, tmp_path):
    bad = tmp_path / "noise.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    result = _invoke(
        ["eval", "--model", str(bad), "--data", str(workspace / "solo"),
         "--report", str(tmp_path / "r.json")]
    )
    assert result.exit_code == 1
    assert "corrupt checkpoint" in _all_output(result)


def test_sweep_matrixmode_outputs(workspace, tmp_path):
    out_dir = tmp_path / "modes"
    result = _invoke(
        ["sweep", "--what", "matrixmode", "--config",
         str(workspace / "tiny.yaml"), "--data", str(workspace / "solo"),
         "--out", str(out_dir)]
    )
    assert result.exit_code == 0, result.output
    lines = (out_dir / "summary.csv").read_text().splitlines()
    assert lines[0] == (
        "variant,k,matrix_mode,input_len,runtime_s,r2_mean,r2_fe,r2_ps,r2_ru"
    )
    assert [line.split(",")[0] for line in lines[1:]] == ["spectral", "temporal"]

    spectral = json.loads((out_dir / "spectral.json").read_text())
    temporal = json.loads((out_dir / "temporal.json").read_text())
    assert spectral["input_len"] == 101
    assert temporal["input_len"] == 102


def test_sweep_timesteps_outputs(workspace, tmp_path):
    out_dir = tmp_path / "ks"
    result = _invoke(
        ["sweep", "--what", "timesteps", "--config",
         str(workspace / "tiny.yaml"), "--data", str(workspace / "solo"),
         "--out", str(out_dir)]
    )
    assert result.exit_code == 0, result.output
    lines = (out_dir / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["k8", "k18", "k58", "k98"]

    # trajectory length is M - k + 1 for the shared test fold, so lengths
    # must shrink one-for-one as k grows
    lengths = {}
    for k in (8, 18, 58, 98):
        payload = json.loads((out_dir / f"k{k}.json").read_text())
        assert payload["k"] == k
        lengths[k] = len(payload["trajectory"]["t"])
    assert lengths[8] - lengths[18] == 10
    assert lengths[18] - lengths[58] == 40
    assert lengths[58] - lengths[98] == 40


def test_sweep_summary_carries_the_reports_exact_values(workspace, tmp_path):
    """summary.csv's numbers read back to the report files' values exactly,
    and a DoF the protocol does not move (ps, ru on P1) stays blank."""
    out_dir = tmp_path / "modes"
    result = _invoke(
        ["sweep", "--what", "matrixmode", "--config",
         str(workspace / "tiny.yaml"), "--data", str(workspace / "solo"),
         "--out", str(out_dir)]
    )
    assert result.exit_code == 0, result.output
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["variant"] for row in rows] == ["spectral", "temporal"]
    for row in rows:
        report = read_report(out_dir / f"{row['variant']}.json")
        r2 = [entry["r2"] for entry in report.dof]
        assert int(row["k"]) == report.k
        assert row["matrix_mode"] == report.matrix_mode
        assert int(row["input_len"]) == report.input_len
        assert float(row["runtime_s"]) == report.runtime_s
        assert float(row["r2_mean"]) == sum(r2) / len(r2)
        assert float(row["r2_fe"]) == report.r2_of("fe")
        assert row["r2_ps"] == row["r2_ru"] == ""


def test_train_names_a_flat_channel_by_its_csv_column(tmp_path):
    """A session whose ch3 column is all zeros cannot be min-max scaled: an
    input fault, so exit 2, with the session and the column as emg.csv
    names it."""
    rec = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=3))
    emg = rec.emg.copy()
    emg[:, 2] = 0.0
    save_session(replace(rec, emg=emg), tmp_path / "flat")
    result = _invoke(
        ["train", "--desk", "--data", str(tmp_path / "flat"),
         "--out", str(tmp_path / "m.ckpt")]
    )
    assert result.exit_code == 2
    assert "error: session s0: channel(s) ch3 have max <= min" in _all_output(result)


def test_train_names_a_session_whose_labels_are_constant(tmp_path):
    """A session whose fe column never moves cannot be standardized: an
    input fault, so exit 2, naming the session."""
    rec = generate(SynthConfig(protocol="P1", duration_s=20.0, seed=3))
    save_session(replace(rec, angles=np.full_like(rec.angles, 5.0)), tmp_path / "still")
    result = _invoke(
        ["train", "--desk", "--data", str(tmp_path / "still"),
         "--out", str(tmp_path / "m.ckpt")]
    )
    assert result.exit_code == 2
    assert "error: session s0: label std [0.] is not positive" in _all_output(result)
    assert not (tmp_path / "m.ckpt").exists()


def test_train_refuses_a_channel_that_is_constant_before_filtering(tmp_path):
    """A ch3 held at 0.5 leaves the high-pass with only its start-up
    transient, which would give the channel a range to scale by: the raw
    samples are checked by the same rule, so this exits 2 like a channel of
    zeros, naming the session and the column, and writes no checkpoint."""
    rec = generate(SynthConfig(protocol="P1", duration_s=20.0, seed=3))
    emg = rec.emg.copy()
    emg[:, 2] = 0.5
    save_session(replace(rec, emg=emg), tmp_path / "offset")
    result = _invoke(
        ["train", "--desk", "--data", str(tmp_path / "offset"),
         "--out", str(tmp_path / "m.ckpt")]
    )
    assert result.exit_code == 2
    assert "error: session s0: channel(s) ch3 have max <= min" in _all_output(result)
    assert not (tmp_path / "m.ckpt").exists()


def test_eval_names_a_session_whose_test_angles_are_constant(trained, tmp_path):
    """R² is undefined on a test partition whose fe angle never moves: an
    input fault, so exit 2 naming the session and the DoF, and no report."""
    rec = generate(SynthConfig(protocol="P1", duration_s=20.0, seed=3))
    save_session(replace(rec, angles=np.full_like(rec.angles, 5.0)), tmp_path / "still")
    report = tmp_path / "r.json"
    result = _invoke(
        ["eval", "--model", str(trained[0]), "--data", str(tmp_path / "still"),
         "--report", str(report), "--baselines"]
    )
    assert result.exit_code == 2
    assert "error: session s0: test partition's fe angle is constant" in _all_output(result)
    assert not report.exists() and not report.with_suffix(".trajectory.csv").exists()


def test_eval_refuses_a_checkpoint_of_another_channel_count(tmp_path):
    """A checkpoint that ``save_model`` wrote for 5-channel data meets a
    6-channel session: exit 2 naming the session and both counts, no
    traceback and no report (it ended in numpy's broadcast traceback)."""
    rec = generate(SynthConfig(protocol="P1", duration_s=20.0, seed=5))
    config = PipelineConfig(
        seed=5, cnn=StageConfig(epochs=1, lr0=1e-4), lstm=StageConfig(epochs=1, lr0=1e-3)
    )
    run = training.train_hybrid(replace(rec, emg=rec.emg[:, :5]), config)
    save_model(run.model, tmp_path / "five.ckpt")
    save_session(rec, tmp_path / "six")
    report = tmp_path / "r.json"
    result = _invoke(
        ["eval", "--model", str(tmp_path / "five.ckpt"), "--data", str(tmp_path / "six"),
         "--report", str(report), "--baselines"]
    )
    assert result.exit_code == 2
    assert "error: session s0 has 6 EMG channels, but the model has 5" in _all_output(result)
    assert "Traceback" not in _all_output(result)
    assert not report.exists() and not report.with_suffix(".trajectory.csv").exists()


@pytest.mark.parametrize("level", [0.0, 0.5])
def test_eval_scores_a_test_partition_with_a_dead_channel(trained, tmp_path, level):
    """A test partition is scaled by the training partition's min/max, so a
    dead test electrode is still defined input: ``eval`` scores it."""
    rec = generate(SynthConfig(protocol="P1", duration_s=20.0, seed=3))
    emg = rec.emg.copy()
    emg[:, 2] = level
    save_session(replace(rec, emg=emg), tmp_path / "dead")
    report = tmp_path / "r.json"
    result = _invoke(
        ["eval", "--model", str(trained[0]), "--data", str(tmp_path / "dead"),
         "--report", str(report)]
    )
    assert result.exit_code == 0, _all_output(result)
    assert read_report(report).model == "cnn-lstm"


def test_sweep_reads_no_thread_variable(workspace, tmp_path):
    """``sweep`` runs its variants one after another: a thread count in the
    environment is not read, and the banner has no ``workers`` key."""
    result = _invoke(
        ["sweep", "--what", "matrixmode", "--config", str(workspace / "tiny.yaml"),
         "--data", str(workspace / "solo"), "--out", str(tmp_path / "x")],
        env={"EMGKIN_THREADS": "abc"},
    )
    assert result.exit_code == 0, _all_output(result)
    banner = result.output.splitlines()[0]
    assert banner.startswith("effective-config: ")
    payload = json.loads(banner.removeprefix("effective-config: "))
    assert payload["command"] == "sweep"
    assert "workers" not in payload


def test_sweep_refuses_a_short_test_fold_before_training(workspace, tmp_path, monkeypatch):
    """A 15 s session's test fold has 74 windows, fewer than the sweep's
    largest k: the sweep exits 2 naming the session, the partition and k,
    and stage 1 never trains."""
    save_session(
        generate(SynthConfig(protocol="P1", duration_s=15.0, seed=1)), tmp_path / "short"
    )

    def no_training(*args, **kwargs):
        pytest.fail("the sweep trained before refusing the short test fold")

    monkeypatch.setattr(training, "train_cnn", no_training)
    result = _invoke(
        ["sweep", "--what", "timesteps", "--config", str(workspace / "tiny.yaml"),
         "--data", str(tmp_path / "short"), "--out", str(tmp_path / "ks")]
    )
    assert result.exit_code == 2
    assert (
        "error: session s0: test partition has 74 windows, fewer than k=98"
        in _all_output(result)
    )


@pytest.mark.parametrize(
    "args, name",
    [
        (["synth", "gen", "--duration", "nan"], "duration_s"),
        (["synth", "gen", "--duration", "inf"], "duration_s"),
        (["synth", "gen", "--seed", "-1"], "seed"),
        (["synth", "gen", "--snr-db", "nan"], "snr_db"),
        (["synth", "gen", "--snr-db", "-inf"], "snr_db"),
        (["train", "--seed", "-1"], "seed"),
        (["train", "--config", "inf.yaml"], "lr0"),
        (["synth", "gen", "--duration", "0.005"], "duration_s"),
        (["synth", "gen", "--duration", "0.01"], "duration_s"),
    ],
)
def test_settings_that_crash_or_write_unreadable_sessions_exit_2(
    workspace, tmp_path, args, name
):
    """Each exited 1 with a traceback, or 0 with an ``emg.csv`` that
    ``load_session`` refuses; now a ConfigError names the setting."""
    (tmp_path / "inf.yaml").write_text("cnn:\n  lr0: .inf\n")
    args = [str(tmp_path / a) if a.endswith(".yaml") else a for a in args]
    if args[0] == "train":
        args += ["--data", str(workspace / "solo"), "--out", str(tmp_path / "m.ckpt")]
    else:
        args += ["--out", str(tmp_path / "s")]
    result = _invoke(args)
    assert result.exit_code == 2, result.output
    assert f"error: {name} must be" in _all_output(result)
    assert not (tmp_path / "s").exists() and not (tmp_path / "m.ckpt").exists()


def test_infinite_snr_writes_a_session_that_loads(tmp_path):
    result = _invoke(
        ["synth", "gen", "--duration", "2", "--snr-db", "inf", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    assert np.isfinite(load_session(tmp_path).emg).all()


def test_unknown_protocol_choice_rejected(tmp_path):
    result = _invoke(
        ["synth", "gen", "--protocol", "P9", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2  # click usage error
