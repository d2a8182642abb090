"""Command-line entry point: synth gen / train / eval / sweep.

Every command echoes an ``effective-config:`` banner (one JSON line with all
resolved values) so any run can be reproduced from its log. Exit codes:
0 success, 1 runtime failure (e.g. divergence or a corrupt checkpoint),
2 usage, config or input error (``ConfigError``, ``LoadError``, ``DataError``:
e.g. a recording of another protocol, rate or channel count than the
checkpoint or the pair's other session, a partition with fewer windows than
k, a training channel that is flat before or after filtering, or a test
partition whose angle never moves; ``OutputPathError``:
an output path that cannot be written, refused before any data is read).
``train``, ``eval`` and ``sweep`` take the protocol from the sessions under
``--data``; the ``train`` and ``sweep`` banners print it as ``protocol``
beside the ``config`` mapping. The sessions also set the split
(``evaluation.partition``): one session is scored intra-session
(folds 1-3 train, fold 4 tests), two inter-session (train on the first,
test on the second), and any other count exits 2.
``sweep`` runs its variants one after another. The timesteps sweep trains
one shared CNN and one LSTM per k and scores every k from one pass over the
test partition; the matrix-mode sweep trains a whole model per mode.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import __version__, evaluation, io, synth, training
from .config import (
    PipelineConfig,
    desk_preset,
    load_config,
    merge_overrides,
)
from .dsp import MATRIX_MODES, PROTOCOL_DOFS, SemgRecording
from .errors import ConfigError, DataError, EmgkinError, LoadError, OutputPathError


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, DataError, LoadError, OutputPathError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except EmgkinError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _banner(command: str, **payload) -> None:
    click.echo(
        "effective-config: "
        + json.dumps({"command": command, **payload}, sort_keys=True)
    )


def _load_sessions(data_dir: Path) -> list[SemgRecording]:
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        found = "is not a directory" if data_dir.exists() else "does not exist"
        raise LoadError(f"data directory {data_dir} {found}")
    dirs = io.list_session_dirs(data_dir)
    if not dirs:
        raise LoadError(f"no session (emg.csv) found under {data_dir}")
    return [io.load_session(d) for d in dirs]


def _resolve_config(
    config_path: Path | None, desk: bool, overrides: dict
) -> PipelineConfig:
    cfg = load_config(config_path) if config_path else PipelineConfig()
    cfg = merge_overrides(cfg, overrides)
    if desk:
        cfg = desk_preset(cfg)
    return cfg


@click.group()
@click.version_option(__version__, prog_name="emgkin")
def main():
    """sEMG-to-wrist-angle regression: CNN-LSTM hybrid pipeline."""


@main.group("synth")
def synth_group():
    """Synthetic session generation."""


@synth_group.command("gen")
@click.option(
    "--protocol", type=click.Choice(tuple(PROTOCOL_DOFS)), default="P1", show_default=True
)
@click.option("--duration", type=float, default=60.0, show_default=True,
              help="Session length in seconds.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@click.option("--pair", is_flag=True,
              help="Emit two sessions (domain-shifted B) for inter-session use.")
@click.option("--snr-db", type=float, default=20.0, show_default=True)
@_handle_errors
def synth_gen(protocol, duration, seed, out_dir, pair, snr_db):
    """Generate seeded synthetic session(s) as CSV under OUT."""
    _banner(
        "synth gen",
        protocol=protocol,
        duration_s=duration,
        seed=seed,
        out=str(out_dir),
        pair=pair,
        snr_db=snr_db,
    )
    io.check_output(out_dir, directory=True)
    config = synth.SynthConfig(
        protocol=protocol, duration_s=duration, seed=seed, snr_db=snr_db
    )
    if pair:
        session_a, session_b = synth.generate_session_pair(config)
        for rec in (session_a, session_b):
            path = io.save_session(rec, out_dir / rec.session_id)
            click.echo(f"wrote {path}")
    else:
        path = io.save_session(synth.generate(config), out_dir)
        click.echo(f"wrote {path}")


@main.command("train")
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path),
              default=None, help="YAML pipeline config.")
@click.option("--data", "data_dir", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@click.option("--desk", is_flag=True, help="Desk-scale epoch preset (CNN 5, LSTM 10).")
@click.option("--seed", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--matrix-mode", type=click.Choice(MATRIX_MODES), default=None)
@_handle_errors
def train_cmd(config_path, data_dir, out_path, desk, seed, k, matrix_mode):
    """Run both training stages; write checkpoint + loss-history CSV."""
    io.check_output(out_path)
    losses_path = io.check_output(Path(out_path).with_suffix(".losses.csv"))
    sessions = _load_sessions(data_dir)
    train_raw, _, split = evaluation.partition(sessions)
    cfg = _resolve_config(
        config_path, desk, {"seed": seed, "k": k, "matrix_mode": matrix_mode}
    )
    _banner(
        "train",
        config=cfg.to_dict(),
        protocol=sessions[0].protocol,
        data=str(data_dir),
        out=str(out_path),
        split=split.split(":")[0],
    )
    run = training.train_hybrid(train_raw, cfg)
    io.save_model(run.model, out_path)
    io.write_losses(losses_path, run.cnn_loss, run.lstm_loss)
    click.echo(f"final cnn loss {run.cnn_loss[-1]:.6g}")
    click.echo(f"final lstm loss {run.lstm_loss[-1]:.6g}")
    click.echo(f"wrote {out_path}")
    click.echo(f"wrote {losses_path}")


@main.command("eval")
@click.option("--model", "model_path", type=click.Path(path_type=Path), required=True)
@click.option("--data", "data_dir", type=click.Path(path_type=Path), required=True)
@click.option("--report", "report_path", type=click.Path(path_type=Path),
              required=True)
@click.option("--baselines", is_flag=True,
              help="Also score CNN-only and KRR on the same split.")
@_handle_errors
def eval_cmd(model_path, data_dir, report_path, baselines):
    """Score a checkpoint on the held-out partition; write JSON + trajectory."""
    io.check_output(report_path)
    traj_path = io.check_output(Path(report_path).with_suffix(".trajectory.csv"))
    sessions = _load_sessions(data_dir)
    _, _, split = evaluation.partition(sessions)
    _banner(
        "eval",
        model=str(model_path),
        data=str(data_dir),
        split=split.split(":")[0],
        report=str(report_path),
        baselines=baselines,
    )
    model = io.load_model(model_path)
    reports = evaluation.evaluate_model(model, sessions, baselines=baselines)
    io.write_report(reports, report_path)
    io.write_trajectory(reports[0], traj_path)
    for report in reports:
        scores = ", ".join(f"{e['name']}={e['r2']:.4f}" for e in report.dof)
        click.echo(f"{report.model}: {scores}")
    click.echo(f"wrote {report_path}")
    click.echo(f"wrote {traj_path}")


@main.command("sweep")
@click.option("--what", type=click.Choice(["timesteps", "matrixmode"]),
              required=True)
@click.option("--config", "config_path", type=click.Path(exists=True, path_type=Path),
              default=None)
@click.option("--data", "data_dir", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@click.option("--desk", is_flag=True, help="Desk-scale epoch preset (CNN 5, LSTM 10).")
@click.option("--seed", type=int, default=None)
@_handle_errors
def sweep_cmd(what, config_path, data_dir, out_dir, desk, seed):
    """Run the k sweep or the spectral/temporal comparison; write reports."""
    if what == "timesteps":
        names = [f"k{k}" for k in evaluation.DEFAULT_K_SWEEP]
    else:
        names = list(MATRIX_MODES)
    io.check_output(out_dir, directory=True)
    for path in [*(out_dir / f"{name}.json" for name in names), out_dir / "summary.csv"]:
        io.check_output(path)
    sessions = _load_sessions(data_dir)
    cfg = _resolve_config(config_path, desk, {"seed": seed})
    _banner(
        "sweep",
        what=what,
        config=cfg.to_dict(),
        protocol=sessions[0].protocol,
        data=str(data_dir),
        out=str(out_dir),
    )
    if what == "timesteps":
        reports = evaluation.sweep_timesteps(cfg, sessions)
    else:
        reports = evaluation.compare_matrix_modes(cfg, sessions)
    for name, report in zip(names, reports, strict=True):
        path = io.write_report(report, out_dir / f"{name}.json")
        click.echo(f"wrote {path}")
    summary_path = io.atomic_write_text(out_dir / "summary.csv", _summary_csv(names, reports))
    click.echo(f"wrote {summary_path}")


def _summary_csv(names: list[str], reports) -> str:
    """One row per variant: its settings, runtime and R² per P4 DoF (blank
    for a DoF the protocol does not move), in ``io.csv_text``'s layout."""
    dofs = PROTOCOL_DOFS["P4"]
    scores = [{e["name"]: e["r2"] for e in report.dof} for report in reports]
    columns = [
        names,
        [report.k for report in reports],
        [report.matrix_mode for report in reports],
        [report.input_len for report in reports],
        [report.runtime_s for report in reports],
        [sum(by_dof.values()) / len(by_dof) for by_dof in scores],
        *([by_dof.get(dof, "") for by_dof in scores] for dof in dofs),
    ]
    header = "variant,k,matrix_mode,input_len,runtime_s,r2_mean,"
    return io.csv_text(header + ",".join(f"r2_{dof}" for dof in dofs), columns)


if __name__ == "__main__":
    main()
