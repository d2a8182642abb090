"""Command-line entry point: synth gen / train / eval / sweep.

Every command echoes an ``effective-config:`` banner (one JSON line with all
resolved values) so any run can be reproduced from its log. Exit codes:
0 success, 1 runtime failure (e.g. divergence), 2 usage/config/data error.
``EMGKIN_THREADS`` caps sweep worker threads (default 1 for strict
reproducibility). The timesteps sweep trains one CNN shared by every k and
one LSTM per k; the matrix-mode sweep trains a whole model per mode.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import evaluation, io, synth, training
from .config import (
    PipelineConfig,
    desk_preset,
    load_config,
    merge_overrides,
)
from .dsp import SemgRecording
from .errors import ConfigError, EmgkinError, LoadError
from .evaluation import SplitPlan

PROTOCOLS = ("P1", "P2", "P3", "P4")


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, LoadError) as exc:
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


def _workers() -> int:
    raw = os.environ.get("EMGKIN_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"EMGKIN_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise ConfigError(f"EMGKIN_THREADS must be >= 1, got {value}")
    return value


def _load_sessions(data_dir: Path) -> list[SemgRecording]:
    data_dir = Path(data_dir)
    if not data_dir.exists():
        raise LoadError(f"data directory {data_dir} does not exist")
    dirs = io.list_session_dirs(data_dir)
    if not dirs:
        raise LoadError(f"no session (emg.csv) found under {data_dir}")
    return [io.load_session(d) for d in dirs]


def _resolve_config(
    config_path: Path | None,
    desk: bool,
    protocol: str,
    overrides: dict,
) -> PipelineConfig:
    cfg = load_config(config_path) if config_path else PipelineConfig()
    cfg = merge_overrides(cfg, {**overrides, "protocol": protocol})
    if desk:
        cfg = desk_preset(cfg)
    return cfg


@click.group()
@click.version_option("0.1.0", prog_name="emgkin")
def main():
    """sEMG-to-wrist-angle regression: CNN-LSTM hybrid pipeline."""


@main.group("synth")
def synth_group():
    """Synthetic session generation."""


@synth_group.command("gen")
@click.option(
    "--protocol", type=click.Choice(PROTOCOLS), default="P1", show_default=True
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
@click.option("--split", type=click.Choice(["intra", "inter"]), default="intra",
              show_default=True,
              help="intra: train on folds 1-3; inter: train on full session A.")
@click.option("--desk", is_flag=True, help="Desk-scale epoch preset (CNN 5, LSTM 10).")
@click.option("--seed", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--matrix-mode", type=click.Choice(["spectral", "temporal"]),
              default=None)
@_handle_errors
def train_cmd(config_path, data_dir, out_path, split, desk, seed, k, matrix_mode):
    """Run both training stages; write checkpoint + loss-history CSV."""
    sessions = _load_sessions(data_dir)
    cfg = _resolve_config(
        config_path,
        desk,
        sessions[0].protocol,
        {"seed": seed, "k": k, "matrix_mode": matrix_mode},
    )
    _banner(
        "train",
        config=cfg.to_dict(),
        data=str(data_dir),
        out=str(out_path),
        split=split,
    )
    if split == "intra":
        train_raw, _ = evaluation.split_session(sessions[0])
    else:
        train_raw = sessions[0]
    run = training.train_hybrid(train_raw, cfg)
    io.save_model(run.model, out_path)
    losses_path = io.write_losses(
        Path(out_path).with_suffix(".losses.csv"), run.cnn_loss, run.lstm_loss
    )
    click.echo(f"final cnn loss {run.cnn_loss[-1]:.6g}")
    click.echo(f"final lstm loss {run.lstm_loss[-1]:.6g}")
    click.echo(f"wrote {out_path}")
    click.echo(f"wrote {losses_path}")


@main.command("eval")
@click.option("--model", "model_path", type=click.Path(path_type=Path), required=True)
@click.option("--data", "data_dir", type=click.Path(path_type=Path), required=True)
@click.option("--split", type=click.Choice(["intra", "inter"]), default="intra",
              show_default=True)
@click.option("--report", "report_path", type=click.Path(path_type=Path),
              required=True)
@click.option("--baselines", is_flag=True,
              help="Also score CNN-only and KRR on the same split.")
@_handle_errors
def eval_cmd(model_path, data_dir, split, report_path, baselines):
    """Score a checkpoint on the held-out partition; write JSON + trajectory."""
    _banner(
        "eval",
        model=str(model_path),
        data=str(data_dir),
        split=split,
        report=str(report_path),
        baselines=baselines,
    )
    model = io.load_model(model_path)
    sessions = _load_sessions(data_dir)
    if split == "intra":
        if len(sessions) != 1:
            raise ConfigError(
                f"intra-session eval takes exactly one session, found {len(sessions)}"
            )
        train_raw, test_raw = evaluation.split_session(sessions[0])
        plan = SplitPlan(mode="intra")
    else:
        if len(sessions) < 2:
            raise ConfigError(
                f"inter-session eval needs two sessions, found {len(sessions)}"
            )
        train_raw, test_raw = sessions[0], sessions[1]
        plan = SplitPlan(mode="inter")
    reports = evaluation.evaluate_model(
        model, train_raw, test_raw, plan, baselines=baselines
    )
    report_path = Path(report_path)
    if len(reports) == 1:
        io.write_report(reports[0], report_path)
    else:
        io.atomic_write_text(
            report_path,
            json.dumps([r.to_dict() for r in reports], indent=2) + "\n",
        )
    traj_path = io.write_trajectory(
        reports[0], report_path.with_suffix(".trajectory.csv")
    )
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
    workers = _workers()
    sessions = _load_sessions(data_dir)
    cfg = _resolve_config(config_path, desk, sessions[0].protocol, {"seed": seed})
    _banner(
        "sweep",
        what=what,
        config=cfg.to_dict(),
        data=str(data_dir),
        out=str(out_dir),
        workers=workers,
    )
    if len(sessions) >= 2:
        data = (sessions[0], sessions[1])
        plan = SplitPlan(mode="inter")
    else:
        data = sessions[0]
        plan = SplitPlan(mode="intra")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if what == "timesteps":
        reports = evaluation.sweep_timesteps(
            cfg, data, plan=plan, max_workers=workers
        )
        names = [f"k{r.k}" for r in reports]
    else:
        reports = evaluation.compare_matrix_modes(
            cfg, data, plan=plan, max_workers=workers
        )
        names = [r.matrix_mode for r in reports]
    for name, report in zip(names, reports):
        path = io.write_report(report, out_dir / f"{name}.json")
        click.echo(f"wrote {path}")
    summary = _summary_csv(names, reports)
    summary_path = out_dir / "summary.csv"
    io.atomic_write_text(summary_path, summary)
    click.echo(f"wrote {summary_path}")


def _summary_csv(names: list[str], reports) -> str:
    lines = ["variant,k,matrix_mode,input_len,runtime_s,r2_mean,r2_fe,r2_ps,r2_ru"]
    for name, report in zip(names, reports):
        by_dof = {e["name"]: e["r2"] for e in report.dof}
        mean = sum(by_dof.values()) / len(by_dof)
        cells = [
            name,
            str(report.k),
            report.matrix_mode,
            str(report.input_len),
            f"{report.runtime_s:.3f}",
            f"{mean:.6f}",
        ]
        cells += [
            f"{by_dof[dof]:.6f}" if dof in by_dof else ""
            for dof in ("fe", "ps", "ru")
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
