"""Train the two-stage hybrid on one synthetic session and score it.

Uses the desk epoch preset (CNN 5 epochs, LSTM 10) so the whole thing takes
well under a minute on a laptop. Outputs land in ./demo_out/.
"""
from pathlib import Path

from emgkin import io
from emgkin.config import PipelineConfig, desk_preset
from emgkin.evaluation import SplitPlan, evaluate_model, split_session
from emgkin.synth import SynthConfig, generate
from emgkin.training import train_hybrid

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

rec = generate(SynthConfig(protocol="P1", duration_s=60.0, seed=1))
config = desk_preset(PipelineConfig(protocol="P1", seed=1))

# folds 1-3 train, fold 4 tests; the split happens on raw samples so the
# test partition sees its own fresh filter transients
train_raw, test_raw = split_session(rec)
run = train_hybrid(train_raw, config)
reports = evaluate_model(run.model, train_raw, test_raw, SplitPlan(), baselines=True)
for report in reports:
    scores = ", ".join(f"{e['name']} R2={e['r2']:.4f}" for e in report.dof)
    print(f"{report.model:>8}: {scores}  ({report.runtime_s:.1f}s)")

# persist the hybrid for later use and dump the full report + trajectory
ckpt = io.save_model(run.model, out_dir / "p1_demo.ckpt")
io.write_losses(out_dir / "p1_demo.losses.csv", run.cnn_loss, run.lstm_loss)
io.write_report(reports[0], out_dir / "p1_demo.report.json")
io.write_trajectory(reports[0], out_dir / "p1_demo.trajectory.csv")
print(f"checkpoint -> {ckpt}")
print(f"reload check: k={io.load_model(ckpt).k}, dofs={io.load_model(ckpt).dof_names}")
