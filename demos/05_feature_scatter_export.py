"""Export 2-D scatters of deep vs handcrafted features for plotting.

Trains the CNN stage only, projects its 20-dim deep features to 2-D, and
does the same for the handcrafted MAV/RMS/VAR/AR vectors after PCA. The
CSVs (x, y, angle, dof, feature_kind) can be plotted with any tool.
"""
from pathlib import Path

from emgkin import features, io
from emgkin.config import PipelineConfig, desk_preset
from emgkin.evaluation import split_session
from emgkin.synth import SynthConfig, generate
from emgkin.training import preprocess_training, train_cnn

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

rec = generate(SynthConfig(protocol="P1", duration_s=60.0, seed=1))
config = desk_preset(PipelineConfig(protocol="P1", seed=1))
train_raw, _ = split_session(rec)

_, scaler, windows, x, y = preprocess_training(train_raw, config)
cnn, _ = train_cnn(
    x,
    y,
    config.cnn,
    seed=config.seed,
    leaky_slope=config.leaky_slope,
    dropout=config.dropout,
)
deep = cnn.extract(x)
angles = scaler.inverse(y)

deep_2d = features.project_2d(deep)
io.export_feature_scatter(
    out_dir / "deep_features.csv", deep_2d, angles, train_raw.dof_names, "deep"
)

hand = features.extract_feature_matrix(windows)
basis = features.fit_pca(hand)
hand_2d = features.project_2d(basis.project(hand))
io.export_feature_scatter(
    out_dir / "handcrafted_features.csv",
    hand_2d,
    angles,
    train_raw.dof_names,
    "handcrafted",
)

for kind, proj in (("deep", deep_2d), ("handcrafted", hand_2d)):
    spread = proj.std(axis=0)
    print(f"{kind}: {proj.shape[0]} points, axis spread ({spread[0]:.3f}, {spread[1]:.3f})")
print(f"wrote {out_dir}/deep_features.csv and {out_dir}/handcrafted_features.csv")
