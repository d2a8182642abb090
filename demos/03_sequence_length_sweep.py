"""How many feature steps should the LSTM look back over?

Sweeps the sequence length k over {8, 18, 58, 98} on one short session.
The CNN trains once; each k only retrains the LSTM stage on the same frozen
deep features, and every k is scored from one pass of that CNN over the
test fold.
"""
from emgkin.config import PipelineConfig, desk_preset
from emgkin.evaluation import sweep_timesteps
from emgkin.synth import SynthConfig, generate

rec = generate(SynthConfig(protocol="P1", duration_s=60.0, seed=1))
config = desk_preset(PipelineConfig(seed=1))

reports = sweep_timesteps(config, rec)

print(f"{'k':>4} {'sequences':>10} {'R2 (fe)':>9} {'runtime':>8}")
for report in reports:
    print(f"{report.k:>4} {len(report.timestamps):>10} "
          f"{report.r2_of('fe'):>9.4f} {report.runtime_s:>7.1f}s")
print("sequence count is windows minus k plus 1: longer memory trades "
      "coverage of the test fold for context")
