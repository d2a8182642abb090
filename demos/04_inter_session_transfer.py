"""Intra- vs inter-session accuracy on a synthetic session pair.

Session B re-draws the noise and perturbs per-channel gains (electrode
re-donning), so a model trained on session A faces a domain shift.
"""
from emgkin.config import PipelineConfig, desk_preset
from emgkin.evaluation import SplitPlan, run_evaluation
from emgkin.synth import SynthConfig, generate_session_pair

session_a, session_b = generate_session_pair(
    SynthConfig(protocol="P1", duration_s=60.0, seed=1)
)
config = desk_preset(PipelineConfig(protocol="P1", seed=1))

intra = run_evaluation(config, session_a, baselines=False)[0]

inter = run_evaluation(
    config, [session_a, session_b], plan=SplitPlan(mode="inter"), baselines=False
)[0]

r2_intra = intra.r2_of("fe")
r2_inter = inter.r2_of("fe")
print(f"intra-session ({intra.split}): R2 {r2_intra:.4f}")
print(f"inter-session ({inter.split}): R2 {r2_inter:.4f}")
print(f"transfer cost: {r2_intra - r2_inter:+.4f}")
