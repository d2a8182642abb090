"""Generate a synthetic recording and walk it through the preprocessing stack.

Run from anywhere: python3 demos/01_synthetic_session.py
"""
import numpy as np

from emgkin import dsp
from emgkin.synth import SynthConfig, generate

rec = generate(SynthConfig(protocol="P1", duration_s=30.0, seed=0))
print(f"protocol {rec.protocol}, DoFs {rec.dof_names}")
print(f"emg {rec.emg.shape} @ {rec.fs_emg:g} Hz, angles {rec.angles.shape} @ {rec.fs_ang:g} Hz")

# the raw signal carries a 50 Hz mains component; the filter chain removes it
def mains_power(signal, fs):
    spectrum = np.abs(np.fft.rfft(signal))
    freqs = np.fft.rfftfreq(len(signal), 1.0 / fs)
    return spectrum[np.argmin(np.abs(freqs - 50.0))]

filtered = dsp.apply_filter_chain(rec)
before = mains_power(rec.emg[:, 0], rec.fs_emg)
after = mains_power(filtered.emg[:, 0], rec.fs_emg)
print(f"50 Hz magnitude on ch1: {before:.2f} raw -> {after:.4f} filtered "
      f"({20 * np.log10(after / before):.0f} dB)")

stats = dsp.fit_normalizer(filtered)
normed = dsp.apply_normalizer(stats, filtered)
print(f"after min-max scaling: ch1 range [{normed.emg[:, 0].min():.3f}, "
      f"{normed.emg[:, 0].max():.3f}]")

# 100 ms windows, 50 ms overlap, label taken at the window end time
windows, labels, end_times = dsp.segment_windows(normed)
print(f"{len(windows)} windows of {windows[0].shape} samples x channels")

spectral = dsp.build_matrices(windows, "spectral")
temporal = dsp.build_matrices(windows, "temporal")
print(f"spectral input matrices {spectral.shape}, temporal {temporal.shape}")
print(f"first window label: {labels[0]} deg at t={end_times[0]:.3f}s")
