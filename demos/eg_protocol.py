# The covert entanglement-generation protocol, executed exactly at toy scale.
#
# Alice prepares (1/sqrt(T)) sum_m |m>|m>, encodes each message as a
# superposition of classical codewords, and sends it through n copies of the
# channel.  Bob decodes coherently, a controlled Uhlmann isometry decouples
# his leftover registers from the warden, and a Fourier trick on the retained
# message register turns the resulting GHZ state into an EPR pair -- which we
# then reproduce without any assistance by trying each Fourier branch as a
# standalone encoder/decoder pair.

import numpy as np

from covertq import channels as chn
from covertq import eg_toy as eg

code = eg.default_demo_code()
flat = [w for m in range(code.T) for w in code.words[m]]

print("noiseless channel, exact string decoder (self-target decoupling):")
rep = eg.eg_report(code, eg.noiseless_isometry(), *eg.exact_string_povm(flat),
                   mode="self-target")
print(f"  EPR fidelity           = {rep.fidelity:.9f}")
print(f"  GHZ trace distance     = {rep.traceDistanceGHZ:.2e}")
print(f"  branch fidelities      = {rep.perStepDiagnostics['branchFidelities']}")

print()
print("excitation channel gamma = 0.1, square-root-measurement decoder:")
V = chn.stinespring_from_kraus(chn.excitation_channel(0.1))
povm, abstain, _ = eg.decoding_povm(code, V)
rep = eg.eg_report(code, V, povm, abstain)
d = rep.perStepDiagnostics
print(f"  EPR fidelity           = {rep.fidelity:.6f} (best branch j = {rep.bestJ})")
print(f"  GHZ trace distance     = {rep.traceDistanceGHZ:.6f}")
print(f"  covert divergence      = {rep.covertDivergence:.6f}")
print(f"  mean branch fidelity   = {d['meanBranchFidelity']:.6f}")
# distance between the warden's marginal and the incoherent codebook
# average: the coherences inside each message's superposition survive the
# channel, so this is small but nonzero for noisy channels
print(f"  willie classical gap   = {d['willieClassicalGap']:.2e}")

# the warden's marginal only sees codeword populations, so shifting all
# phases of one message by a common constant changes nothing
base = eg.willie_marginal(code, V, povm, abstain)
from dataclasses import replace
shifted = replace(code, encode_phases=np.array([[0.9, 0.9], [-0.4, -0.4]]))
dev = np.max(np.abs(eg.willie_marginal(shifted, V, povm, abstain) - base))
print(f"  per-message phase dev  = {dev:.2e}")
