"""Closed-form error-rate expressions: Gaussian tail, the two-user BER
formulas (with the undetected-error mixture for the near user), and the
correctable-L block-error bound.
"""

import numpy as np

from grandnoma import (
    CHANNELS,
    TheoryInputs,
    ber_user1,
    ber_user2,
    bler_upper_bound,
    ebn0_to_sigma2,
    q_function,
)

print("Gaussian tail: Q(0) = %.3f, Q(1.2816) = %.4f, Q(3) = %.2e"
      % (q_function(0.0), q_function(1.2816), q_function(3.0)))

N, RATE = 128, 116 / 128
rng = np.random.default_rng(0)

print(f"\ntwo-user BER vs Eb/N0 (alpha1=0.25, P=1, N={N}, p_ue=1e-3):")
print(f"{'Eb/N0':>6} {'user1 awgn':>12} {'user1 rayleigh':>15} {'user2 awgn':>12} {'user2 rayleigh':>15}")
for ebn0_db in (0, 4, 8, 12, 16, 20):
    sigma2 = ebn0_to_sigma2(ebn0_db, RATE)
    rows = []
    for channel in CHANNELS:  # unit path loss; AWGN takes one exact sample
        inputs = TheoryInputs(alpha1=0.25, sigma2=sigma2, codeword_len=N, p_ue=1e-3,
                              channel=channel, path_loss=(1.0, 1.0))
        rows.append((ber_user1(inputs, rng), ber_user2(inputs, rng)))
    print(f"{ebn0_db:>6} {rows[0][0]:>12.3e} {rows[1][0]:>15.3e} "
          f"{rows[0][1]:>12.3e} {rows[1][1]:>15.3e}")

print("\nblock-error upper bound vs correctable bits L (N=128):")
print(f"{'BER':>8} " + " ".join(f"{f'L={l}':>10}" for l in (0, 1, 2, 4)))
for ber in (1e-4, 1e-3, 1e-2):
    bounds = [bler_upper_bound(ber, 128, l) for l in (0, 1, 2, 4)]
    print(f"{ber:>8.0e} " + " ".join(f"{b:>10.3e}" for b in bounds))

print("\nThe near-user mixture weights an interference-limited term by the")
print("undetected-error probability p_ue; feed the simulator's measured")
print("undetected_rate back in here to draw matched theory curves.")
