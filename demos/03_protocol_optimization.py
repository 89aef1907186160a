"""Optimal squeeze/measure split of a fixed time budget.

Two views of the same question — how much of the available time should be
spent squeezing before switching to signal acquisition:

1. the strong-squeezing closed form U* = (alpha/e - 1)/(alpha/e), and
2. the full squeeze-then-measure SNR maximized over (T, t) with a fixed
   total budget: the best of a few stationary points (inside the budget
   box the fraction T/(T + t) is (c - 1)/c, c = J N P s e^{-4 Gamma s},
   s = T + t).

The optimum lands near 4 Gamma (T + t) ~ 1: the protocol uses about one
depolarization time in total, and there c ~ alpha/e, so T*/(T* + t*)
sits at U*.
"""

import math

from tactsqueeze import analytic, optimize


def main():
    print("closed-form split in the strong regime:")
    print(f"{'alpha':>8} {'U*':>10} {'improvement':>12}")
    for alpha in (5.0, 10.0, 50.0, 200.0):
        out = optimize.optimal_u(alpha)
        gain = analytic.improvement_factor(alpha)
        print(f"{alpha:8.1f} {out.argmax:10.6f} {gain:12.4f}")

    print("\nfull (T, t) budget split (alpha = 50):")
    n, p, gamma = 200, 1.0, 0.25
    alpha = 50.0
    j = 4 * gamma * alpha / (n * p)
    out = optimize.optimal_split_full(j, n, p, gamma, tau_budget=4.0)
    t_sq, t_sig = out.argmax
    window = 4 * gamma * (t_sq + t_sig)
    print(f"  T* = {t_sq:.4f}, t* = {t_sig:.4f}, SNR = {out.value:.4f}")
    near_unit = "  (near-unit window)" if out.diagnostics["near_unit_window"] else ""
    print(f"  4 Gamma (T* + t*) = {window:.4f}{near_unit}")
    print(f"  squeeze fraction T*/(T*+t*) = {t_sq / (t_sq + t_sig):.4f} "
          f"vs closed-form U* = {optimize.optimal_u(alpha).argmax:.4f}")
    print(f"  improvement over baseline: "
          f"{analytic.improvement_factor(alpha):.2f}x "
          f"(= exp(alpha/e)/alpha = {math.exp(alpha / math.e) / alpha:.2f})")


if __name__ == "__main__":
    main()
