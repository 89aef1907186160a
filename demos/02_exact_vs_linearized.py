"""Exact dense evolution versus the Gaussian (Bogoliubov) engine.

Evolves N spins under noiseless two-axis counter-twisting with the dense
Lindblad oracle and compares the minimal transverse spin variance (scaled
to quadrature units) against the linearized prediction (1/2) e^{-2 kappa t}
with kappa = J N P.

The oracle's Hamiltonian is written in Pauli units and contracts at
PAULI_TACT_RATE_FACTOR * J N P.  The table shows the ratio under two
mappings side by side: the oracle driven at J itself, as the CLI's exact
paths do, and the oracle driven at J / PAULI_TACT_RATE_FACTOR, which
describes the same Hamiltonian as the Gaussian engine.
"""

from tactsqueeze import core, exact, linearized


def main():
    n, p, j = 8, 1.0, 1.0
    rho0 = exact.build_initial_state(n, p)
    kappa = j * n * p
    drives = {"J": j, "J/factor": j / core.PAULI_TACT_RATE_FACTOR}
    gens = {name: [exact.squeeze_generator(n, coupling)]
            for name, coupling in drives.items()}

    print(f"N = {n}, P = {p}, J = {j}, kappa = J N P = {kappa}, "
          f"PAULI_TACT_RATE_FACTOR = {core.PAULI_TACT_RATE_FACTOR}")
    print(f"{'kappa t':>8} {'gaussian':>10} "
          + " ".join(f"{'ratio @ ' + name:>16}" for name in drives))
    for kt in (0.01, 0.02, 0.05, 0.1, 0.2):
        t = kt / kappa
        state = linearized.bogoliubov_propagate(
            linearized.vacuum_state(kappa, n * p), t)
        gauss = linearized.min_variance_direction(state).variance
        ratios = []
        for gen in gens.values():
            min_var, _ = exact.collective_moments(
                exact.evolve(rho0, gen, t), n).transverse_extrema()
            ratios.append(min_var / (2 * n * p) / gauss)
        print(f"{kt:8.3f} {gauss:10.6f} "
              + " ".join(f"{r:16.3f}" for r in ratios))
    print("\nDriven at J, the oracle squeezes at four times the Gaussian rate:")
    print("it describes a different Hamiltonian, and the ratio drifts below 1.")
    print("Driven at J / PAULI_TACT_RATE_FACTOR, both sides describe one")
    print("Hamiltonian; the ratio stays within a few percent of 1, and the")
    print("remaining gap shrinks like 1/N (acceptance criterion 07).")


if __name__ == "__main__":
    main()
