"""The chi matrix of the Molmer-Sorensen gate, and what over-rotation does.

The process matrix chi describes a quantum map in the two-qubit Pauli-product
basis: E(rho) = sum_mn chi[m,n] P_n rho P_m^dag.  For the ideal entangling
gate U = exp(-i pi/4 XX) only four elements are nonzero; when the gate angle
over-rotates to theta = 1.04 rad the fidelity against the ideal gate drops as
cos^2(theta - pi/4).
"""
import math

import numpy as np

from ionqpt.process import process_fidelity, unitary_to_chi
from ionqpt.qmath import matrix_exponential, pauli_labels_2q, two_qubit_pauli_basis

XX = two_qubit_pauli_basis()[5]
labels = pauli_labels_2q()


def ms_chi(theta):
    return unitary_to_chi(matrix_exponential(XX, theta))


def main():
    chi = ms_chi(math.pi / 4).chi
    print("Nonzero elements of the ideal MS chi (|.| > 1e-12):")
    for m, n in np.argwhere(np.abs(chi) > 1e-12):
        print(f"  chi[{labels[m]},{labels[n]}] = {chi[m, n]:+.3f}")

    print("\nProcess fidelity of an over-rotated gate versus the ideal:")
    ideal = ms_chi(math.pi / 4)
    print(f"  {'theta':>8}  {'F_p':>8}  {'cos^2(theta-pi/4)':>18}")
    for theta in (math.pi / 4, 0.9, 1.04, 1.2):
        f = process_fidelity(ms_chi(theta), ideal)
        oracle = math.cos(theta - math.pi / 4) ** 2
        print(f"  {theta:8.4f}  {f:8.5f}  {oracle:18.5f}")

    print("\nAn over-rotation to theta+ = 1.04 costs "
          f"{100 * (1 - math.cos(1.04 - math.pi / 4) ** 2):.1f}% gate error.")


if __name__ == "__main__":
    main()
