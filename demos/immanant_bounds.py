"""Immanants, their directional derivatives, and sharp norm bounds.

Run as ``python3 demos/immanant_bounds.py``.
"""

import numpy as np

from kchi import (
    Partition,
    degree,
    dk_immanant,
    dk_immanant_bound,
    immanant,
    immanant_bound_verify,
    partitions_of,
    perturbation_bounds,
    polar,
    random_matrix,
    sample_rng,
    singular_values,
)


def immanant_family():
    rng = sample_rng(3, 0)
    a = random_matrix(3, rng)
    print("one matrix, every immanant of size 3:")
    for chi in partitions_of(3):
        value = immanant(chi, a)
        print(f"  chi={chi}: {value:.6f}")
    print(f"  (det check: {np.linalg.det(a):.6f})")


def derivative_bounds():
    print("\nderivative norms against the closed-form bound:")
    rng = sample_rng(4, 0)
    a = random_matrix(3, rng)
    nu = singular_values(a)
    for chi in partitions_of(3):
        for k in (1, 2):
            report = immanant_bound_verify(chi, a, k, samples=300, seed=4)
            print(
                f"  chi={chi}, k={k}: bound {report.bound_value:9.4f}   "
                f"sampled sup {report.sample_sup:9.4f}   ok={report.ok}"
            )
    print("  the determinant bound is attained exactly at the unitary polar factor:")
    chi = Partition((1, 1, 1))
    _, w = polar(a)
    attained = abs(dk_immanant(chi, a, [w.conj().T]))
    print(f"  |D det(A)(W*)| = {attained:.6f} = bound {dk_immanant_bound(chi, 1, nu):.6f}")


def strictness():
    print("\nthe bound can be strict: permanent at diag(1, 0):")
    a = np.diag([1.0, 0.0])
    chi = Partition((2,))
    report = immanant_bound_verify(chi, a, 1, samples=5000, seed=0)
    print(
        f"  bound {report.bound_value:.4f}, sampled sup {report.sample_sup:.4f} "
        f"(the true supremum is 1)"
    )


def perturbations():
    print("\nLipschitz-type perturbation bounds, chi(1) times the Taylor tail:")
    rng = sample_rng(5, 0)
    a = random_matrix(3, rng)
    nu = singular_values(a)
    chi = Partition((2, 1))
    for delta in (0.01, 0.1, 1.0):
        bound = degree(chi) * perturbation_bounds(chi, nu, delta)
        print(f"  delta={delta:5.2f}: |d(A) - d(A+X)| <= {bound:.6f}")
    change = abs(immanant(chi, 2 * np.eye(3)) - immanant(chi, np.eye(3)))
    bound = degree(chi) * perturbation_bounds(chi, (1.0,) * 3, 1.0)
    print(f"  equality at A = I, X = I: |d(2I) - d(I)| = {change:.6f} = bound {bound:.6f}")


if __name__ == "__main__":
    immanant_family()
    derivative_bounds()
    strictness()
    perturbations()
