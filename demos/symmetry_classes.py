"""Building symmetry classes and the induced power map on them.

Run as ``python3 demos/symmetry_classes.py``.
"""

import numpy as np

from kchi import Partition, build_symmetry_class, k_chi_matrix, spectral_norm


def describe(chi, n):
    sc = build_symmetry_class(chi, n)
    print(f"\nchi={chi}, n={n}:")
    print(f"  ambient tensor space dimension: {n}^{sc.m} = {n**sc.m}")
    print(f"  class dimension                 : {sc.dim}")
    print(f"  surviving orbit representatives : {[str(a) for a in sc.delta_bar]}")
    print(f"  basis index set                 : {[str(a) for a in sc.delta_hat]}")
    v = sc.inclusion
    gap = spectral_norm(v.conj().T @ v - np.eye(sc.dim))
    print(f"  ||V*V - I|| = {gap:.2e}")
    return sc


def determinant_from_the_top_wedge():
    print("\nthe full alternating class is one-dimensional: the map is det")
    sc = build_symmetry_class(Partition((1, 1, 1)), 3)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    value = k_chi_matrix(sc, a)[0, 0]
    print(f"  K(A) = [{value:.6f}]   det(A) = {np.linalg.det(a):.6f}")


def multiplicativity():
    print("\nthe power map is multiplicative: K(AB) = K(A) K(B)")
    sc = build_symmetry_class(Partition((2, 1)), 3)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    gap = spectral_norm(k_chi_matrix(sc, a @ b) - k_chi_matrix(sc, a) @ k_chi_matrix(sc, b))
    print(f"  chi=(2,1), n=3: ||K(AB) - K(A)K(B)|| = {gap:.2e}")


if __name__ == "__main__":
    describe(Partition((1, 1)), 2)
    describe(Partition((2,)), 2)
    describe(Partition((2, 1)), 3)
    determinant_from_the_top_wedge()
    multiplicativity()
