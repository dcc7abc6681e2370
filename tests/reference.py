"""Brute-force reference implementations used as independent oracles.

Everything here evaluates defining sums by explicit index loops; none of
it shares FFT code paths with the library.  Sizes are kept tiny (n <= 9
at d = 1, n = 3 at d = 2), so O(n^4) loops are fine.
"""

import numpy as np


def rep(k, n):
    return (int(k) + (n - 1) // 2) % n - (n - 1) // 2


def naive_dft(f):
    n = len(f)
    out = np.zeros(n, complex)
    for k in range(n):
        for j in range(n):
            out[k] += f[j] * np.exp(-2j * np.pi * j * k / n)
    return out / np.sqrt(n)


def naive_op0(b):
    """K[j, j'] = n^{-1} sum_k b(j, k) e^{2i pi (j - j') k / n}."""
    n = b.shape[0]
    K = np.zeros((n, n), complex)
    for j in range(n):
        for jp in range(n):
            for k in range(n):
                K[j, jp] += b[j, k] * np.exp(2j * np.pi * (j - jp) * k / n)
    return K / n


def naive_symbol_fourier(a):
    """ahat(kappa, mu) = n^{-1} sum_{x, xi} a(x, xi) e^{-2i pi (x kappa + xi mu)/n}."""
    n = a.shape[0]
    ahat = np.zeros((n, n), complex)
    for kap in range(n):
        for mu in range(n):
            for x in range(n):
                for xi in range(n):
                    ahat[kap, mu] += a[x, xi] * np.exp(-2j * np.pi * (x * kap + xi * mu) / n)
    return ahat / n


def naive_transfer(a, A, mode):
    """Double-sum evaluation of the transfer multiplier route."""
    n = a.shape[0]
    ahat = naive_symbol_fourier(a)
    out = np.zeros((n, n), complex)
    for j in range(n):
        for k in range(n):
            for kap in range(n):
                for mu in range(n):
                    if mode == "mod":
                        ph = np.exp(2j * np.pi * ((round(A) * mu * kap) % n) / n)
                    else:
                        ph = np.exp(2j * np.pi * A * rep(mu, n) * rep(kap, n) / n)
                    out[j, k] += ph * ahat[kap, mu] * np.exp(2j * np.pi * (j * kap + k * mu) / n)
    return out / n


def coords(flat, n, d):
    """Per-axis indices of a row-major flat index on Z_n^d."""
    return [(flat // n ** (d - 1 - i)) % n for i in range(d)]


def flat(c, n):
    """Row-major flat index of per-axis indices, each reduced mod n."""
    out = 0
    for ci in c:
        out = out * n + ci % n
    return out


def naive_stft(f, phi, d=1):
    """V(j, k) = n^{-d/2} sum_y f(y) conj(phi(y - j)) e^{-2i pi <y, k>/n}
    over flat indices of Z_n^d."""
    N = len(f)
    n = round(N ** (1 / d))
    V = np.zeros((N, N), complex)
    for j in range(N):
        cj = coords(j, n, d)
        for k in range(N):
            ck = coords(k, n, d)
            for y in range(N):
                cy = coords(y, n, d)
                shifted = flat([cy[i] - cj[i] for i in range(d)], n)
                dot = sum(cy[i] * ck[i] for i in range(d))
                V[j, k] += f[y] * np.conj(phi[shifted]) * np.exp(-2j * np.pi * dot / n)
    return V / np.sqrt(N)


def naive_wigner_mod(f1, f2, A):
    n = len(f1)
    W = np.zeros((n, n), complex)
    for j in range(n):
        for k in range(n):
            for y in range(n):
                W[j, k] += (f1[(j + A * y) % n] * np.conj(f2[(j + (A - 1) * y) % n])
                            * np.exp(-2j * np.pi * y * k / n))
    return W / np.sqrt(n)


def naive_phase_space_stft(F, Phi):
    """4d STFT over Z_n^2 of an (n, n) array, axes (x, xi, eta, y)."""
    n = F.shape[0]
    V = np.zeros((n, n, n, n), complex)
    for x in range(n):
        for xi in range(n):
            for eta in range(n):
                for y in range(n):
                    acc = 0.0j
                    for u in range(n):
                        for v in range(n):
                            acc += (F[u, v] * np.conj(Phi[(u - x) % n, (v - xi) % n])
                                    * np.exp(-2j * np.pi * (u * eta + v * y) / n))
                    V[x, xi, eta, y] = acc / n
    return V


def naive_fourier_multiplier_op(h, n):
    """Matrix of F^{-1} diag(h) F on Z_n by direct summation."""
    K = np.zeros((n, n), complex)
    for j in range(n):
        for jp in range(n):
            for k in range(n):
                K[j, jp] += h[k] * np.exp(2j * np.pi * (j - jp) * k / n)
    return K / n
