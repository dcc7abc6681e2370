"""Brute-force reference implementations used as independent oracles.

Everything here evaluates defining sums by explicit index loops; none of
it shares FFT code paths with the library.  Sizes are kept tiny (n <= 9
at d = 1, n = 3 at d = 2), so O(n^4) loops are fine.  The exceptions are
the averaged-scheme references at the end, which loop over the library's
single-node ``quantize`` (or, for Born-Jordan, apply the sinc multiplier
to the symbol), independently of its averaged phase tables.
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


# ---------------------------------------------------------------------------
# weight-condition constants, one phase-space pair (or tuple) at a time


def phase_points(n, d):
    """Physical (x, xi) of every point of Z_n^d x Z_n^d: centered
    representatives, scale 1 on positions and 2 pi / n on frequencies."""
    pts = []
    for i in range(n ** d):
        x = np.array([rep(c, n) for c in coords(i, n, d)], float)
        for k in range(n ** d):
            xi = 2 * np.pi / n * np.array([rep(c, n) for c in coords(k, n, d)], float)
            pts.append((x, xi))
    return pts


def _cat(*parts):
    return np.concatenate(parts)


def naive_moderate(omega, v, n, d):
    """max over X, Y of omega(X + Y) / (omega(X) v(Y)), 2-block weights."""
    pts = [_cat(x, xi) for x, xi in phase_points(n, d)]
    return max(omega.evaluate(X + Y) / (omega.evaluate(X) * v.evaluate(Y))
               for X in pts for Y in pts)


def naive_kernel_bound(omega, omega1, omega2, n, d):
    """max of omega2(x, xi) / (omega1(y, eta) omega(x, y, xi, -eta))."""
    pts = phase_points(n, d)
    return max(omega2.evaluate(_cat(x, xi))
               / (omega1.evaluate(_cat(y, eta)) * omega.evaluate(_cat(x, y, xi, -eta)))
               for x, xi in pts for y, eta in pts)


def naive_kernel_symbol_equiv(omega, omega0, A, n, d):
    """Larger of the two one-sided constants between omega(x, y, xi, eta)
    and omega0(x - A(x-y), A*xi - (I-A*)eta, xi + eta, y - x)."""
    A = np.asarray(A, float).reshape(d, d)
    I = np.eye(d)
    pts = phase_points(n, d)
    best = 0.0
    for x, xi in pts:
        for y, eta in pts:
            lhs = omega.evaluate(_cat(x, y, xi, eta))
            rhs = omega0.evaluate(_cat(x - A @ (x - y), A.T @ xi - (I - A.T) @ eta,
                                       xi + eta, y - x))
            best = max(best, lhs / rhs, rhs / lhs)
    return best


def _symbol_arg(A, x, xi, y, eta):
    """(x - A(x-y), A*xi + (I-A*)eta, xi - eta, y - x)."""
    I = np.eye(len(x))
    return _cat(x - A @ (x - y), A.T @ xi + (I - A.T) @ eta, xi - eta, y - x)


def naive_wigner_bound(omega0, omega1, omega2, A, n, d):
    """max of omega0(symbol arg) / (omega1(x, xi) omega2(y, eta))."""
    A = np.asarray(A, float).reshape(d, d)
    pts = phase_points(n, d)
    return max(omega0.evaluate(_symbol_arg(A, x, xi, y, eta))
               / (omega1.evaluate(_cat(x, xi)) * omega2.evaluate(_cat(y, eta)))
               for x, xi in pts for y, eta in pts)


def naive_op_bound(omega0, omega1, omega2, A, n, d):
    """max of omega2(x, xi) / (omega1(y, eta) omega0(symbol arg))."""
    A = np.asarray(A, float).reshape(d, d)
    pts = phase_points(n, d)
    return max(omega2.evaluate(_cat(x, xi))
               / (omega1.evaluate(_cat(y, eta)) * omega0.evaluate(_symbol_arg(A, x, xi, y, eta)))
               for x, xi in pts for y, eta in pts)


def naive_composition_bound(weights, A, n, d):
    """1 / min over tuples (X_0..X_N) of
    omega_0(T(X_N, X_0)) prod_j omega_j(T(X_j, X_{j-1})), where
    T((x, xi), (y, eta)) = (y + A(x-y), xi + A*(eta-xi), eta - xi, x - y)."""
    import itertools

    A = np.asarray(A, float).reshape(d, d)

    def T(X, Y):
        (x, xi), (y, eta) = X, Y
        return _cat(y + A @ (x - y), xi + A.T @ (eta - xi), eta - xi, x - y)

    N = len(weights) - 1
    worst = np.inf
    for Xs in itertools.product(phase_points(n, d), repeat=N + 1):
        prod = weights[0].evaluate(T(Xs[N], Xs[0]))
        for j in range(1, N + 1):
            prod *= weights[j].evaluate(T(Xs[j], Xs[j - 1]))
        worst = min(worst, prod)
    return 1.0 / worst


# ---------------------------------------------------------------------------
# averaged schemes as literal sums of single-node quantizations


def orthogonal_nodes(d, angle_nodes):
    """Equal-weight Haar nodes on O(d): {+1, -1} at d = 1; at d = 2,
    ``angle_nodes`` rotations and as many reflections, each of weight
    1 / (2 angle_nodes)."""
    if d == 1:
        return [(np.array([[1.0]]), 0.5), (np.array([[-1.0]]), 0.5)]
    nodes = []
    for j in range(angle_nodes):
        c, s = np.cos(2 * np.pi * j / angle_nodes), np.sin(2 * np.pi * j / angle_nodes)
        nodes.append((np.array([[c, -s], [s, c]]), 0.5 / angle_nodes))
        nodes.append((np.array([[c, s], [s, -c]]), 0.5 / angle_nodes))
    return nodes


def literal_un_avg(a, r, angle_nodes):
    """sum_U w_U quantize(a, r U + I/2), one quantize per node."""
    from psdo import quantize

    d = a.grid.d
    acc = np.zeros(a.data.shape, complex)
    for U, w in orthogonal_nodes(d, angle_nodes):
        acc += w * quantize(a, r * U + 0.5 * np.eye(d)).data
    return acc


def literal_un_avg_time(a, r, t_nodes, angle_nodes):
    """(1/r) times the Gauss-Legendre sum over t in [0, r] of
    :func:`literal_un_avg` at radius t."""
    x, w = np.polynomial.legendre.leggauss(t_nodes)
    acc = np.zeros(a.data.shape, complex)
    for xi, wi in zip(x, w):
        acc += (0.5 * wi) * literal_un_avg(a, 0.5 * r * (xi + 1.0), angle_nodes)
    return acc


def literal_bj_quadrature(a, nodes):
    """The Gauss-Legendre sum over t in [0, 1] of quantize(a, t I), one
    quantize per node."""
    from psdo import quantize

    x, w = np.polynomial.legendre.leggauss(nodes)
    acc = np.zeros(a.data.shape, complex)
    for xi, wi in zip(x, w):
        acc += (0.5 * wi) * quantize(a, 0.5 * (xi + 1.0) * np.eye(a.grid.d)).data
    return acc


def multiplier_born_jordan(a):
    """Born-Jordan as the Weyl quantization of the symbol whose two-block
    DFT is multiplied by sinc(pi <rep kappa, rep mu>/n)."""
    from psdo import Signal, Symbol, dft, idft, quantize
    from psdo.grid import doubled, rep_coords
    from psdo.schemes import bj_multiplier

    grid = a.grid
    D = doubled(grid)
    reps = rep_coords(grid).astype(float)
    ahat = dft(Signal(D, a.data.ravel())).data.reshape(a.data.shape)
    ahat *= bj_multiplier(2 * np.pi * (reps @ reps.T) / grid.n)
    return quantize(Symbol(grid, idft(Signal(D, ahat.ravel())).data.reshape(ahat.shape)), 0.5).data
