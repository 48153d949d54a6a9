"""Reference answers computed with numpy and scipy only.

None of these functions imports the package under test. Each returns
what a correct program must answer for one generated input; the
workloads compare the program's outputs with them item by item.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

LABELS = ("A", "AIII", "AI", "BDI", "D", "DIII", "AII", "CII", "C", "CI")
KERNEL_CLASSES = ("AIII", "BDI", "CII")
EVEN_CLASSES = ("DIII", "AII", "CII", "C", "CI")
# structural defects below MEMBER_TOL are members, above NONMEMBER_TOL not
MEMBER_TOL = 1e-7
NONMEMBER_TOL = 1e-4
# classes of every real time-reversal symmetric bulk (real V or real
# chain): its decaying plane has a real frame, so a symmetric unitary
REAL_PLANE_CLASSES = {"A": "0", "AI": "0"}


def polar_unitary(W):
    """Closed form of the decaying Dirac unitary at energy zero: W* (W W*)^(-1/2)."""
    w, V = np.linalg.eigh(W @ W.conj().T)
    return W.conj().T @ (V @ np.diag(w ** -0.5) @ V.conj().T)


def dirac_gap(W, energy=0.0):
    return float(np.linalg.svd(W, compute_uv=False)[-1]) - abs(energy)


def schrodinger_gap(V, energy):
    return float(np.linalg.eigvalsh(V)[0]) - energy


def schrodinger_planes(V, energy):
    """Traces (psi, psi') of the solutions decaying to the right and to the left.

    Along each eigenvector v of V with eigenvalue mu the solutions are
    v exp(-+kappa t), kappa = sqrt(mu - E), with slopes -+kappa v.
    """
    mu, vecs = np.linalg.eigh(V)
    kappa = np.sqrt(mu - energy)
    return (np.vstack([vecs, -vecs * kappa[None, :]]),
            np.vstack([vecs, vecs * kappa[None, :]]))


def schrodinger_classification():
    """Ten-class result of a real potential's decaying plane.

    The plane has the real frame (I; -S), S = sqrt(V - E) positive
    definite, so its Leray unitary is the Cayley transform of S: a
    symmetric unitary whose spectrum lies strictly inside one half of the
    unit circle. It is therefore in A and AI (index 0 in both) and in no
    class that needs a real, hermitian, antisymmetric or particle-hole
    symmetric unitary.
    """
    return {label: ("0" if label in REAL_PLANE_CLASSES else None) for label in LABELS}


def _omega(h):
    O = np.zeros((2 * h, 2 * h))
    O[:h, h:] = np.eye(h)
    O[h:, :h] = -np.eye(h)
    return O


def _defects(U, label):
    """Largest defect of each structural relation that defines a class."""
    n = U.shape[0]
    herm = np.abs(U - U.conj().T).max()
    sym = np.abs(U - U.T).max()
    anti = np.abs(U + U.T).max()
    imag = np.abs(U.imag).max()
    rel = {
        "A": [0.0],
        "AIII": [herm],
        "AI": [sym],
        "BDI": [imag, sym],
        "D": [imag],
        "DIII": [imag, anti],
        "AII": [anti],
    }
    if label in rel:
        return rel[label]
    Om = _omega(n // 2)
    spl = np.abs(Om @ U - U.conj() @ Om).max()
    return {"C": [spl], "CII": [spl, herm], "CI": [spl, sym]}[label]


def member(U, label):
    """True, False, or None when a defect sits between the two cut-offs."""
    if label in EVEN_CLASSES and U.shape[0] % 2:
        return False
    worst = max(_defects(U, label))
    if worst <= MEMBER_TOL:
        return True
    if worst >= NONMEMBER_TOL:
        return False
    return None


def pfaffian_sign(M):
    """Sign of the Pfaffian of a real antisymmetric matrix via real Schur form.

    M = Z T Z^T with T block diagonal [[0, b_j], [-b_j, 0]], so
    Pf(M) = det(Z) * prod(b_j).
    """
    T, Z = sla.schur(np.asarray(M.real, dtype=float), output="real")
    n = M.shape[0]
    value = np.sign(np.linalg.det(Z))
    for j in range(0, n, 2):
        value *= np.sign(T[j, j + 1])
    return int(value)


def index_of(U, label):
    """Index string of a member unitary, as the classification prints it."""
    if label in KERNEL_CLASSES:
        evals = np.linalg.eigvalsh(0.5 * (U + U.conj().T))
        return str(int(np.count_nonzero(evals > 0.0)))
    if label == "D":
        return "+1" if np.linalg.det(U).real > 0 else "-1"
    if label == "DIII":
        return "+1" if pfaffian_sign(U) > 0 else "-1"
    return "0"


def classification(U):
    """{label: index string, or None for non-members} over the ten classes."""
    out = {}
    for label in LABELS:
        m = member(U, label)
        out[label] = None if m is False else ("?" if m is None else index_of(U, label))
    return out


def sum_rule(label, plus, minus, N):
    """Bulk relation between the indices of the two half-line planes."""
    if label in KERNEL_CLASSES:
        return int(plus) + int(minus) == N
    if label == "D":
        return int(plus) == (1 if N % 2 == 0 else -1) * int(minus)
    if label == "DIII":
        return int(plus) == (1 if (N // 2) % 2 == 0 else -1) * int(minus)
    return True


def relative_bound(label, left, right):
    """Protected zero modes between two bulk indices."""
    if label in KERNEL_CLASSES:
        return abs(int(right) - int(left))
    if label in ("D", "DIII"):
        return 0 if left == right else 1
    return 0


def _flat(W):
    N = W.shape[0]
    A = np.zeros((2 * N, 2 * N), dtype=complex)
    A[:N, N:] = W
    A[N:, :N] = W.conj().T
    return A


def _invariant_frames(M, first):
    """Orthonormal frames of M's invariant subspaces where ``first`` holds and not."""
    _, Z, k = sla.schur(M, output="complex", sort=first)
    _, Z2, k2 = sla.schur(M, output="complex", sort=lambda z: not first(z))
    return Z[:, :k], Z2[:, :k2]


def dirac_planes(W, energy=0.0):
    """Traces of the Dirac solutions decaying to the right and to the left.

    Solutions of the constant Dirac operator with mass coupling W at
    energy E obey psi' = B psi with B = i E sigma3 - [[0, W], [W*, 0]];
    they decay to the right along the invariant subspace with Re < 0.
    """
    N = W.shape[0]
    sigma3 = np.diag(np.concatenate([np.ones(N), -np.ones(N)]))
    return _invariant_frames(1j * energy * sigma3 - _flat(W), lambda z: z.real < 0)


def intersection_dim(F1, F2):
    """Dimension of span(F1) & span(F2) from the sines of principal angles.

    Sines resolve small angles that cosines round to 1. Returns None
    when an angle falls in the band (1e-10, 1e-6) where a near miss and
    an exact intersection cannot be told apart.
    """
    Q1 = np.linalg.qr(F1)[0]
    Q2 = np.linalg.qr(F2)[0]
    sines = np.linalg.svd(Q2 - Q1 @ (Q1.conj().T @ Q2), compute_uv=False)
    if np.any((sines > 1e-10) & (sines < 1e-6)):
        return None
    return int(np.count_nonzero(sines <= 1e-10))


def dirac_zero_modes(W_left, W_right, energy=0.0):
    """Kernel of a hard Dirac junction: the solutions decaying to the
    right of the right bulk that also decay to the left of the left one."""
    return intersection_dim(dirac_planes(W_right, energy)[0],
                            dirac_planes(W_left, energy)[1])


def schrodinger_zero_modes(V_left, V_right, energy):
    """Kernel of a hard Schrodinger junction below both spectra."""
    return intersection_dim(schrodinger_planes(V_right, energy)[0],
                            schrodinger_planes(V_left, energy)[1])


def ssh_index(t1, t2):
    """BDI index of the decaying plane of an SSH chain: its winding number.

    Positive bonds with |t1| < |t2| wind once (decaying solutions live on
    the sublattice of the trace site 0); the other phase winds zero times.
    """
    return 1 if abs(t1) < abs(t2) else 0


def ssh_gap(t1, t2):
    """Distance of the period-2 transfer spectrum (t1/t2, t2/t1) from the unit circle."""
    r = min(abs(t1 / t2), abs(t2 / t1))
    return 1.0 - r


def transfer_matrix(a, b, energy=0.0):
    """Map (psi_0, psi_1) to (psi_q, psi_{q+1}) over one period of a chain.

    Solves a_{n-1}* psi_{n-1} + b_n psi_n + a_n psi_{n+1} = E psi_n for
    psi_{n+1}, with a and b indexed modulo the period q.
    """
    q = len(a)
    N = a[0].shape[0]
    M = np.eye(2 * N, dtype=complex)
    for n in range(1, q + 1):
        a_n = a[n % q]
        top = np.hstack([np.zeros((N, N)), np.eye(N)])
        low = np.hstack([-np.linalg.solve(a_n, a[n - 1].conj().T),
                         np.linalg.solve(a_n, energy * np.eye(N) - b[n % q])])
        M = np.vstack([top, low]) @ M
    return M


def transfer_gap(a, b, energy=0.0):
    """Distance of the transfer spectrum from the unit circle."""
    lam = np.linalg.eigvals(transfer_matrix(a, b, energy))
    return float(np.abs(np.abs(lam) - 1.0).min())


def chain_planes(a, b, energy=0.0):
    """Traces (psi_0, psi_1) of the chain solutions decaying to the right
    (stable subspace of the transfer matrix) and to the left (unstable)."""
    return _invariant_frames(transfer_matrix(a, b, energy), lambda z: abs(z) < 1.0)


def chain_zero_modes(left, right, energy=0.0):
    """Kernel of two chains glued at a shared seam bond; each side is (a, b)."""
    return intersection_dim(chain_planes(*right, energy)[0], chain_planes(*left, energy)[1])


def bloch_bands(a, b, ks=64):
    """Bloch energies of a periodic block chain on a k grid, one row per k."""
    q = len(a)
    N = a[0].shape[0]
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, ks, endpoint=False))
    H = np.zeros((ks, q * N, q * N), dtype=complex)
    for n in range(q):
        s = slice(n * N, (n + 1) * N)
        H[:, s, s] += b[n]
        m = (n + 1) % q
        t = slice(m * N, (m + 1) * N)
        hop = a[n][None, :, :] * (phases[:, None, None] if m == 0 else 1.0)
        H[:, s, t] += hop
        H[:, t, s] += hop.conj().transpose(0, 2, 1)
    return np.linalg.eigvalsh(H)


def chain_gap(a, b, energy=0.0):
    """Distance from ``energy`` to the Bloch bands (positive when gapped)."""
    return float(np.abs(bloch_bands(a, b) - energy).min())


def channel_flips(diags):
    """Zero modes of a rotated-diagonal profile W_j = P D_j Q^T.

    Rotating by P and Q decouples the channels into scalar mass walls,
    each binding one zero mode exactly when its outermost masses differ
    in sign.
    """
    return int(np.count_nonzero(np.sign(diags[0]) != np.sign(diags[-1])))

