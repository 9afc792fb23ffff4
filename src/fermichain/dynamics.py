"""Closed-form per-mode dynamics and a brute-force Lindblad integrator.

Each momentum mode is a pair of fermionic levels (a_k from half A, b_k from
half B) with Hamiltonian eps_k (a+a + b+b) + coupling term, dephased at rate
lambda by generators built from the symmetric/antisymmetric combinations
eta_± = (a ± b)/sqrt(2).  For an initial product of thermal states the exact
solution is

    <a+a>_t = (nA+nB)/2 + (nA-nB)/2 * exp(-lam t) cos(2 g_k t)
    <b+b>_t = (nA+nB)/2 - (nA-nB)/2 * exp(-lam t) cos(2 g_k t)
    <a+b>_t = (i/2)(nA-nB) * exp(-lam t) sin(2 g_k t)

and the 4x4 density matrix in the Fock basis {|0>, a+|0>, b+|0>, a+b+|0>}
keeps constant corners (1-nA)(1-nB) and nA*nB while the single-excitation
block carries the oscillation.  The integrator in this module makes no use of
the closed forms; it steps the master equation with a classical fixed-step
4th-order scheme and exists to certify them.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import ModeSpec, ReservoirParams, occupation_fd

_SQ2 = math.sqrt(2.0)


class IntegrationError(RuntimeError):
    """Fixed-step integration produced non-finite values (step too large)."""


def _damping(dephasing: float, t):
    tarr = np.asarray(t, dtype=float)
    if np.any(tarr < 0.0):
        raise ValueError("time must be >= 0")
    return np.exp(-dephasing * tarr)


def _check_occ(n_a0: float, n_b0: float):
    if not (0.0 <= n_a0 <= 1.0 and 0.0 <= n_b0 <= 1.0):
        raise ValueError("occupations must lie in [0, 1]")


def occ_a(mode: ModeSpec, n_a0: float, n_b0: float, t):
    """<a+a> at time t for initial occupations (n_a0, n_b0)."""
    _check_occ(n_a0, n_b0)
    mean = 0.5 * (n_a0 + n_b0)
    half = 0.5 * (n_a0 - n_b0)
    out = mean + half * _damping(mode.dephasing, t) * np.cos(2.0 * mode.coupling * np.asarray(t, dtype=float))
    return float(out) if out.ndim == 0 else out


def occ_b(mode: ModeSpec, n_a0: float, n_b0: float, t):
    """<b+b> at time t; mirror image of :func:`occ_a`."""
    _check_occ(n_a0, n_b0)
    mean = 0.5 * (n_a0 + n_b0)
    half = 0.5 * (n_a0 - n_b0)
    out = mean - half * _damping(mode.dephasing, t) * np.cos(2.0 * mode.coupling * np.asarray(t, dtype=float))
    return float(out) if out.ndim == 0 else out


def coherence_ab(mode: ModeSpec, n_a0: float, n_b0: float, t):
    """Inter-half coherence <a+b> = (i/2)(n_a0 - n_b0) exp(-lam t) sin(2 g_k t)."""
    _check_occ(n_a0, n_b0)
    half = 0.5 * (n_a0 - n_b0)
    out = 1j * half * _damping(mode.dephasing, t) * np.sin(2.0 * mode.coupling * np.asarray(t, dtype=float))
    return complex(out) if np.ndim(out) == 0 else out


def density_matrix_from_occupations(n_a0: float, n_b0: float, coupling: float,
                                    dephasing: float, t: float) -> np.ndarray:
    """4x4 mode state at time t in the basis {|0>, a+|0>, b+|0>, a+b+|0>}.

    Corners (vacuum and doubly occupied) are constants of motion; the central
    block holds the occupations minus the constant nA*nB weight and the
    coherence, with entry (1, 2) = <b+a> and (2, 1) = <a+b>.
    """
    _check_occ(n_a0, n_b0)
    mode = ModeSpec(momentum=0.5 * math.pi, energy=0.0, coupling=coupling,
                    dephasing=dephasing, bare_coupling=coupling)
    na_t = occ_a(mode, n_a0, n_b0, t)
    nb_t = occ_b(mode, n_a0, n_b0, t)
    c_ab = coherence_ab(mode, n_a0, n_b0, t)
    both = n_a0 * n_b0
    none = (1.0 - n_a0) * (1.0 - n_b0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = none
    rho[1, 1] = na_t - both
    rho[2, 2] = nb_t - both
    rho[1, 2] = np.conj(c_ab)
    rho[2, 1] = c_ab
    rho[3, 3] = both
    return rho


def density_matrix(mode: ModeSpec, res_a: ReservoirParams, res_b: ReservoirParams,
                   t: float) -> np.ndarray:
    """Mode state for halves prepared thermally at res_a / res_b."""
    n_a0 = occupation_fd(mode.energy, res_a)
    n_b0 = occupation_fd(mode.energy, res_b)
    return density_matrix_from_occupations(n_a0, n_b0, mode.coupling, mode.dephasing, t)


def reduced_density(which: str, mode: ModeSpec, res_a: ReservoirParams,
                    res_b: ReservoirParams, t: float) -> np.ndarray:
    """2x2 single-site reduction diag(1 - n(t), n(t)) for half 'a' or 'b'."""
    n_a0 = occupation_fd(mode.energy, res_a)
    n_b0 = occupation_fd(mode.energy, res_b)
    if which.lower() == "a":
        n = occ_a(mode, n_a0, n_b0, t)
    elif which.lower() == "b":
        n = occ_b(mode, n_a0, n_b0, t)
    else:
        raise ValueError("which must be 'a' or 'b'")
    return np.diag([1.0 - n, n]).astype(float)


# ---------------------------------------------------------------------------
# brute-force master-equation integrator (validation path)
# ---------------------------------------------------------------------------

def _mode_operators(energy: float, coupling: float):
    """Hamiltonian and dephasing generators in the site Fock basis.

    The generators are the projectors onto the single-excitation eta_± states:
    diagonal in the eta basis, rotated to the site basis by the 2x2 Hadamard
    block.  They commute with the Hamiltonian.  The coupling enters H with the
    sign that makes <a+b> rotate as +i sin(2 g_k t) for n_a0 > n_b0, matching
    the closed forms above (the opposite sign is the mirror convention and
    flips only the phase of the coherence, never an observable).
    """
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = h[2, 2] = energy
    h[3, 3] = 2.0 * energy
    h[1, 2] = h[2, 1] = -coupling
    l_sym = np.zeros((4, 4), dtype=complex)
    l_sym[1:3, 1:3] = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    l_asym = np.zeros((4, 4), dtype=complex)
    l_asym[1:3, 1:3] = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return h, (l_sym, l_asym)


def _liouvillian(energy: float, coupling: float, dephasing: float) -> np.ndarray:
    """16x16 generator of vec(rho) under row-major vectorization."""
    h, jumps = _mode_operators(energy, coupling)
    eye = np.eye(4, dtype=complex)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in jumps:
        ldl = l.conj().T @ l
        sup += dephasing * (np.kron(l, l.conj())
                            - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
    return sup


def lindblad_trajectory(mode: ModeSpec | list | tuple, res_a: ReservoirParams,
                        res_b: ReservoirParams, t_grid, dt_max: float = 1e-3) -> np.ndarray:
    """Integrate the dephasing master equation, reporting at each grid time.

    Each inter-report interval of length ``span`` is cut into
    ``n = max(1, ceil(span / dt_max))`` equal steps of ``dt = span / n``, and
    every step is one classical RK4 step.  Because the generator L is
    time-independent, that step is the fixed matrix
    ``P = I + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24``, built once per
    interval and applied ``n`` times; all modes of a batch advance together.

    Parameters
    ----------
    mode : ModeSpec, or a list or tuple of ModeSpec integrated as one batch
    t_grid : strictly increasing, finite report times starting at >= 0
    dt_max : finite, positive upper bound on the fixed step

    Returns
    -------
    (len(t_grid), 4, 4) complex array of states for a single ModeSpec, or
    (len(mode), len(t_grid), 4, 4) for a list or tuple of modes.
    """
    if not (math.isfinite(dt_max) and dt_max > 0.0):
        raise ValueError("dt_max must be finite and positive")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be a non-empty 1-D array of finite times")
    if np.any(np.diff(t_grid) <= 0.0) or t_grid[0] < 0.0:
        raise ValueError("t_grid must be strictly increasing and non-negative")
    batch = isinstance(mode, (list, tuple))
    modes = list(mode) if batch else [mode]
    if not modes:
        raise ValueError("mode batch is empty")
    sup = np.stack([_liouvillian(m.energy, m.coupling, m.dephasing) for m in modes])
    rho0 = np.empty((len(modes), 4, 4), dtype=complex)
    for j, m in enumerate(modes):
        n_a0 = occupation_fd(m.energy, res_a)
        n_b0 = occupation_fd(m.energy, res_b)
        rho0[j] = np.diag([(1.0 - n_a0) * (1.0 - n_b0), n_a0 * (1.0 - n_b0),
                           (1.0 - n_a0) * n_b0, n_a0 * n_b0])
    y = rho0.reshape(-1, 16, 1)
    eye = np.eye(16, dtype=complex)
    out = np.empty((len(modes), len(t_grid), 4, 4), dtype=complex)
    t_now = 0.0
    for i, t_stop in enumerate(t_grid):
        span = t_stop - t_now
        if span > 0.0:
            n_steps = max(1, int(math.ceil(span / dt_max)))
            hl = (span / n_steps) * sup
            step = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)
            for _ in range(n_steps):
                y = step @ y
            t_now = t_stop
        bad = ~np.all(np.isfinite(y.view(float)), axis=(1, 2))
        if np.any(bad):
            raise IntegrationError("non-finite state of mode %d at t=%g; reduce dt_max"
                                   % (int(np.argmax(bad)), t_stop))
        out[:, i] = y.reshape(-1, 4, 4)
    return out if batch else out[0]


def lindblad_oracle(mode: ModeSpec, res_a: ReservoirParams, res_b: ReservoirParams,
                    t: float, dt_max: float = 1e-4) -> np.ndarray:
    """State at a single finite time t >= 0 from the fixed-step integrator."""
    return lindblad_trajectory(mode, res_a, res_b, [t], dt_max=dt_max)[0]
