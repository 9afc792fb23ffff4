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
block carries the oscillation.  A mode batch of shape S has states of shape
(*S, 4, 4); in the closed forms each entry equals its scalar call bit for
bit.  The integrator makes no use of the closed forms:
it steps a whole batch with a classical fixed-step 4th-order scheme, whose
step is one fixed matrix P for a time-independent generator, applying P^n
by repeated squaring.  It exists to certify the closed forms.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lattice import (_MODE, _ONE_RESERVOIR, _PAIR, _TIME, ModeSpec, ReservoirParams, _batch,
                      _mode_envelope, _plain, _require, _scalar, _takes, occupation_fd)


class IntegrationError(RuntimeError):
    """Fixed-step integration produced non-finite values (step too large)."""


# a mode (or batch), the initial occupations and t, broadcasting together
_STATE = {"mode": _MODE, "n_a0": _batch("occupation"), "n_b0": _batch("occupation"), "t": _TIME}


def _terms(mode: ModeSpec, n_a0, n_b0, t):
    """(n_a0, n_b0, mean, half, envelope, phase), formed once per call: the
    occupations as arrays, their mean and half difference, and the mode's
    envelope exp(-lam t) and phase 2 g_k t over the whole batch."""
    n_a0, n_b0 = np.asarray(n_a0, dtype=float), np.asarray(n_b0, dtype=float)
    envelope, phase = _mode_envelope(mode, t)
    return n_a0, n_b0, 0.5 * (n_a0 + n_b0), 0.5 * (n_a0 - n_b0), envelope, phase


@_takes(**_STATE)
def occ_a(mode: ModeSpec, n_a0, n_b0, t):
    """<a+a> at time t for initial occupations (n_a0, n_b0)."""
    _, _, mean, half, envelope, phase = _terms(mode, n_a0, n_b0, t)
    return _plain(mean + half * envelope * np.cos(phase))


@_takes(**_STATE)
def occ_b(mode: ModeSpec, n_a0, n_b0, t):
    """<b+b> at time t: :func:`occ_a` with the halves swapped (half negated)."""
    _, _, mean, half, envelope, phase = _terms(mode, n_a0, n_b0, t)
    return _plain(mean - half * envelope * np.cos(phase))


@_takes(**_STATE)
def coherence_ab(mode: ModeSpec, n_a0, n_b0, t):
    """Inter-half coherence <a+b> = (i/2)(n_a0 - n_b0) exp(-lam t) sin(2 g_k t)."""
    _, _, _, half, envelope, phase = _terms(mode, n_a0, n_b0, t)
    return _plain(1j * half * envelope * np.sin(phase))


@_takes(**_STATE)
def density_matrix_from_occupations(mode: ModeSpec, n_a0, n_b0, t) -> np.ndarray:
    """4x4 mode state at time t in the basis {|0>, a+|0>, b+|0>, a+b+|0>}.

    Corners (vacuum and doubly occupied) are constants of motion; the central
    block holds the occupations minus the constant nA*nB weight and the
    coherence, with entry (1, 2) = <b+a> and (2, 1) = <a+b>.  The arguments
    broadcast like :func:`occ_a`'s; a batch of shape S gives (*S, 4, 4).
    """
    n_a0, n_b0, mean, half, envelope, phase = _terms(mode, n_a0, n_b0, t)
    swing = half * envelope * np.cos(phase)
    c_ab = 1j * half * envelope * np.sin(phase)
    both = n_a0 * n_b0
    rho = np.zeros(np.shape(swing) + (4, 4), dtype=complex)
    rho[..., 0, 0] = (1.0 - n_a0) * (1.0 - n_b0)
    rho[..., 1, 1] = mean + swing - both
    rho[..., 2, 2] = mean - swing - both
    rho[..., 1, 2] = np.conj(c_ab)
    rho[..., 2, 1] = c_ab
    rho[..., 3, 3] = both
    return rho


@_takes(mode=_MODE, **_PAIR, t=_TIME)
def density_matrix(mode: ModeSpec, res_a: ReservoirParams, res_b: ReservoirParams,
                   t) -> np.ndarray:
    """Mode state for halves prepared thermally at res_a / res_b."""
    n_a0 = occupation_fd.unchecked(mode.energy, res_a)
    n_b0 = occupation_fd.unchecked(mode.energy, res_b)
    return density_matrix_from_occupations.unchecked(mode, n_a0, n_b0, t)


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


@functools.lru_cache(maxsize=1)
def _liouvillian_parts():
    """(L_E, L_g, L_lam): the generator is E L_E + g L_g + lam L_lam.

    Built on first use, so importing the package does not pay for them, and
    read-only, since every call shares them.
    """
    parts = tuple(_liouvillian(*unit) for unit in np.eye(3).tolist())
    for part in parts:
        part.setflags(write=False)
    return parts


@_takes(mode=_MODE, res_a=_ONE_RESERVOIR, res_b=_ONE_RESERVOIR, dt_max=_scalar("positive"))
def lindblad_trajectory(mode: ModeSpec, res_a: ReservoirParams, res_b: ReservoirParams,
                        t_grid, dt_max: float = 1e-3) -> np.ndarray:
    """Integrate the dephasing master equation, reporting at each grid time.

    Each inter-report interval of length ``span`` is cut into
    ``n = max(1, ceil(span / dt_max))`` equal steps of ``dt = span / n``, and
    every step is one classical RK4 step.  Because the generator L is
    time-independent, that step is the fixed matrix
    ``P = I + dt L + (dt L)^2/2 + (dt L)^3/6 + (dt L)^4/24``, built once per
    interval and applied as ``P^n`` by repeated squaring (about log2 n
    matrix products instead of n); the next interval reuses ``P^n`` when it
    has the same span and step count.  All modes of a batch advance
    together.  A step outside RK4's stability region for any part of a
    mode's generator can overflow ``P^n``; a non-finite state raises
    IntegrationError naming the mode's index in the batch.

    mode is a mode (S = ()) or a non-empty batch of shape S, and t_grid holds
    finite report times strictly increasing from >= 0.  Returns the
    (*S, len(t_grid), 4, 4) states.
    """
    times = np.atleast_1d(np.asarray(t_grid, dtype=float))
    _require("t_grid", t_grid, times.ndim == 1 and times.size > 0
             and bool(np.all(np.isfinite(times))) and times[0] >= 0.0
             and bool(np.all(np.diff(times) > 0.0)),
             "be a non-empty 1-D array of finite times, strictly increasing from >= 0")
    fields = vars(mode).values()
    shape = np.broadcast(*fields).shape
    _require("mode", mode, math.prod(shape) > 0, "hold at least one mode, not an empty batch")
    l_e, l_g, l_lam = _liouvillian_parts()
    energy, coupling, dephasing = (np.broadcast_to(np.asarray(v, dtype=float), shape)
                                   .reshape(-1, 1, 1) for v in fields)
    sup = energy * l_e + coupling * l_g + dephasing * l_lam
    n_a0 = occupation_fd.unchecked(energy.ravel(), res_a)
    n_b0 = occupation_fd.unchecked(energy.ravel(), res_b)
    y = np.zeros((len(sup), 16, 1), dtype=complex)
    # the diagonal of each row-major vec(rho0): a product of thermal states
    y[:, ::5, 0] = np.stack([(1.0 - n_a0) * (1.0 - n_b0), n_a0 * (1.0 - n_b0),
                             (1.0 - n_a0) * n_b0, n_a0 * n_b0], axis=-1)
    eye = np.eye(16, dtype=complex)
    out = np.empty((len(sup), len(times), 4, 4), dtype=complex)
    t_now = 0.0
    interval = None  # (span, n_steps) that ``power`` advances
    for i, t_stop in enumerate(times):
        span = t_stop - t_now
        if span > 0.0:
            n_steps = max(1, int(math.ceil(span / dt_max)))
            if interval != (span, n_steps):
                interval = (span, n_steps)
                hl = (span / n_steps) * sup
                step = eye + hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0)
                power = np.linalg.matrix_power(step, n_steps)
            y = power @ y
            t_now = t_stop
        bad = ~np.all(np.isfinite(y.view(float)), axis=(1, 2))
        if np.any(bad):
            where = np.unravel_index(int(np.argmax(bad)), shape) or (0,)
            raise IntegrationError("non-finite state of mode %s at t=%g; reduce dt_max"
                                   % (",".join(map(str, where)), t_stop))
        out[:, i] = y.reshape(-1, 4, 4)
    return out.reshape(shape + out.shape[1:])
