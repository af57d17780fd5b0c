"""Test oracles: the dense per-mode form behind the package's orbit tables.

The package holds a form by its ``ModeTable``, one row per orbit, and never
enumerates the box.  Here each mode ``k = (2 pi / L) n`` gets its
polarization pair and its form factor at the dipoles, and the ``dim x dim``
matrix ``[[P, B], [B^T, K]]`` is built from them, for eigensolver and
matrix-product oracles at small ``dim``.
"""

import math

import numpy as np

from cplab.model import _box_extent


def box_modes(lattice):
    """The box's modes ``k`` and their lengths, lexicographic in ``n``, the
    origin excluded: ``(N, 3)`` and ``(N,)``, the lengths ``(2 pi / L)
    sqrt(n^2)`` bit for bit the orbits' ``norms``."""
    n_max = _box_extent(lattice.box_period, lattice.uv_cutoff)
    axis = np.arange(-n_max, n_max + 1)
    n = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    n = n.reshape(-1, 3)
    n = n[np.any(n != 0, axis=1)]
    step = 2.0 * math.pi / lattice.box_period
    return step * n, step * np.sqrt(np.einsum("ij,ij->i", n, n))


def polarization_basis(points, rotation_angles=None):
    """``model.polarization`` of each row of ``points``, each pair rotated
    by its angle in ``rotation_angles`` inside the transverse plane, which
    no physical output may notice."""
    points = np.asarray(points, dtype=float)
    rho = np.hypot(points[:, 0], points[:, 1])
    eps1 = np.zeros_like(points)
    eps1[:, 1] = -1.0  # on the z axis
    generic = rho > 0.0
    eps1[generic, 0] = points[generic, 1] / rho[generic]
    eps1[generic, 1] = -points[generic, 0] / rho[generic]
    units = points / np.linalg.norm(points, axis=1)[:, None]
    eps2 = np.cross(units, eps1)
    if rotation_angles is not None:
        th = np.asarray(rotation_angles, dtype=float)[:, None]
        eps1, eps2 = (np.cos(th) * eps1 + np.sin(th) * eps2,
                      -np.sin(th) * eps1 + np.cos(th) * eps2)
    return eps1, eps2


def dipoles(geometry=None):
    """The assemblers' dipole positions: the origin, then ``geometry.r``."""
    return [np.zeros(3)] + ([] if geometry is None else [geometry.r])


def border(lattice, profile, positions, rotation_angles=None):
    """The ``3 x 4N`` coupling of a unit charge at each of ``positions``,
    stacked: entry ``[i, 4 n + c]`` is component ``i`` of the polarization
    of mode ``n`` in channel ``c`` times ``model.form_factor`` at the
    position.  Channels per mode: (cos, eps1), (cos, eps2), (sin, eps1),
    (sin, eps2)."""
    points, norms = box_modes(lattice)
    eps1, eps2 = polarization_basis(points, rotation_angles)
    scale = math.sqrt(lattice.cell_weight) * norms * profile.radial(norms)
    blocks = []
    for x in positions:
        phase = points @ np.asarray(x, dtype=float)
        cos, sin = np.cos(phase), np.sin(phase)
        block = np.zeros((3, 4 * len(points)))
        for c, (eps, trig) in enumerate(((eps1, cos), (eps2, cos),
                                         (eps1, sin), (eps2, sin))):
            block[:, c::4] = (eps * (scale * trig)[:, None]).T
        blocks.append(block)
    return np.vstack(blocks)


def free_diagonal(form, lattice):
    """``Omega_0``: ``e^2 nu^2`` per particle row, then ``|k|^2`` per
    channel of each mode."""
    return np.concatenate([np.full(3 * form.q // 2, form.enu2),
                           np.repeat(box_modes(lattice)[1] ** 2, 4)])


def omega(form, params, lattice, profile, positions, rotation_angles=None):
    """The dense ``Omega`` of ``form``, its border ``e border(...)`` of
    dipoles at ``positions``: a shift or rotation changes the border alone,
    not the spectrum, so every spectral oracle must give ``form``'s."""
    p = 3 * len(positions)
    out = np.diag(free_diagonal(form, lattice))
    out[:p, :p] = np.kron([[form.d, form.g], [form.g, form.d]],
                          np.eye(3))[:p, :p]
    out[:p, p:] = params.e * border(lattice, profile, positions,
                                    rotation_angles)
    out[p:, :p] = out[:p, p:].T
    return out
