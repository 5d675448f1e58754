"""Heterogeneous material data: stiffness and permeability per fine cell.

Young's modulus and permeability are piecewise constant on the fine grid.
The remaining physical parameters (Poisson ratio, coupling coefficient,
storage modulus, fluid viscosity) are scalars.
"""

import json
import numbers
import os

import numpy as np


def lame_from_E(E, poisson):
    """First and second Lame parameters from Young's modulus.

    Accepts scalars or arrays; `poisson` must lie in (-1, 0.5).
    """
    poisson = float(poisson)
    if not -1.0 < poisson < 0.5:
        raise ValueError("poisson ratio must lie in (-1, 0.5)")
    E = np.asarray(E, dtype=float)
    if np.any(E <= 0.0):
        raise ValueError("Young's modulus must be positive")
    lam = poisson * E / ((1.0 - 2.0 * poisson) * (1.0 + poisson))
    mu = E / (2.0 * (1.0 + poisson))
    return lam, mu


class MaterialField:
    """Per-fine-cell Young's modulus and permeability plus scalar constants.

    Arrays are flat, length nfx*nfy, lexicographic with x fastest.
    """

    def __init__(self, grid, E, kappa, poisson, alpha, biot_modulus, viscosity):
        E = np.asarray(E, dtype=float).ravel()
        kappa = np.asarray(kappa, dtype=float).ravel()
        if E.size != grid.n_fine_cells or kappa.size != grid.n_fine_cells:
            raise ValueError("field arrays must have one value per fine cell")
        scalars = (poisson, alpha, biot_modulus, viscosity)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in scalars):
            raise TypeError("poisson, alpha, biot_modulus and viscosity "
                            "must be numbers")
        if not (np.all(np.isfinite(E)) and np.all(np.isfinite(kappa))
                and np.all(np.isfinite(scalars))):
            raise ValueError("E, kappa and the scalars must be finite")
        if np.any(E <= 0.0) or np.any(kappa <= 0.0):
            raise ValueError("E and kappa must be strictly positive")
        if biot_modulus <= 0.0 or viscosity <= 0.0:
            raise ValueError("storage modulus and viscosity must be positive")
        if alpha < 0.0:
            raise ValueError("coupling coefficient must be nonnegative")
        self.grid = grid
        self.E = E
        self.kappa = kappa
        self.poisson = float(poisson)
        self.alpha = float(alpha)
        self.biot_modulus = float(biot_modulus)
        self.viscosity = float(viscosity)
        self.lam, self.mu = lame_from_E(E, poisson)

    @property
    def mobility(self):
        """kappa / viscosity per fine cell."""
        return self.kappa / self.viscosity

    @property
    def p_wave_modulus(self):
        """lam + 2 mu per fine cell, the weight entering the spectral forms."""
        return self.lam + 2.0 * self.mu

    def contrast(self):
        return float(self.E.max() / self.E.min())


def save_field(field, stem):
    """Write <stem>_E.csv, <stem>_kappa.csv and the <stem>.json header."""
    grid = field.grid
    for name, arr in (("E", field.E), ("kappa", field.kappa)):
        np.savetxt("%s_%s.csv" % (stem, name),
                   arr.reshape(grid.nfy, grid.nfx), delimiter=",", fmt="%.17g")
    header = {
        "ncx": grid.ncx,
        "ncy": grid.ncy,
        "refinement": grid.refinement,
        "poisson": field.poisson,
        "alpha": field.alpha,
        "biot_modulus": field.biot_modulus,
        "viscosity": field.viscosity,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(header, fh, indent=1)
        fh.write("\n")


def load_field(stem, grid):
    """Read a field written by save_field onto the grid its header names."""
    if not os.path.exists(stem + ".json"):
        raise FileNotFoundError("missing field header %s.json" % stem)
    with open(stem + ".json") as fh:
        header = json.load(fh)
    for key in ("ncx", "ncy", "refinement", "poisson", "alpha",
                "biot_modulus", "viscosity"):
        if key not in header:
            raise ValueError("field header missing entry '%s'" % key)
    if (grid.ncx, grid.ncy, grid.refinement) != (
            header["ncx"], header["ncy"], header["refinement"]):
        raise ValueError("field header does not match the requested grid")
    E = np.loadtxt(stem + "_E.csv", delimiter=",", ndmin=2)
    kappa = np.loadtxt(stem + "_kappa.csv", delimiter=",", ndmin=2)
    if E.shape != (grid.nfy, grid.nfx) or kappa.shape != (grid.nfy, grid.nfx):
        raise ValueError("field array shape does not match the grid")
    return MaterialField(grid, E, kappa, header["poisson"], header["alpha"],
                         header["biot_modulus"], header["viscosity"])


def synth_channels(grid, background, contrast, n_channels=4, n_inclusions=8,
                   seed=0, poisson=0.2, alpha=0.9, biot_modulus=1.0,
                   viscosity=1.0):
    """Deterministic high-contrast test field: long channels plus blocky inclusions.

    Permeability is set equal to the stiffness field. The `n_channels`
    channels, each an (axis, index, thickness, start, end) run in fine-cell
    units, and the inclusions are drawn from the seeded generator.
    """
    if background <= 0.0 or contrast < 1.0:
        raise ValueError("need positive background and contrast >= 1")
    rng = np.random.default_rng(seed)
    E = np.full((grid.nfy, grid.nfx), float(background))
    high = background * contrast

    for k in range(n_channels):
        axis = k % 2
        span = grid.nfy if axis == 0 else grid.nfx
        other = grid.nfx if axis == 0 else grid.nfy
        if other < 4:
            raise ValueError(
                "random channels need at least 4 fine cells a side; the "
                "fine grid is %d x %d" % (grid.nfx, grid.nfy))
        pos = int(rng.integers(span // 8, span - span // 8))
        thick = int(rng.integers(1, max(2, span // 25) + 1))
        start = int(rng.integers(0, other // 4))
        end = int(rng.integers(3 * other // 4, other + 1))
        if axis == 0:
            E[pos:pos + thick, start:end] = high
        else:
            E[start:end, pos:pos + thick] = high

    for _ in range(n_inclusions):
        # the caps bind only on a grid one fine cell wide or high
        w = min(int(rng.integers(1, max(2, grid.nfx // 12) + 1)), grid.nfx)
        hgt = min(int(rng.integers(1, max(2, grid.nfy // 12) + 1)), grid.nfy)
        i0 = int(rng.integers(0, grid.nfx - w + 1))
        j0 = int(rng.integers(0, grid.nfy - hgt + 1))
        E[j0:j0 + hgt, i0:i0 + w] = high

    return MaterialField(grid, E.ravel(), E.ravel().copy(), poisson, alpha,
                         biot_modulus, viscosity)
