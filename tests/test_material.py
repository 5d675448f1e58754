"""Material fields: Lame parameters, storage format, synthetic generator."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from cemporo.grid import build_grids
from cemporo.material import (MaterialField, lame_from_E, load_field,
                              save_field, synth_channels)


def test_lame_reference_values():
    lam, mu = lame_from_E(1.0, 0.2)
    npt.assert_allclose([lam, mu], [0.2 / 0.72, 1.0 / 2.4], rtol=1e-12)
    lam, mu = lame_from_E(1.0, 0.0)
    npt.assert_allclose([lam, mu], [0.0, 0.5], rtol=1e-12)
    lam, mu = lame_from_E(1.0, 0.49)
    npt.assert_allclose([lam, mu], [16.442953020134228, 0.3355704697986577],
                        rtol=1e-12)
    # arrays go through elementwise
    lam, mu = lame_from_E(np.array([1.0, 2.0]), 0.2)
    npt.assert_allclose(mu, [1.0 / 2.4, 2.0 / 2.4])


def test_lame_rejects_invalid():
    with pytest.raises(ValueError):
        lame_from_E(1.0, 0.5)
    with pytest.raises(ValueError):
        lame_from_E(1.0, -1.0)
    with pytest.raises(ValueError):
        lame_from_E(0.0, 0.2)
    with pytest.raises(ValueError):
        lame_from_E(-2.0, 0.2)


def test_field_derived_quantities():
    g = build_grids(2, 2, 2)
    E = np.linspace(1.0, 4.0, g.n_fine_cells)
    kappa = 2.0 * E
    f = MaterialField(g, E, kappa, 0.25, 0.8, 2.0, 4.0)
    npt.assert_allclose(f.mobility, kappa / 4.0)
    lam, mu = lame_from_E(E, 0.25)
    npt.assert_allclose(f.p_wave_modulus, lam + 2.0 * mu)
    assert f.contrast() == pytest.approx(4.0)
    assert f.alpha == 0.8


def test_field_shape_mismatch():
    g = build_grids(2, 2, 2)
    with pytest.raises(ValueError):
        MaterialField(g, np.ones(5), np.ones(5), 0.2, 0.9, 1.0, 1.0)


@pytest.mark.parametrize("where, value", [
    ("E", np.nan), ("kappa", np.inf), ("alpha", np.nan),
    ("biot_modulus", np.inf), ("viscosity", np.nan)])
def test_field_rejects_non_finite_values(tmp_path, where, value):
    # a NaN coupling, storage or viscosity passes every sign check; caught
    # here, it cannot reach a factorization, also when read from a file
    g = build_grids(2, 2, 2)
    args = {"E": np.ones(g.n_fine_cells), "kappa": np.ones(g.n_fine_cells),
            "poisson": 0.2, "alpha": 0.9, "biot_modulus": 1.0,
            "viscosity": 1.0}
    if where in ("E", "kappa"):
        f = MaterialField(g, **args)
        getattr(f, where)[3] = value
        save_field(f, str(tmp_path / "field"))
        with pytest.raises(ValueError, match="finite"):
            load_field(str(tmp_path / "field"), g)
        value = np.where(np.arange(g.n_fine_cells) == 3, value, 1.0)
    with pytest.raises(ValueError, match="finite"):
        MaterialField(g, **dict(args, **{where: value}))


def test_save_load_roundtrip(tmp_path):
    g = build_grids(3, 2, 2)
    rng = np.random.default_rng(11)
    E = np.exp(rng.normal(size=g.n_fine_cells))
    kappa = np.exp(rng.normal(size=g.n_fine_cells))
    f = MaterialField(g, E, kappa, 0.3, 0.7, 1.5, 2.5)
    stem = str(tmp_path / "field")
    save_field(f, stem)
    back = load_field(stem, g)
    npt.assert_array_equal(back.E, f.E)
    npt.assert_array_equal(back.kappa, f.kappa)
    assert back.poisson == f.poisson
    assert back.alpha == f.alpha
    assert back.biot_modulus == f.biot_modulus
    assert back.viscosity == f.viscosity


def test_load_field_grid_mismatch(tmp_path):
    g = build_grids(2, 2, 2)
    f = synth_channels(g, 1.0, 10.0, seed=1)
    stem = str(tmp_path / "field")
    save_field(f, stem)
    other = build_grids(3, 3, 2)
    with pytest.raises(ValueError):
        load_field(stem, other)


def test_synth_deterministic():
    g = build_grids(5, 5, 4)
    a = synth_channels(g, 1.0, 1e4, seed=3)
    b = synth_channels(g, 1.0, 1e4, seed=3)
    npt.assert_array_equal(a.E, b.E)
    c = synth_channels(g, 1.0, 1e4, seed=4)
    assert not np.array_equal(a.E, c.E)


def test_synth_contrast_and_values():
    g = build_grids(5, 5, 4)
    f = synth_channels(g, 2.0, 100.0, seed=0)
    vals = np.unique(f.E)
    npt.assert_allclose(vals, [2.0, 200.0])
    assert f.contrast() == pytest.approx(100.0)
    npt.assert_array_equal(f.kappa, f.E)


def test_synth_rejects_bad_parameters():
    g = build_grids(2, 2, 2)
    with pytest.raises(ValueError):
        synth_channels(g, 0.0, 10.0)
    with pytest.raises(ValueError):
        synth_channels(g, 1.0, 0.5)
    # a negative count would draw nothing and leave the field homogeneous
    for counts in ({"n_channels": -2}, {"n_inclusions": -5}):
        with pytest.raises(ValueError, match="nonnegative"):
            synth_channels(g, 1.0, 1e4, **counts)


def test_synth_rejects_grid_too_small_for_channels():
    # a random channel starts in the first quarter of the other side, which
    # needs at least 4 fine cells
    g = build_grids(2, 2, 1)
    with pytest.raises(ValueError, match="2 x 2"):
        synth_channels(g, 1.0, 10.0, seed=0)
    # without channels nothing needs the 4 cells
    synth_channels(g, 1.0, 10.0, n_channels=0, n_inclusions=0)


def test_synth_inclusions_fit_a_grid_one_fine_cell_across():
    # inclusion sides are drawn up to 2 cells and capped at the grid
    f = synth_channels(build_grids(8, 1, 1), 1.0, 10.0, n_channels=1, seed=2)
    assert f.E.size == 8 and f.E.max() == 10.0
    f = synth_channels(build_grids(1, 8, 1), 1.0, 10.0, n_channels=0, seed=2)
    assert f.E.size == 8 and f.E.max() == 10.0


def test_synth_seeded_fields_unchanged():
    # high-contrast cells of seeded fields, recorded before the grid check
    g = build_grids(2, 2, 2)  # 4 x 4 fine cells, the smallest drawable grid
    f = synth_channels(g, 1.0, 100.0, n_channels=1, n_inclusions=2, seed=5)
    assert np.flatnonzero(f.E > 1.0).tolist() == [0, 4, 8, 9, 10, 12, 13, 14]
    f = synth_channels(build_grids(5, 5, 4), 1.0, 1e4, seed=3)
    high = np.flatnonzero(f.E > 1.0)
    assert (high.size, int(high.sum())) == (87, 16113)


@pytest.mark.parametrize("where, value, message", [
    ("E", 0.0, "strictly positive"), ("E", -1.0, "strictly positive"),
    ("biot_modulus", 0.0, "storage modulus"),
    ("biot_modulus", -2.0, "storage modulus"),
    ("alpha", -0.1, "coupling coefficient")])
def test_field_rejects_out_of_range_values(where, value, message):
    g = build_grids(2, 2, 2)
    args = {"E": np.ones(g.n_fine_cells), "kappa": np.ones(g.n_fine_cells),
            "poisson": 0.2, "alpha": 0.9, "biot_modulus": 1.0,
            "viscosity": 1.0}
    if where == "E":
        value = np.where(np.arange(g.n_fine_cells) == 3, value, 1.0)
    with pytest.raises(ValueError, match=message):
        MaterialField(g, **dict(args, **{where: value}))


@pytest.mark.parametrize("damage, message", [
    ("header", "missing entry 'alpha'"), ("array", "shape")])
def test_load_field_rejects_damaged_files(tmp_path, damage, message):
    g = build_grids(2, 2, 2)
    stem = str(tmp_path / "field")
    save_field(synth_channels(g, 1.0, 10.0, seed=1), stem)
    if damage == "header":
        with open(stem + ".json") as fh:
            header = json.load(fh)
        del header["alpha"]
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh)
    else:
        np.savetxt(stem + "_kappa.csv", np.ones((g.nfy, g.nfx + 1)),
                   delimiter=",")
    with pytest.raises(ValueError, match=message):
        load_field(stem, g)
