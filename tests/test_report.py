"""Error measures, history records, and their file formats."""

import numpy as np
import numpy.testing as npt
import pytest

from cemporo.assembly import assemble_operators
from cemporo.grid import build_grids, partition_of_unity
from cemporo.material import MaterialField
from cemporo.report import (EnrichmentHistory, energy_errors,
                            export_field_snapshots, render_percent)
from cemporo.timestepping import State


@pytest.fixture(scope="module")
def ops():
    grid = build_grids(2, 2, 3)
    ones = np.ones(grid.n_fine_cells)
    field = MaterialField(grid, ones, ones, poisson=0.2, alpha=0.9,
                          biot_modulus=1.0, viscosity=1.0)
    return assemble_operators(grid, field, partition_of_unity(grid))


def _random_state(ops, seed, n=1):
    rng = np.random.default_rng(seed)
    return State(n, rng.normal(size=ops.dofs.n_u),
                 rng.normal(size=ops.dofs.n_p))


def test_energy_errors_identical_state(ops):
    ref = _random_state(ops, 0)
    err_u, err_p = energy_errors(ops, ref, ref)
    assert err_u == 0.0 and err_p == 0.0


def test_energy_errors_scaling(ops):
    ref = _random_state(ops, 1)
    halfway = State(1, 0.5 * ref.u + 0.5 * ref.u, ref.p)  # same state
    shifted = State(1, 1.5 * ref.u, ref.p)
    err_u, err_p = energy_errors(ops, shifted, ref)
    # (1.5 - 1) ref has half the energy norm of ref itself
    assert err_u == pytest.approx(0.5, rel=1e-12)
    assert err_p == 0.0
    # the measure is a relative stiffness norm
    du = shifted.u - ref.u
    direct = np.sqrt((du @ (ops.stiff_u @ du))
                     / (ref.u @ (ops.stiff_u @ ref.u)))
    assert err_u == pytest.approx(direct, rel=1e-12)


def test_energy_errors_zero_reference(ops):
    zero = State(0, np.zeros(ops.dofs.n_u), np.zeros(ops.dofs.n_p))
    state = _random_state(ops, 2)
    err_u, err_p = energy_errors(ops, state, zero)
    # a zero reference switches both entries to the absolute error
    assert err_u == pytest.approx(
        np.sqrt(state.u @ (ops.stiff_u @ state.u)), rel=1e-12)
    assert err_p == pytest.approx(
        np.sqrt(state.p @ (ops.stiff_p @ state.p)), rel=1e-12)


def test_render_percent():
    assert render_percent(0.3191) == "31.91%"
    assert render_percent(0.05) == "5.00%"
    assert render_percent(1.0) == "100.00%"


def _rows():
    return [
        {"level": 10, "iteration": 0, "n_u": 200, "n_p": 100,
         "err_u": 0.31912345, "err_p": 0.26523456, "eta_u": 1.25,
         "eta_p": 0.75, "eta": 2.0, "added_u": 0, "added_p": 0},
        {"level": 10, "iteration": 1, "n_u": 231, "n_p": 131,
         "err_u": 0.151234, "err_p": 0.121234, "eta_u": 0.61,
         "eta_p": 0.39, "eta": 1.0, "added_u": 31, "added_p": 31},
    ]


def _csv(history, path):
    """The text of the history's CSV file, written at `path`."""
    history.to_csv(str(path))
    return path.read_text()


def test_history_csv_roundtrip(tmp_path):
    hist = EnrichmentHistory(_rows())
    path = str(tmp_path / "history.csv")
    hist.to_csv(path)
    back = EnrichmentHistory.from_csv(path)
    assert _csv(back, tmp_path / "back.csv") == \
        (tmp_path / "history.csv").read_text()
    assert len(back.rows) == 2
    assert back.rows[1]["added_u"] == 31
    assert isinstance(back.rows[0]["level"], int)
    # values survive at the declared six significant digits
    assert back.rows[0]["err_u"] == pytest.approx(0.31912345, rel=1e-5)


def test_history_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        EnrichmentHistory.from_csv(str(path))


def test_history_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty history"):
        EnrichmentHistory.from_csv(str(path))


def test_history_empty_roundtrip(tmp_path):
    path = str(tmp_path / "history.csv")
    EnrichmentHistory().to_csv(path)
    back = EnrichmentHistory.from_csv(path)
    assert back.rows == []


def test_history_equality_at_declared_precision(tmp_path):
    rows = _rows()
    a = _csv(EnrichmentHistory(rows), tmp_path / "a.csv")
    jittered = [dict(r) for r in rows]
    jittered[0]["err_u"] *= 1.0 + 1e-9  # below six significant digits
    assert a == _csv(EnrichmentHistory(jittered), tmp_path / "b.csv")
    moved = [dict(r) for r in rows]
    moved[0]["err_u"] *= 1.01
    assert a != _csv(EnrichmentHistory(moved), tmp_path / "b.csv")
    assert a != _csv(EnrichmentHistory(rows[:1]), tmp_path / "b.csv")


def test_history_to_text():
    text = EnrichmentHistory(_rows()).to_text()
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert "err_u" in lines[0]
    assert "31.91%" in lines[1]
    assert "15.12%" in lines[2]
    assert "31+31" in lines[2]


def test_export_history_accepts_plain_rows(tmp_path):
    path = str(tmp_path / "out.csv")
    hist = EnrichmentHistory(_rows())
    hist.to_csv(path)
    assert isinstance(hist, EnrichmentHistory)
    assert _csv(EnrichmentHistory.from_csv(path), tmp_path / "back.csv") == \
        (tmp_path / "out.csv").read_text()


def test_variant_rows_roundtrip(tmp_path):
    rows = [dict(r, variant=name)
            for name in ("fast", "slow, careful") for r in _rows()]
    path = str(tmp_path / "compare.csv")
    EnrichmentHistory(rows).to_csv(path)
    with open(path) as fh:
        assert fh.readline().startswith("variant,level,")
    back = EnrichmentHistory.from_csv(path)
    assert _csv(back, tmp_path / "back.csv") == \
        (tmp_path / "compare.csv").read_text()
    assert [r["variant"] for r in back.rows] == [r["variant"] for r in rows]
    text = back.to_text()
    assert "variant fast" in text and "variant slow, careful" in text


def test_export_field_snapshots(tmp_path, ops):
    state = _random_state(ops, 3)
    stem = str(tmp_path / "snap")
    export_field_snapshots(ops, state, stem)
    grid = ops.grid
    for name in ("u1", "u2", "p"):
        arr = np.loadtxt("%s_%s.csv" % (stem, name), delimiter=",")
        assert arr.shape == (grid.nfy + 1, grid.nfx + 1)
        # homogeneous boundary rows and columns
        npt.assert_array_equal(arr[0], 0.0)
        npt.assert_array_equal(arr[-1], 0.0)
        npt.assert_array_equal(arr[:, 0], 0.0)
        npt.assert_array_equal(arr[:, -1], 0.0)
    p = np.loadtxt(stem + "_p.csv", delimiter=",").ravel()
    full = ops.dofs.extend_p(state.p)
    npt.assert_allclose(p, full, rtol=1e-5, atol=1e-8)
