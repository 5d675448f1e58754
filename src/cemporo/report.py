"""Energy-norm errors, enrichment histories and their file formats."""

import csv
import io

import numpy as np

HISTORY_COLUMNS = ["level", "iteration", "n_u", "n_p", "err_u", "err_p",
                   "eta_u", "eta_p", "eta", "added_u", "added_p"]
_INT_COLUMNS = {"level", "iteration", "n_u", "n_p", "added_u", "added_p"}


def energy_errors(ops, state, reference):
    """Relative stiffness-norm errors of a state against the fine reference.

    Returns (err_u, err_p); a zero-norm reference switches the corresponding
    entry to the absolute error.
    """
    du = state.u - reference.u
    dp = state.p - reference.p
    eu2 = max(float(du @ (ops.stiff_u @ du)), 0.0)
    ep2 = max(float(dp @ (ops.stiff_p @ dp)), 0.0)
    nu2 = float(reference.u @ (ops.stiff_u @ reference.u))
    np2 = float(reference.p @ (ops.stiff_p @ reference.p))
    err_u = np.sqrt(eu2) if nu2 == 0.0 else np.sqrt(eu2 / nu2)
    err_p = np.sqrt(ep2) if np2 == 0.0 else np.sqrt(ep2 / np2)
    return float(err_u), float(err_p)


def render_percent(x):
    """Decimal fraction rendered as a percentage, e.g. 0.3191 -> '31.91%'."""
    return "%.2f%%" % (100.0 * x)


def _format_value(col, v):
    if col == "variant":
        return str(v)
    if col in _INT_COLUMNS:
        return "%d" % int(v)
    return "%.6g" % float(v)


def _parse_value(col, text):
    if col == "variant":
        return text
    if col in _INT_COLUMNS:
        return int(text)
    return float(text)


class EnrichmentHistory:
    """Ordered records of (time level, iteration) enrichment rows."""

    def __init__(self, rows=None):
        self.rows = [dict(r) for r in rows] if rows else []

    def to_csv(self, path):
        """Six-significant-digit CSV, one row per (level, iteration).

        Rows that carry a `variant` name, as `cemporo compare` makes, get it
        as a leading column.
        """
        columns = HISTORY_COLUMNS
        if any("variant" in row for row in self.rows):
            columns = ["variant"] + HISTORY_COLUMNS
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in self.rows:
                writer.writerow([_format_value(c, row.get(c, np.nan))
                                 for c in columns])

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError("empty history file")
            if header not in (HISTORY_COLUMNS, ["variant"] + HISTORY_COLUMNS):
                raise ValueError("unrecognized history header: %r" % header)
            rows = []
            for parts in filter(None, reader):  # blank lines carry no row
                if len(parts) != len(header):
                    raise ValueError("history line %d has %d fields, the "
                                     "header %d" % (reader.line_num,
                                                    len(parts), len(header)))
                rows.append({col: _parse_value(col, val)
                             for col, val in zip(header, parts)})
            return cls(rows)

    def to_text(self):
        """Terminal table with percent-rendered errors; a line names each
        variant where its rows begin."""
        out = io.StringIO()
        out.write("level iter    dof_u    dof_p     err_u     err_p"
                  "        eta  added\n")
        variant = None
        for r in self.rows:
            if r.get("variant", variant) != variant:
                variant = r["variant"]
                out.write("variant %s\n" % variant)
            eu = r.get("err_u", np.nan)
            ep = r.get("err_p", np.nan)
            out.write("%5d %4d %8d %8d %9s %9s %10.4g %3d+%d\n" % (
                r["level"], r["iteration"], r["n_u"], r["n_p"],
                render_percent(eu) if np.isfinite(eu) else "-",
                render_percent(ep) if np.isfinite(ep) else "-",
                r.get("eta", np.nan),
                r.get("added_u", 0), r.get("added_p", 0)))
        return out.getvalue()


def export_field_snapshots(ops, state, stem):
    """Nodal CSV grids (one row per fine-grid row) of u_x, u_y and p."""
    grid = ops.grid
    d = ops.dofs
    full_u = d.extend_u(state.u)
    full_p = d.extend_p(state.p)
    shape = (grid.nfy + 1, grid.nfx + 1)
    for name, arr in (("u1", full_u[0::2]), ("u2", full_u[1::2]),
                      ("p", full_p)):
        np.savetxt("%s_%s.csv" % (stem, name), arr.reshape(shape),
                   delimiter=",", fmt="%.6g")
