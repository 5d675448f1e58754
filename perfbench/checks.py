"""Correctness checks on the outputs of one benchmark round.

Every check recomputes its quantity with numpy/scipy from the assembled forms
and the program's outputs, or tests a property the method must have; none
compares against stored output. `run_checks` returns a `CheckReport`: one
line per check and the enrichment iterations that failed.
"""

from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# relative limits; the measured values sit orders of magnitude below them
KERNEL_TOL = 1e-12
SPECTRUM_TOL = 1e-10
FINE_STEP_TOL = 1e-9
GALERKIN_TOL = 1e-7
ERROR_TOL = 1e-9
MONOTONE_TOL = 1e-9


class CheckReport:
    def __init__(self):
        self.lines = []
        self.iterations = 0
        self.failed_iterations = []

    def add(self, name, ok, worst, limit):
        self.lines.append((name, bool(ok), float(worst), limit))

    @property
    def correct(self):
        return all(ok for _, ok, _, _ in self.lines)

    def failed(self, name):
        return [ln for ln in self.lines if ln[0] == name and not ln[1]]

    def text(self):
        out = []
        for name, ok, worst, limit in self.lines:
            out.append("%-22s %s  worst %.3g  limit %s"
                       % (name, "ok  " if ok else "FAIL", worst, limit))
        out.append("enrichment iterations %d, error increased in %d: %s"
                   % (self.iterations, len(self.failed_iterations),
                      " ".join("%d/%d" % lk for lk in self.failed_iterations)))
        return "\n".join(out)


def _rel(num, den):
    return float(num) / den if den > 0.0 else float(num)


def _energy(A, v):
    return float(np.sqrt(max(v @ (A @ v), 0.0)))


def node_xy(grid):
    """Fine node coordinates, x running fastest."""
    i = np.arange(grid.nfx + 1)
    j = np.arange(grid.nfy + 1)
    x = np.tile(i * grid.hx, j.size)
    y = np.repeat(j * grid.hy, i.size)
    return x, y


def check_kernels(report, ops):
    """Full stiffness forms map rigid motions and constants to zero."""
    x, y = node_xy(ops.grid)
    nn = x.size
    motions = np.zeros((2 * nn, 3))
    motions[0::2, 0] = 1.0
    motions[1::2, 1] = 1.0
    motions[0::2, 2] = -y
    motions[1::2, 2] = x
    worst = 0.0
    for A, vecs in ((ops.stiff_u_full, motions),
                    (ops.stiff_p_full, np.ones((nn, 1)))):
        absA = abs(A)
        for v in vecs.T:
            worst = max(worst, _rel(np.abs(A @ v).max(),
                                    (absA @ np.abs(v)).max()))
    report.add("kernels", worst <= KERNEL_TOL, worst, KERNEL_TOL)


def check_spectra(report, aux):
    """Each local spectrum has 3 (u) and 1 (p) zero eigenvalues, then a
    positive one."""
    worst_zero = 0.0
    min_gap = np.inf
    for spec in aux.spectra:
        for lam, k in ((spec.eigvals_u, 3), (spec.eigvals_p, 1)):
            scale = np.abs(lam).max()
            worst_zero = max(worst_zero, np.abs(lam[:k]).max() / scale)
            min_gap = min(min_gap, lam[k] / scale)
    report.add("spectra.zero", worst_zero <= SPECTRUM_TOL, worst_zero,
               SPECTRUM_TOL)
    report.add("spectra.gap", min_gap > SPECTRUM_TOL, min_gap,
               "> %g" % SPECTRUM_TOL)


def _step_residual(ops, tau, load, prev, st):
    """Residuals of both block rows and the terms each one sums."""
    Au = ops.stiff_u @ st.u
    Dtp = ops.coupling.T @ st.p
    rhs_p = tau * load + ops.coupling @ prev.u + ops.mass_p @ prev.p
    Du = ops.coupling @ st.u
    Sp = ops.mass_p @ st.p + tau * (ops.stiff_p @ st.p)
    return Au - Dtp, Du + Sp - rhs_p, (Au, Dtp), (Du, Sp, rhs_p)


def check_fine_steps(report, ops, tau, load, reference):
    """Every fine step solves its monolithic block equation."""
    worst = 0.0
    for prev, st in zip(reference[:-1], reference[1:]):
        r_u, r_p, terms_u, terms_p = _step_residual(ops, tau, load, prev, st)
        for r, terms in ((r_u, terms_u), (r_p, terms_p)):
            scale = sum(np.linalg.norm(t) for t in terms)
            worst = max(worst, _rel(np.linalg.norm(r), scale))
    report.add("fine_steps", worst <= FINE_STEP_TOL, worst, FINE_STEP_TOL)


def space_sizes(rows, offline, n_steps):
    """(n_u, n_p) of the space each level's final state was solved in."""
    last = {}
    for r in rows:
        last[r["level"]] = (r["n_u"], r["n_p"])
    sizes = [offline]
    cur = offline
    for n in range(1, n_steps + 1):
        cur = last.get(n, cur)
        sizes.append(cur)
    return sizes


def check_coarse_steps(report, ops, tau, load, states, space, sizes):
    """Every coarse step is Galerkin-orthogonal to the space it was solved
    in."""
    worst = 0.0
    for n in range(1, len(states)):
        nu, np_ = sizes[n]
        Ru = space.basis_u[:, :nu]
        Rp = space.basis_p[:, :np_]
        r_u, r_p, terms_u, terms_p = _step_residual(
            ops, tau, load, states[n - 1], states[n])
        for R, r, terms in ((Ru, r_u, terms_u), (Rp, r_p, terms_p)):
            scale = sum(np.linalg.norm(R.T @ t) for t in terms)
            worst = max(worst, _rel(np.linalg.norm(R.T @ r), scale))
    report.add("galerkin", worst <= GALERKIN_TOL, worst, GALERKIN_TOL)


def check_dof_growth(report, rows, offline, final):
    """History sizes grow by exactly the columns each iteration added."""
    bad = 0
    cur = offline
    for r in rows:
        if r["iteration"] == 0:
            want = cur
            if r["added_u"] or r["added_p"]:
                bad += 1
        else:
            want = (cur[0] + r["added_u"], cur[1] + r["added_p"])
        if (r["n_u"], r["n_p"]) != want:
            bad += 1
        cur = (r["n_u"], r["n_p"])
    if cur != final:
        bad += 1
    report.add("dof_growth", bad == 0, bad, 0)


def relative_energy_errors(ops, state, ref):
    du = state.u - ref.u
    dp = state.p - ref.p
    return (_energy(ops.stiff_u, du) / _energy(ops.stiff_u, ref.u),
            _energy(ops.stiff_p, dp) / _energy(ops.stiff_p, ref.p))


def check_final_errors(report, ops, state, ref, reported):
    """The program's final energy errors match a recomputation."""
    own = relative_energy_errors(ops, state, ref)
    worst = max(abs(a - b) / abs(a) for a, b in zip(own, reported))
    report.add("final_errors", worst <= ERROR_TOL, worst, ERROR_TOL)


def resolved_step(lu, ops, tau, load, prev):
    """The fine step from `prev`, with `lu` the factored fine block."""
    rhs = np.concatenate([np.zeros(ops.dofs.n_u),
                          tau * load + ops.coupling @ prev.u
                          + ops.mass_p @ prev.p])
    x = lu.solve(rhs)
    return SimpleNamespace(u=x[:ops.dofs.n_u], p=x[ops.dofs.n_u:])


def check_resolved_decay(report, ops, tau, load, states, calls):
    """At every enriched level the error against the resolved step (the fine
    step from the same previous multiscale state) does not increase from one
    iteration to the next. Each iteration is one operation; an increase marks
    it failed."""
    by_level = defaultdict(list)
    for before, after in calls:
        by_level[before.n].append((before, after))
    report.iterations = len(calls)
    if not calls:
        return
    block = sp.bmat([[ops.stiff_u, -ops.coupling.T],
                     [ops.coupling, ops.mass_p + tau * ops.stiff_p]],
                    format="csc")
    lu = spla.splu(block)
    for level in sorted(by_level):
        ref = resolved_step(lu, ops, tau, load, states[level - 1])
        chain = by_level[level]
        errs = [relative_energy_errors(ops, chain[0][0], ref)]
        errs += [relative_energy_errors(ops, after, ref)
                 for _, after in chain]
        for k in range(1, len(errs)):
            if any(errs[k][i] > errs[k - 1][i] * (1.0 + MONOTONE_TOL)
                   for i in (0, 1)):
                report.failed_iterations.append((level, k))


def interior_load(grid, value):
    """Load vector of a constant source; each interior hat integrates to
    hx*hy."""
    return np.full(grid.interior_fine_nodes.size, value * grid.hx * grid.hy)


def run_checks(result, calls, source_value):
    """All checks on one round's outputs (see `pipeline.run_round`)."""
    exp = result.exp
    ops = exp.ops
    tau = exp.time_grid.tau
    n_steps = exp.time_grid.n_steps
    load = interior_load(ops.grid, source_value)
    offline = (exp.space.n_u, exp.space.n_p)
    final = (result.space.n_u, result.space.n_p)
    report = CheckReport()
    check_kernels(report, ops)
    check_spectra(report, exp.aux)
    check_fine_steps(report, ops, tau, load, exp.reference)
    sizes = space_sizes(result.rows, offline, n_steps)
    check_coarse_steps(report, ops, tau, load, result.states, result.space,
                       sizes)
    check_dof_growth(report, result.rows, offline, final)
    last = result.err_rows[-1]
    check_final_errors(report, ops, result.states[-1], exp.reference[-1],
                       (last["err_u"], last["err_p"]))
    check_resolved_decay(report, ops, tau, load, result.states, calls)
    return report
