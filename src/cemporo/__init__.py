"""Multiscale finite element solver for heterogeneous linear poroelasticity.

Coarse spaces are built by constraint-energy minimization over oversampled
patches around spectral auxiliary modes, and refined online from localized
time-step residuals.
"""

from .grid import (GridPair, Patch, PartitionOfUnity, build_grids,
                   oversample_element, oversample_neighborhood,
                   partition_of_unity)
from .material import MaterialField, lame_from_E, load_field, save_field, \
    synth_channels
from .assembly import OperatorSet, DofMap, assemble_operators, assemble_load
from .spectral import (AuxBasis, solve_local_spectral, build_aux_basis,
                       spectral_diagnostics, SpectralDiagnostics)
from .cembasis import MultiscaleSpace, PatchSolver, build_offline_basis
from .timestepping import (TimeGrid, State, ResidualSet, FineSolver,
                           CoarseSolver, NumericalFailure, compute_residuals,
                           run)
from .online import OnlineConfig, Enricher, select_regions
from .report import (EnrichmentHistory, energy_errors,
                     export_field_snapshots, render_percent)

__version__ = "0.1.0"
