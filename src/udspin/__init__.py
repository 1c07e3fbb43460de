"""udspin: exact simulator for symmetric N-particle D-level systems.

Importing it loads numpy, not scipy: scipy is imported inside the
functions that call it, so closed-form work never pays for it.
"""

from .errors import (
    UdspinError,
    CapacityError,
    EmptySectorError,
    IntegrityError,
    ConfigError,
)
from .basis import (
    MAX_TABLE_BYTES,
    dimension,
    enumerate_occupations,
    occupation_rank,
    occupation_ranks,
    occupation_unrank,
    SymmetricBasis,
    shared_basis,
    SymmetricState,
    basis_ket,
    matrix_element,
    apply_sij,
    expval_sij,
    expval_sij_skl,
    expval_matrix,
    expval_tables,
)
from .states import (
    dscs,
    dscs_overlap,
    dscs_expval_tables,
    parity_apply,
    parity_expval,
    project_even,
    project_odd,
    representative,
    dcat,
    dcat_norm_squared,
    dcat_expval_tables,
    nodon,
    nodon_expval_tables,
)
from .rdm import (
    EntropyReport,
    entropies,
    spectrum_entropies,
    level_populations,
    level_rdm,
    level_purity,
    one_qudit_rdm,
    one_qudit_rdm_from_tables,
    two_qudit_rdm,
    two_qudit_rdm_from_tables,
    partial_trace_oracle,
    check_density_matrix,
    dcat_one_qudit_purity,
    dcat_two_qudit_purity,
    dscs_level_weights,
)
from .squeezing import (
    SqueezingReport,
    squeezing_report,
    squeezing_report_from_tables,
    xi_pair,
    xi_total,
    su2_xi,
)
from .lmg import (
    LmgParams,
    StationaryPoint,
    GroundStateResult,
    build_hamiltonian,
    ground_state,
    energy_surface,
    stationary_point,
    thermo_energy,
    thermo_curvature,
    variational_cat,
    variational_energy,
)
from .sweep import (
    SweepConfig,
    SweepRecord,
    SurfaceConfig,
    default_lambda_grid,
    run_sweep,
    render_records,
    write_records,
    validate_table,
    surface_table,
    stationary_table,
    write_surface,
)
from .selftest import run_selftest

__version__ = "0.1.0"
