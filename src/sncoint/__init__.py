"""Self-normalized and bootstrap-assisted inference for cointegrating regressions."""

__version__ = "0.1.0"

from .asymptotics import (
    LocalPowerCurve,
    local_power,
    simulate_critical_values,
    simulate_limit_statistics,
)
from .battery import (AnalysisReport, ar1_persistence, run_analysis, standard_battery, standard_statistics,
                      study_from_config)  # fmt: skip
from .bootstrap import (
    BootstrapConfig,
    NullModel,
    VarSieveModel,
    bootstrap_test,
    generate_bootstrap_sample,
    yule_walker,
)
from .estimators import (
    DOlsFit,
    FittedSample,
    FmOlsFit,
    ImOlsFit,
    OlsFit,
    RestrictionSpec,
    d_ols,
    fm_ols,
    im_ols,
    levels_residuals,
    ols,
    restricted_im_ols,
)
from .kernels import (
    BARTLETT,
    QUADRATIC_SPECTRAL,
    KernelSpec,
    LrvEstimate,
    andrews_bandwidth,
    conditional_lrv,
    estimate_lrv,
    kernel_weight,
    lrv_matrix,
    one_sided_lrv,
)
from .montecarlo import (
    DgpConfig,
    ExperimentResult,
    generate_dgp,
    simulate_garch_innovations,
    size_adjusted_power,
    size_experiment,
)
from .selfnorm import (
    TestOutcome,
    bootstrap_statistic,
    diff_residual_lrv,
    self_normalized_test,
    self_normalizer,
    traditional_wald,
    wald_statistic,
)
from .tables import CriticalValueTable, default_table, load_table, save_table
from .timeseries import (
    CointegrationSample,
    Deterministics,
    build_deterministics,
    first_difference,
    partial_sum,
)


def __getattr__(name: str):
    # The command-line module loads on first use, so that
    # ``python -m sncoint.cli`` does not find it already imported.
    if name == "ingest_csv":
        from .cli import ingest_csv

        return ingest_csv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
