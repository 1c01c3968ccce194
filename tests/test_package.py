"""The package's public surface: crisscross.__all__ is the union of the
module __all__s, each name is the module's own object, and nothing the
package exported before is lost."""
from __future__ import annotations

import importlib

import crisscross

MODULES = ("params", "workload", "policies", "simulate", "bcp", "experiments")

# Every name the package exported when its export list was still typed out
# by hand; the package must keep exporting each of them.
EXPORTED_BEFORE = (
    "__version__",
    "NetworkLimits", "RNetwork", "ThresholdConstants", "ValidationReport", "Config", "ConfigError",
    "validate_limits", "make_r_network", "poisson_rate_function", "varsigma2",
    "compute_threshold_constants", "kappa_bound", "load_config",
    "WorkloadMatrix", "LpSolution", "SamplePath", "effective_cost", "effective_cost_coefficients",
    "lp_oracle", "skorohod_reflect", "skorohod_regulator",
    "IDLE", "BUFFER1", "BUFFER2", "BUFFER3", "indicator_form_audit", "PolicyAuditError",
    "make_policy", "POLICY_NAMES",
    "Trajectory", "ScaledTrajectory", "ConservationReport", "simulate", "fluid_scale",
    "diffusion_scale", "check_conservation", "write_scaled_csv",
    "LimitBm", "RbmPath", "CostEstimate", "AdmissibilityReport", "simulate_rbm",
    "optimal_queue_path", "estimate_j_star", "admissibility_audit",
    "PathCost", "DiscountedCostRun", "SweepResult", "DiagnosticsReport", "LdCheckRow",
    "discounted_cost", "estimate_cost", "convergence_sweep", "run_diagnostics", "collapse_bound",
    "ld_check", "fluid_allocation_gap", "replication_seed", "reference_seed", "replicate",
)


def test_the_package_exports_each_name_once():
    assert len(crisscross.__all__) == len(set(crisscross.__all__))


def test_the_package_exports_exactly_the_module_lists_bound_to_the_module_objects():
    names = ["__version__"]
    for module_name in MODULES:
        module = importlib.import_module(f"crisscross.{module_name}")
        for name in module.__all__:
            assert getattr(crisscross, name) is getattr(module, name), (module_name, name)
        names.extend(module.__all__)
    assert crisscross.__all__ == names


def test_every_name_exported_before_is_still_exported():
    assert set(EXPORTED_BEFORE) <= set(crisscross.__all__)
    assert {"event_budget", "is_seed", "parse_config"} <= set(crisscross.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from crisscross import *", namespace)
    for name in crisscross.__all__:
        assert namespace[name] is getattr(crisscross, name), name
