"""Experiment harness: regenerate the paper's tables and figures.

* :mod:`repro.analysis.experiment` — run one workload under baseline and
  TimeCache configurations and compute normalized execution time, MPKI,
  and first-access MPKI per cache level;
* :mod:`repro.analysis.tables` — text renderers that print rows/series
  in the same layout as the paper's Table II and Figures 7-10;
* :mod:`repro.analysis.runner` — the sweep drivers the benchmark suite
  calls (SPEC pair sweeps, the PARSEC sweep, the LLC-size sensitivity
  sweep), and the job builders and result checkpoint the CLI's
  resumable sweeps run through the supervised executor.
"""

from repro.analysis.experiment import (
    ExperimentResult,
    LevelMpki,
    run_parsec_experiment,
    run_spec_pair_experiment,
)
from repro.analysis.export import (
    load_json,
    result_to_dict,
    save_json,
    sweep_to_dict,
)
from repro.analysis.runner import (
    llc_sensitivity_sweep,
    parsec_jobs,
    parsec_sweep,
    result_checkpoint,
    spec_pair_jobs,
    spec_pair_sweep,
)
from repro.analysis.tables import (
    render_figure_series,
    render_mpki_table,
    render_table2,
)

__all__ = [
    "ExperimentResult",
    "LevelMpki",
    "load_json",
    "result_to_dict",
    "save_json",
    "sweep_to_dict",
    "llc_sensitivity_sweep",
    "parsec_jobs",
    "parsec_sweep",
    "render_figure_series",
    "render_mpki_table",
    "render_table2",
    "result_checkpoint",
    "run_parsec_experiment",
    "run_spec_pair_experiment",
    "spec_pair_jobs",
    "spec_pair_sweep",
]
