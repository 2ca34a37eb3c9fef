"""Trace-driven simulator for short-video preloading strategies.

Watch-time estimation (three-parameter Weibull fits per video, with a
duration-bucket fallback), demand-based video selection, a learned
continuous range policy trained with PPO, fixed baselines, and an experiment
harness with deterministic reports.
"""

import os

# One BLAS thread: PPO updates are bit-reproducible only at a fixed thread
# count. A value the user set wins. BLAS reads these when numpy first loads,
# so the pin has no effect in a process that imported numpy before swipesim.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .demand import DemandVector, compute_demands, demand_playing, select_video
from .harness import (
    ConfigError,
    DataError,
    ExperimentSpec,
    Report,
    RunRecord,
    ingest_traces,
    load_catalog,
    load_report,
    load_retention,
    load_watch_records,
    range_medians_by_trace_tercile,
    run_experiment,
    simulate_one,
    train_policy,
)
from .media import RangeSegment, Trace, VideoMeta, VideoState, WatchRecord, swipe
from .policy import (
    MlpNet,
    PolicyConfig,
    PolicyExtras,
    Strategy,
    baseline_policy,
    build_state,
    load_checkpoint,
    map_to_range,
    save_checkpoint,
)
from .ppo import (
    RewardWeights,
    TrainConfig,
    attribute_reward_terms,
    compute_reward,
    discounted_returns,
    ppo_update,
    train,
    write_learning_curve,
)
from .sim import RetentionSource, SessionMetrics, SimConfig, abr_select, estimate_network, run_session
from .synthetic import SyntheticSpec, write_suite
from .watchtime import (
    FitConfig,
    FitError,
    ParamTable,
    WeibullFit,
    WeibullParams,
    build_param_table,
    fit_weibull_lse,
    sample_weibull,
    weibull_cdf,
    weibull_pdf,
    weibull_quantile,
    weibull_survival,
)

__version__ = "0.1.0"
