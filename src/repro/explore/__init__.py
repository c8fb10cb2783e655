"""Design-space exploration: declarative campaigns over the predictor.

The paper's interpretive framework exists so that HPF application design —
directives, problem size, system size, target machine — can be *tuned
without running the program* (§1; §5.2's directive-selection study is the
canonical example).  This subsystem turns that workflow into an engine:

* :mod:`~repro.explore.space`    — declarative :class:`ScenarioSpace`
  (machine × topology shape × directives × problem size × nprocs) expanding
  to validity-filtered :class:`ScenarioPoint` s,
* :mod:`~repro.explore.campaign` — :func:`run_campaign`: memoised, in-process
  evaluation with exhaustive, random-sampling and hill-climbing strategies,
* :mod:`~repro.explore.store`    — the persistent, schema-versioned,
  content-addressed :class:`ResultStore` (JSONL) that lets campaigns resume
  and results accumulate across revisions,
* :mod:`~repro.explore.report`   — best-config tables, Pareto frontiers and
  error-band summaries rendered through the Output Module,
* :mod:`~repro.explore.sharding` + :mod:`~repro.explore.checkpoint` — the
  scale layer and the one parallel path: :func:`run_sharded_campaign`
  partitions a space deterministically across worker processes, streams
  per-shard store segments, checkpoints after every chunk for
  zero-recompute resume, and merges through :func:`store_diff` — with optional
  ``fidelity="screen+sim"`` successive-halving corroboration.

>>> from repro.explore import ScenarioSpace, ResultStore, run_campaign
>>> space = ScenarioSpace(apps=("laplace_block_star",), sizes=(64, 128),
...                       proc_counts=(2, 4, 8), machines=("ipsc860", "paragon"))
>>> run = run_campaign(space, store=ResultStore("results.jsonl"))
>>> print(run.best().point.label())
"""

from .campaign import (
    MODES,
    STRATEGIES,
    Campaign,
    CampaignRun,
    compile_scenario,
    evaluate_point,
    evaluate_points,
    resolve_campaign_machine,
    run_campaign,
)
from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CampaignCheckpoint,
    CheckpointError,
    ShardCheckpoint,
    checkpoint_path_for,
    shard_checkpoint_path_for,
)
from .report import (
    StoreDiff,
    best_config_table,
    campaign_report,
    error_table,
    pareto_frontier,
    pareto_table,
    store_diff,
    store_diff_table,
)
from .sharding import (
    FIDELITIES,
    SHARD_STRATEGIES,
    CampaignInterrupted,
    ShardedCampaignRun,
    ShardOutcome,
    partition_key,
    partition_points,
    run_sharded_campaign,
    segment_path,
    shard_of,
    space_fingerprint,
)
from .space import (
    ProgramSpec,
    ScenarioError,
    ScenarioPoint,
    ScenarioSpace,
    default_grid_shape,
    laplace_design_space,
)
from .store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    ScenarioResult,
    StoreError,
    StoreSchemaError,
    prediction_error_pct,
    program_sha,
    quarantine_path_for,
    scenario_key,
)

__all__ = [
    "MODES",
    "STRATEGIES",
    "Campaign",
    "CampaignRun",
    "compile_scenario",
    "evaluate_point",
    "evaluate_points",
    "resolve_campaign_machine",
    "run_campaign",
    "CHECKPOINT_SCHEMA_VERSION",
    "CampaignCheckpoint",
    "CheckpointError",
    "ShardCheckpoint",
    "checkpoint_path_for",
    "shard_checkpoint_path_for",
    "FIDELITIES",
    "SHARD_STRATEGIES",
    "CampaignInterrupted",
    "ShardedCampaignRun",
    "ShardOutcome",
    "partition_key",
    "partition_points",
    "run_sharded_campaign",
    "segment_path",
    "shard_of",
    "space_fingerprint",
    "StoreDiff",
    "best_config_table",
    "campaign_report",
    "error_table",
    "pareto_frontier",
    "pareto_table",
    "store_diff",
    "store_diff_table",
    "ProgramSpec",
    "ScenarioError",
    "ScenarioPoint",
    "ScenarioSpace",
    "default_grid_shape",
    "laplace_design_space",
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "ScenarioResult",
    "StoreError",
    "StoreSchemaError",
    "prediction_error_pct",
    "program_sha",
    "quarantine_path_for",
    "scenario_key",
]
