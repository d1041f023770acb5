"""Snowcat reproduction: kernel concurrency testing with a learned
coverage predictor (SOSP 2023).

Public API tour:

- :mod:`repro.kernel` — synthetic kernel substrate (build/evolve kernels)
- :mod:`repro.execution` — sequential/concurrent executors, PCT, races
- :mod:`repro.fuzz` — STI generation and the coverage-guided corpus
- :mod:`repro.analysis` — whole-kernel CFG and URB identification
- :mod:`repro.graphs` — CT graph representation and labeled datasets
- :mod:`repro.ml` — the PIC model, training, baselines, metrics
- :mod:`repro.core` — strategies S1-S3, MLPCT, cost model, orchestrator
- :mod:`repro.run` — ``RunSpec`` + ``execute``: what one campaign run is,
  and the one path that runs it (inline or as a fleet)
- :mod:`repro.integrations` — Razzer and Snowboard case studies
- :mod:`repro.reporting` — table/series rendering for the benches

Quickstart::

    from repro.kernel import build_kernel
    from repro.core import Snowcat, SnowcatConfig

    kernel = build_kernel(seed=42)
    snowcat = Snowcat(kernel, SnowcatConfig(seed=7))
    snowcat.train()                       # corpus -> dataset -> PIC model
    explorer = snowcat.mlpct_explorer("S1")
    campaign = snowcat.run_campaign(explorer, num_ctis=20)
    print(campaign.total_races, "unique potential data races")
"""

__version__ = "1.0.0"

from repro.errors import ReproError

__all__ = ["ReproError", "__version__"]
