"""Common interface of the proxy applications.

A :class:`ProxyApplication` answers two questions for the campaign runner:

* ``item_costs(process, iteration, rng)`` — the pure compute cost of every
  iteration of the *timed loop* (the unit the OpenMP schedule distributes);
  used by the detailed (discrete-event) execution path.
* ``thread_compute_times(...)`` — the per-thread compute time of one
  process-iteration including application-level variability, execution
  jitter and OS noise; used by the vectorised campaign path.

Both paths share the same underlying work decomposition, so they agree in
distribution; the integration tests check that the closed-form path matches
the event-driven path exactly when noise is disabled.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.noise import OSNoiseModel
from repro.cluster.topology import Core
from repro.openmp.schedule import LoopSchedule, StaticSchedule
from repro.sim.random import maybe_scope


@dataclass
class ApplicationConfig:
    """Run configuration shared by all proxy applications.

    Defaults follow the paper's §3.2: 48 threads per process, 200 iterations.
    """

    n_threads: int = 48
    n_iterations: int = 200
    schedule: LoopSchedule = field(default_factory=StaticSchedule)

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")


class ProxyApplication(ABC):
    """Base class of the instrumented proxy applications."""

    #: canonical lower-case name (``'minife'`` ...)
    name: str = "abstract"
    #: name of the instrumented compute region (e.g. ``'matvec'``)
    region: str = "compute"
    #: whether the app's campaign hooks draw whole shard-major tensors
    #: (``True`` for all built-ins); ``False`` routes the ``"campaign"``
    #: backend through the generic campaign-kernel fallback — per-shard
    #: cost draws, whole-campaign schedule fold — which is correct for
    #: any third-party application that only implements the per-shard API
    campaign_tensor: bool = False

    def __init__(self, config: Optional[ApplicationConfig] = None) -> None:
        self.config = config if config is not None else ApplicationConfig()

    # ------------------------------------------------------------------
    # per-process lifecycle
    # ------------------------------------------------------------------
    def begin_process(self, process: int, rng: np.random.Generator) -> None:
        """Hook invoked once per (trial, process) before its iterations run.

        Applications that carry per-process state across iterations (e.g.
        MiniQMC's walker population, whose composition sets that process's
        mover-time statistics for the whole trial) draw it here.  The default
        is stateless.
        """

    # ------------------------------------------------------------------
    # work decomposition
    # ------------------------------------------------------------------
    @abstractmethod
    def item_costs(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Pure compute cost (seconds) of every item of the timed loop."""

    def base_thread_times(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-thread pure compute time under the configured loop schedule."""
        costs = self.item_costs(process, iteration, rng)
        outcome = self.config.schedule.simulate(costs, self.config.n_threads)
        return outcome.busy_time

    def application_delays(
        self, process: int, iteration: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Application-level per-thread extra delays (seconds).

        Models variability that comes from the application rather than the
        OS: cache/bandwidth contention stragglers in MiniFE, neighbour-list
        warm-up in MiniMD, ...  The default is no extra delay.
        """
        return np.zeros(self.config.n_threads)

    # ------------------------------------------------------------------
    # per-shard work decomposition (the campaign kernel's per-shard draws)
    # ------------------------------------------------------------------
    def item_costs_batch(
        self, process: int, n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Cost matrix ``(n_iterations, n_items)`` of a whole shard's loops.

        The generic fallback stacks per-iteration :meth:`item_costs` calls
        (same draws, same order); applications whose per-iteration
        randomness factors into a single distribution override this with one
        2-D draw so an entire (trial, process) shard costs a handful of
        NumPy calls.  Such overrides draw in a *different order* than the
        per-iteration path, so the ``"campaign"`` backend built on them is
        statistically — not bit- — identical to ``"vectorized"``.
        """
        return np.stack(
            [self.item_costs(process, it, rng) for it in range(n_iterations)]
        )

    def application_delays_batch(
        self, process: int, n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Application-level delays ``(n_iterations, n_threads)`` of a shard.

        Generic fallback: stacked per-iteration :meth:`application_delays`.
        """
        return np.stack(
            [self.application_delays(process, it, rng) for it in range(n_iterations)]
        )

    # ------------------------------------------------------------------
    # whole-campaign tensor decomposition (the ``"campaign"`` backend)
    # ------------------------------------------------------------------
    def begin_campaign(
        self, shards: Sequence[tuple], rng: np.random.Generator
    ) -> None:
        """Hook invoked once per shard chunk before its campaign draws.

        The tensor analogue of :meth:`begin_process`: applications with
        per-process state draw it here for *all* ``shards`` — a sequence of
        ``(trial, process)`` pairs — in one shard-major vectorised draw.
        Only consulted when :attr:`campaign_tensor` is true; the generic
        fallback calls :meth:`begin_process` per shard instead.
        """

    def item_costs_campaign(
        self, shards: Sequence[tuple], n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Cost tensor ``(n_shards, n_iterations, n_items)`` of many shards.

        The generic fallback stacks :meth:`item_costs_batch` planes under an
        absolute per-shard draw scope, so chunking the shard axis cannot
        change the draws.  Tensor applications override this with one 3-D
        shard-major draw.
        """
        planes = []
        for trial, process in shards:
            with maybe_scope(rng, "shard", int(trial), int(process)):
                planes.append(self.item_costs_batch(int(process), n_iterations, rng))
        return np.stack(planes)

    def base_thread_times_campaign(
        self, shards: Sequence[tuple], n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Pure compute times ``(n_shards, n_iterations, n_threads)`` of many
        shards, folded through the schedule's whole-campaign kernel — one
        :meth:`~repro.openmp.schedule.LoopSchedule.simulate_campaign` call
        for the entire chunk, each plane bit-identical to the per-shard
        ``simulate_batch`` fold."""
        costs = self.item_costs_campaign(shards, n_iterations, rng)
        return self.config.schedule.simulate_campaign(costs, self.config.n_threads)

    def application_delays_campaign(
        self, shards: Sequence[tuple], n_iterations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Application delays ``(n_shards, n_iterations, n_threads)``.

        Generic fallback: stacked per-shard :meth:`application_delays_batch`
        under absolute per-shard scopes (chunk-invariant).
        """
        planes = []
        for trial, process in shards:
            with maybe_scope(rng, "shard", int(trial), int(process)):
                planes.append(
                    self.application_delays_batch(int(process), n_iterations, rng)
                )
        return np.stack(planes)

    def _apply_campaign_noise(
        self,
        times: np.ndarray,
        shards: Sequence[tuple],
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel],
    ) -> np.ndarray:
        """Apply execution jitter and OS noise plane by plane.

        Each shard's jitter and noise draws sit under its absolute
        ``("shard", trial, process)`` scope (nested inside the ``"jitter"`` /
        ``"noise"`` stage scopes), so a shard's samples depend only on its
        own identity — the invariant that lets chunks run in any order, in
        any partition, on any worker, and still assemble bit-identically.
        """
        if noise is None:
            return times
        if noise.spec.enabled and noise.spec.jitter_fraction > 0:
            jitter = np.empty_like(times)
            with maybe_scope(rng, "jitter"):
                for index, (trial, process) in enumerate(shards):
                    with maybe_scope(rng, "shard", int(trial), int(process)):
                        jitter[index] = rng.normal(
                            1.0, noise.spec.jitter_fraction, size=times.shape[1:]
                        )
            times = times * np.clip(jitter, 0.5, None)
        delays = np.empty_like(times)
        with maybe_scope(rng, "noise"):
            for index, (trial, process) in enumerate(shards):
                with maybe_scope(rng, "shard", int(trial), int(process)):
                    delays[index] = noise.batch_delays(times[index], rng)
        return times + delays

    def finalize_campaign_times(
        self,
        base: np.ndarray,
        shards: Sequence[tuple],
        n_iterations: int,
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel] = None,
    ) -> np.ndarray:
        """Apply delays, jitter and OS noise to a folded busy-time tensor.

        Split out of :meth:`thread_compute_times_campaign` so grouped
        executions (several compatible configs sharing one schedule fold —
        ``ScenarioMatrix`` sweeps, coalesced service jobs) can hoist the fold
        and still draw each config's delays/jitter/noise under the exact
        scopes a solo run uses, keeping grouped results bit-identical to
        per-config runs.
        """
        with maybe_scope(rng, "delays"):
            extra = self.application_delays_campaign(shards, n_iterations, rng)
        if extra.shape != base.shape:
            raise ValueError(
                "application_delays_campaign must return one value per "
                "(shard, iteration, thread)"
            )
        return self._apply_campaign_noise(base + extra, shards, rng, noise)

    def thread_compute_times_campaign(
        self,
        *,
        shards: Sequence[tuple],
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel] = None,
        n_iterations: Optional[int] = None,
    ) -> np.ndarray:
        """Measured compute times of many (trial, process) shards at once.

        The whole-campaign analogue of :meth:`thread_compute_times`:
        returns the ``(n_shards, n_iterations, n_threads)`` tensor with one
        schedule fold over the entire chunk and per-shard scoped jitter and
        noise draws.  Draws are keyed by absolute purpose (``rng`` is
        normally the campaign backend's
        :class:`~repro.sim.random.PurposeSplitRNG`), so any partition of the
        shard axis — serial or across worker processes — produces
        bit-identical samples.  Applications without
        :attr:`campaign_tensor` fall back to per-shard ``*_batch`` draws
        under absolute per-shard scopes (:meth:`_campaign_fallback`) — same
        chunk-invariance, no 3-D overrides required.
        """
        n_iter = self.config.n_iterations if n_iterations is None else n_iterations
        if n_iter < 1:
            raise ValueError("n_iterations must be >= 1")
        shards = [(int(trial), int(process)) for trial, process in shards]
        if not self.campaign_tensor:
            return self._campaign_fallback(shards, n_iter, rng, noise)
        with maybe_scope(rng, "state"):
            self.begin_campaign(shards, rng)
        with maybe_scope(rng, "costs"):
            base = self.base_thread_times_campaign(shards, n_iter, rng)
        return self.finalize_campaign_times(base, shards, n_iter, rng, noise)

    def _campaign_fallback(
        self,
        shards: Sequence[tuple],
        n_iterations: int,
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel],
    ) -> np.ndarray:
        """Generic 3-D campaign kernel for apps without tensor overrides.

        Only the *draws* remain per shard: each shard's process state, cost
        matrix and application delays are gathered under its absolute
        ``("shard", trial, process)`` scope (so any chunking of the shard
        axis replays identical draws), then the stacked
        ``(n_shards, n_iterations, n_items)`` cost tensor folds through the
        schedule's whole-campaign kernel and jitter/OS noise apply plane by
        plane under the same absolute shard scopes — the same shape of
        work the tensor applications get, without any 3-D overrides.
        Shards whose item counts differ (rare heterogeneous apps) fall back
        to per-plane ``simulate_batch`` folds — same kernels, same draws.
        """
        costs = []
        extras = []
        for trial, process in shards:
            with maybe_scope(rng, "shard", trial, process):
                self.begin_process(process, rng)
                costs.append(self.item_costs_batch(process, n_iterations, rng))
                extras.append(
                    self.application_delays_batch(process, n_iterations, rng)
                )
        extra = np.stack(extras)
        if len({plane.shape for plane in costs}) == 1:
            base = self.config.schedule.simulate_campaign(
                np.stack(costs), self.config.n_threads
            )
        else:  # ragged item counts across shards: per-plane batch folds
            base = np.stack(
                [
                    self.config.schedule.simulate_batch(plane, self.config.n_threads)
                    for plane in costs
                ]
            )
        if extra.shape != base.shape:
            raise ValueError(
                "application_delays_batch must return one value per "
                "(iteration, thread)"
            )
        return self._apply_campaign_noise(base + extra, shards, rng, noise)

    # ------------------------------------------------------------------
    # sampling (vectorised campaign path)
    # ------------------------------------------------------------------
    def thread_compute_times(
        self,
        *,
        process: int,
        iteration: int,
        rng: np.random.Generator,
        noise: Optional[OSNoiseModel] = None,
        cores: Optional[Sequence[Core]] = None,
        region_start_s: float = 0.0,
    ) -> np.ndarray:
        """Per-thread measured compute time of one process-iteration.

        Combines the schedule's per-thread busy time, application-level
        delays, execution jitter and OS-noise preemptions.
        """
        base = self.base_thread_times(process, iteration, rng)
        extra = self.application_delays(process, iteration, rng)
        if extra.shape != base.shape:
            raise ValueError("application_delays must return one value per thread")
        times = base + extra
        if noise is not None:
            if noise.spec.enabled and noise.spec.jitter_fraction > 0:
                jitter = rng.normal(1.0, noise.spec.jitter_fraction, size=times.shape)
                times = times * np.clip(jitter, 0.5, None)
            if cores is not None:
                # exact per-core noise (event-path parity)
                if len(cores) != len(times):
                    raise ValueError("need exactly one core per thread")
                times = times + np.array(
                    [
                        noise.delay_over(core, region_start_s, float(times[t]))
                        for t, core in enumerate(cores)
                    ]
                )
            else:
                # statistically equivalent vectorised noise (campaign fast path)
                times = times + noise.batch_delays(times, rng)
        return times

    # ------------------------------------------------------------------
    # reference kernel
    # ------------------------------------------------------------------
    @abstractmethod
    def run_reference_kernel(self, rng: np.random.Generator) -> Dict[str, float]:
        """Execute a reduced-scale version of the timed kernel.

        Returns a dictionary of checkable quantities (norms, energies, ...).
        Used by unit tests and by the quickstart example to show that the
        simulated work models correspond to real numerical kernels.
        """

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Human-readable application description for reports."""
        return {
            "name": self.name,
            "region": self.region,
            "n_threads": self.config.n_threads,
            "n_iterations": self.config.n_iterations,
            "schedule": type(self.config.schedule).__name__,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(threads={self.config.n_threads})"
