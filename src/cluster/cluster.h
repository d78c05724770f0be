/**
 * @file
 * Cluster fleet simulator: co-simulates N independent `sim::Soc`
 * instances (homogeneous or heterogeneous configurations) under one
 * cluster-level event loop, with a front-end `Dispatcher` deciding
 * task placement at arrival time.
 *
 * Execution model.  SoCs share nothing — each owns its tiles, L2, and
 * DRAM channel — so between cluster-level events (task arrivals) every
 * SoC evolves independently.  The loop therefore advances each busy
 * SoC through its own next-event times up to the next arrival (the
 * exact clamp `Soc::stepOnce(horizon)` provides), snapshots every
 * SoC's load, asks the dispatcher for a placement, injects the task
 * into the chosen SoC at its exact dispatch cycle, and repeats;
 * after the last arrival the fleet drains to completion.  The
 * advance between dispatch points runs on the conservative-PDES
 * engine (cluster/parallel.h): `ClusterConfig::jobs` threads claim
 * SoCs from a shared cursor with an epoch barrier at every arrival,
 * and the run is bit-identical for every jobs value (each SoC's own
 * kernel is deterministic and advanced by one thread per epoch), so a
 * cluster run is a pure function of (configs, dispatcher spec, task
 * stream, seed) — and a 1-SoC cluster replays the single-SoC
 * scenario path bit-identically.
 *
 * runCluster is the open-loop front end of the fleet core
 * (cluster/fleet.h), which owns the slots, the engine, load
 * snapshots, injection, harvest and the result aggregation; the
 * closed-loop serving driver (serve/serve.h) is the other front end.
 * This one only walks the fixed arrival stream, one advance per
 * arrival.
 *
 * Results come back as a `ClusterResult`: fleet-level SLA rate,
 * p50/p95/p99 end-to-end latency, total STP, a per-SoC utilization /
 * load-balance breakdown, and the per-SoC metrics themselves.
 */

#ifndef MOCA_CLUSTER_CLUSTER_H
#define MOCA_CLUSTER_CLUSTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/workload.h"
#include "common/stats.h"
#include "metrics/metrics.h"
#include "sim/config.h"

namespace moca::obs {
struct Capture;
}

namespace moca::cluster {

/** Configuration of one cluster run. */
struct ClusterConfig
{
    /** Per-SoC configurations; size() is the fleet size. */
    std::vector<sim::SocConfig> socs;

    /** Per-SoC scheduling policy spec (exp::PolicyRegistry); every
     *  SoC runs its own instance. */
    std::string policy = "moca";

    /** Front-end dispatcher spec (DispatcherRegistry). */
    std::string dispatcher = "rr";

    /** Seed for randomized dispatchers (random, p2c). */
    std::uint64_t dispatcherSeed = 1;

    /**
     * Threads of the conservative-PDES engine that advance the fleet
     * between dispatch points (cluster/parallel.h), the calling
     * thread included: jobs - 1 workers (at most one per SoC beyond
     * the first) claim SoCs beside the caller each epoch.  Results
     * are bit-identical for every value (jobs=1 runs the same
     * per-SoC code inline, threadless).  Must be >= 1 (fatal
     * otherwise).
     */
    int jobs = 1;

    /** Per-SoC deadlock bound; 0 uses each SocConfig's maxCycles. */
    Cycles maxCycles = 0;

    /**
     * Wall-clock phase profiling (see ClusterResult::phases and
     * cluster/parallel.h phaseTotals).  Diagnostic only; leave off
     * for timing=0 determinism baselines — the fields it fills are
     * wall-clock and would be nonzero.
     */
    bool profile = false;

    /**
     * Telemetry capture bag (obs/capture.h): when non-null the run
     * enables every SoC's TraceRecorder (stamped with its slot id),
     * records PDES epoch/stall spans, and copies out any sampled
     * timeseries.  Observational only — results are bit-identical
     * with or without it.  The capture is written by this run's
     * coordinator alone: never share one across concurrent cells.
     */
    obs::Capture *capture = nullptr;

    /** A homogeneous fleet of `n` copies of `soc`. */
    static ClusterConfig homogeneous(int n, const sim::SocConfig &soc);
};

/**
 * Wall-clock breakdown of one fleet run's execution phases (zeros
 * unless ClusterConfig::profile): where the run actually spent its
 * time, summed over the ClusterConfig::jobs threads that advance
 * SoCs.  The coordinator is one of them, so its own SoC claims count
 * in shardAdvanceSec and its wait for the last worker to check in
 * counts in barrierWaitSec; dispatchSec is its placement and
 * injection work between epochs (which workers spend parked, so it
 * also shows up in their barrierWaitSec).
 */
struct PhaseBreakdown
{
    double shardAdvanceSec = 0.0; ///< Threads advancing claimed SoCs.
    double barrierWaitSec = 0.0;  ///< Threads waiting at the barrier.
    double dispatchSec = 0.0;     ///< Coordinator placement+injection.
};

/** Per-SoC share of a cluster run. */
struct SocShare
{
    int tasks = 0;          ///< Tasks the dispatcher placed here.
    metrics::RunMetrics metrics; ///< Per-SoC SLA/STP/fairness.
    Cycles makespan = 0;    ///< Cycle the SoC's last job finished.
    double dramBusyFraction = 0.0;
    std::uint64_t simSteps = 0;
};

/** Outcome of one cluster run. */
struct ClusterResult
{
    std::string dispatcher; ///< Dispatcher spec the run used.
    std::string policy;     ///< Per-SoC policy spec.
    int numSocs = 0;
    std::size_t numTasks = 0;

    double slaRate = 0.0;     ///< Fleet SLA satisfaction in [0, 1].
    double slaRateHigh = 0.0; ///< ... of the p-High priority group.

    /** End-to-end latency tails in cycles (queue wait + runtime). */
    PercentileSummary latency;
    /** ... normalized to each job's isolated full-SoC latency. */
    PercentileSummary normLatency;

    double stp = 0.0;    ///< Fleet system throughput (sum of per-SoC).
    Cycles makespan = 0; ///< Cycle the last job fleet-wide finished.

    /**
     * Goodput: completed-within-SLO tasks per second at the 1 GHz
     * Table II clock (SLA-met completions * 1e9 / makespan).  Under
     * the closed-loop serving layer (serve/serve.h) only client-
     * observed responses count — a completion whose client already
     * timed out is wasted work, not goodput.
     */
    double goodput = 0.0;

    /**
     * Serving-control-loop outcome rates, all fractions of the
     * attempts the front-end handled.  Always zero for plain
     * open-loop runCluster runs (there is no client to time out and
     * no admission controller to shed); the closed-loop serve driver
     * fills them from its counters.
     */
    double shedRate = 0.0;    ///< Attempts rejected by admission.
    double retryRate = 0.0;   ///< Attempts that were client retries.
    double timeoutRate = 0.0; ///< Attempts whose client timed out.
    std::uint64_t shedTasks = 0;     ///< Admission rejections.
    std::uint64_t deferredTasks = 0; ///< Admission deferrals.
    std::uint64_t retryTasks = 0;    ///< Client retry attempts.
    std::uint64_t timeoutTasks = 0;  ///< Client-side timeouts.

    /**
     * Load-balance quality: coefficient of variation (stddev/mean) of
     * per-SoC placed-task counts.  0 = perfectly balanced; rises as
     * the dispatcher concentrates load.
     */
    double balanceCv = 0.0;

    std::uint64_t simSteps = 0; ///< Total kernel rounds, all SoCs.

    /**
     * Lookahead quality of the conservative-PDES fleet loop
     * (cluster/parallel.h): barrier epochs executed, mean SoCs
     * advanced per epoch, and horizon stalls (would-be epochs whose
     * lookahead window held no SoC activity — simultaneous arrivals
     * or a drained fleet).  Identical across ClusterConfig::jobs
     * values, like everything else here.
     */
    std::uint64_t epochs = 0;
    std::uint64_t horizonStalls = 0;
    double meanSocsStepped = 0.0;

    /** Wall-clock phase profile (zeros unless cfg.profile; excluded
     *  from timing=0 sinks like every wall-clock field). */
    PhaseBreakdown phases;

    std::vector<SocShare> perSoc;
};

/**
 * Run one cluster: place and execute `tasks` (sorted by arrival) on
 * the fleet described by `cfg`.  Fatal on empty fleets, unknown
 * policy/dispatcher specs, or an unsorted task stream.
 */
ClusterResult runCluster(const ClusterConfig &cfg,
                         const std::vector<ClusterTask> &tasks);

} // namespace moca::cluster

#endif // MOCA_CLUSTER_CLUSTER_H
