/**
 * @file
 * The fleet core shared by both fleet front ends — the open-loop
 * cluster driver (cluster/cluster.h) and the closed-loop serving
 * driver (serve/serve.h).  It owns everything between a front end's
 * placement decisions and the per-SoC kernels: the slots and their
 * SoC incarnations, the front-end dispatcher, the conservative-PDES
 * engine (cluster/parallel.h) with its epoch-span capture, load
 * snapshots, injection, completion harvest, and the one aggregation
 * routine that turns a finished fleet into a `ClusterResult`.
 *
 * The front ends keep only what differs between them: runCluster
 * walks a fixed arrival stream, advancing once per arrival; the
 * serving driver runs its event queue, control quanta, client
 * reactions, admission and capacity churn.  Every call here is
 * coordinator-only, between epochs, so a front end built on it
 * inherits the engine's jobs=1 == jobs=N contract.
 */

#ifndef MOCA_CLUSTER_FLEET_H
#define MOCA_CLUSTER_FLEET_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "cluster/parallel.h"
#include "sim/policy.h"
#include "sim/soc.h"

namespace moca::cluster {

/**
 * What aggregate() reads of a dead incarnation: its results, its
 * final stats, and its trace events when capture is on (empty
 * otherwise).  Kept when the slot reboots, so the dead SoC and its
 * policy state can be freed.
 */
struct RetiredIncarnation
{
    std::vector<sim::JobResult> results;
    sim::SocStats stats;
    std::vector<sim::TraceEvent> events;
};

/**
 * One fleet slot: a fixed position in the PDES engine.  A failure
 * (serve layer) freezes the live SoC; the reboot retires it into a
 * `RetiredIncarnation` record, frees it, and boots a fresh SoC into
 * the slot.  The slot's share of the run is summed over the retired
 * records, oldest first, and the live SoC.
 */
struct FleetSlot
{
    /** The slot's SoC configuration, socId = slot index (the SoC's
     *  trace/telemetry identity). */
    sim::SocConfig cfg;
    /** Dead incarnations, oldest first. */
    std::vector<RetiredIncarnation> retired;
    /** The live incarnation; the policy is declared before the SoC
     *  that references it, so the SoC is destroyed first. */
    std::unique_ptr<sim::Policy> policy;
    std::unique_ptr<sim::Soc> soc;
    /** Live incarnation: dense job id -> the front end's request id. */
    std::vector<int> jobReq;
    /** Results of the live incarnation already harvested. */
    std::size_t harvested = 0;
    int placed = 0;               ///< Placements over all incarnations.
    double outstandingMacs = 0.0; ///< Dispatcher feedback signal.

    sim::Soc &live() const { return *soc; }
    int incarnation() const { return static_cast<int>(retired.size()); }
};

class Fleet
{
  public:
    /**
     * Build one slot per `cfg.socs` entry (policy cfg.policy, run
     * bound cfg.maxCycles, tracing on when cfg.capture is set), the
     * cfg.dispatcher instance and a cfg.jobs-worker PDES engine.
     * Fatal on an empty fleet or an invalid spec.
     */
    explicit Fleet(const ClusterConfig &cfg);

    std::size_t size() const { return slots_.size(); }
    const FleetSlot &slot(std::size_t i) const { return slots_[i]; }

    /** Fleet clock: the previous advance's end. */
    Cycles now() const { return now_; }

    /**
     * One PDES epoch to `horizon` (sim::kNoHorizon drains the fleet;
     * the clock then lands on the latest live-SoC clock).  With
     * capture on, records the epoch or horizon-stall span from the
     * previous advance's end to this one's.
     */
    void advance(Cycles horizon);

    /**
     * Visit every result the live incarnations produced since the
     * last harvest, in slot-index order, retiring its work from the
     * slot's outstanding MACs first.  `on_result(slot, req, result)`
     * gets the request id the job was injected with; it must not
     * inject (the slot's job->request map is being read).
     */
    template <typename F>
    void
    harvest(F &&on_result)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            FleetSlot &slot = slots_[i];
            const auto &results = slot.live().results();
            const auto &job_req = slot.jobReq;
            for (std::size_t r = slot.harvested; r < results.size();
                 ++r) {
                const sim::JobResult &jr = results[r];
                slot.outstandingMacs -=
                    static_cast<double>(jr.spec.model->totalMacs());
                on_result(i, job_req[static_cast<std::size_t>(
                                 jr.spec.id)],
                          jr);
            }
            slot.harvested = results.size();
        }
    }

    /** Load snapshot of slot `i`'s live SoC. */
    SocLoad load(std::size_t i) const;

    /** Ask the dispatcher to place `task` among `loads` (candidate
     *  slots); returns the chosen slot index.  Fatal when the
     *  dispatcher's answer is out of range. */
    std::size_t place(const ClusterTask &task,
                      const std::vector<SocLoad> &loads);

    /** Inject `task` into slot `i`'s live SoC, dispatched at
     *  task.arrival, on behalf of request `req`; returns its job id. */
    int inject(std::size_t i, const ClusterTask &task, int req);

    /** Freeze slot `i` (failure): the engine stops advancing it and
     *  its outstanding work is written off. */
    void freeze(std::size_t i);

    /**
     * Reboot the frozen slot `i`: retire its dead incarnation (results
     * plus the statistics aggregate() reads), free that SoC and its
     * policy, and boot a fresh incarnation at the fleet clock now() —
     * on the fleet's tick grid, with no ticks before it — into the
     * engine.  Panics when slot `i` is still running.
     */
    void reincarnate(std::size_t i);

    /**
     * Finish the live incarnations and fill `out`'s fleet-shape
     * fields: spec names, numSocs, per-slot shares (summed over the
     * retired incarnations, oldest first, then the live one; each
     * slot normalized by its own config; dramBusyFraction weighted by
     * incarnation lifetime), STP, makespan, sim steps, balanceCv,
     * epoch stats and — when profiling — phases (with `dispatch_sec`
     * as the coordinator time).  With capture on, copies out every
     * incarnation's trace events and the live SoCs' sampled series.
     * Call once, after the final drain.
     */
    void aggregate(ClusterResult &out, double dispatch_sec);

  private:
    /** Boot a fresh live incarnation into `slot` at `start`. */
    void boot(FleetSlot &slot, Cycles start);

    const ClusterConfig cfg_;
    std::vector<FleetSlot> slots_;
    std::unique_ptr<Dispatcher> dispatcher_;
    std::unique_ptr<ParallelEngine> engine_;
    Cycles now_ = 0;
};

/**
 * The client-facing fleet aggregates — SLA rates, latency tails and
 * goodput — fed one completion at a time.  runCluster feeds every
 * completion; the serving driver feeds only client-observed
 * responses.
 */
class CompletionTally
{
  public:
    /** Count `jr`, which ran on a SoC configured as `soc`. */
    void add(const sim::JobResult &jr, const sim::SocConfig &soc);

    std::size_t count() const { return latencies_.size(); }

    /** Fill slaRate, slaRateHigh, latency, normLatency and goodput;
     *  goodput reads out.makespan, so call after Fleet::aggregate. */
    void fill(ClusterResult &out) const;

  private:
    std::vector<double> latencies_, normLatencies_;
    std::size_t met_ = 0, high_ = 0, highMet_ = 0;
};

} // namespace moca::cluster

#endif // MOCA_CLUSTER_FLEET_H
