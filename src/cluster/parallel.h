/**
 * @file
 * Self-scheduled parallel fleet execution: a conservative parallel-
 * discrete-event-simulation (PDES) kernel for the cluster simulator.
 *
 * SoCs share nothing between cluster-level events (task arrivals), so
 * the fleet parallelizes with *zero fidelity loss*: each *epoch*
 * advances every SoC up to the shared conservative horizon — the next
 * arrival/dispatch time, which is exactly the lookahead a conservative
 * PDES needs, and exactly the clamp `sim::Soc::advanceTo(horizon)`
 * provides.  The SoCs are the work items of the epoch: the calling
 * (coordinator) thread and the engine's workers claim them one at a
 * time from a shared cursor in SoC-index order, so a thread that
 * drew cheap SoCs takes more of them and nobody idles behind a fixed
 * block of expensive ones.  A barrier then returns control to the
 * single-threaded dispatcher loop, which consumes arrivals, polls
 * load snapshots (assembled in SoC-index order regardless of which
 * thread produced the state), and injects the placed tasks before
 * releasing the next epoch.
 *
 * Determinism contract (the whole point): a parallel run is
 * bit-identical to the serial run — same `ClusterResult`, same
 * per-task latencies, `jobs=1 == jobs=N` for every N.  It holds
 * because
 *
 *  1. each SoC is advanced by exactly one thread per epoch, through
 *     exactly the per-SoC step sequence the serial loop produces (the
 *     horizon sequence a SoC observes is the arrival sequence,
 *     independent of which thread claims it);
 *  2. each SoC writes its next-event bound and stepped flag into its
 *     own slot, and the coordinator reduces the slots in SoC-index
 *     order after the barrier, so no aggregate depends on claim or
 *     completion order;
 *  3. per-SoC RNG/seeding is untouched — the thread count cannot
 *     perturb any stream; and
 *  4. the barrier's mutex orders every SoC write of one epoch before
 *     the coordinator's reads and before the next epoch's claims, so
 *     a SoC that moves between threads sees its own state whole and
 *     the dispatcher sees a quiescent fleet, never a torn one.
 *
 * Lookahead bookkeeping rides along: the engine maintains the
 * fleet-wide minimum of `Soc::nextEventTime()` and skips an epoch
 * outright — a *horizon stall* — when that bound shows no SoC has
 * pending activity before the horizon (simultaneous arrivals, or a
 * burst arriving into a fully drained fleet).  Such an epoch is
 * provably a no-op for every SoC, so skipping it is bit-identical
 * and saves the barrier round-trip.  EpochStats exposes epochs /
 * stepped-SoC counts / stall counts so lookahead quality is
 * observable in ClusterResult.
 *
 * Measured with perfbench's `fleet-pdes` (16 `banked` SoCs, 3
 * threads, a 4-vCPU Xeon VM, 5 s runs, medians of alternating pairs)
 * against contiguous per-worker SoC blocks with an idle coordinator:
 * `tasks_per_s` 1.38x pinned to 2 CPUs, 1.44x on 3 and 1.17x on all
 * 4; the traced share of thread time spent at the barrier fell from
 * ~0.21 to ~0.10.  On one CPU the two are within noise.
 */

#ifndef MOCA_CLUSTER_PARALLEL_H
#define MOCA_CLUSTER_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/units.h"
#include "common/walltime.h"
#include "sim/soc.h"

namespace moca::cluster {

/** Epoch-granularity observability of one fleet run. */
struct EpochStats
{
    /** Barrier epochs executed (workers released + joined). */
    std::uint64_t epochs = 0;

    /** Sum over executed epochs of SoCs that stepped at least once;
     *  meanSocsStepped() is the per-epoch mean. */
    std::uint64_t socsStepped = 0;

    /**
     * Epochs skipped because the conservative lookahead (fleet-wide
     * min of Soc::nextEventTime()) showed no SoC activity before the
     * horizon.  High stall counts mean the arrival stream is denser
     * than the fleet's event stream — the lookahead window is empty
     * and the run is dispatcher-bound, not simulation-bound.
     */
    std::uint64_t horizonStalls = 0;

    /** Mean SoCs stepped per executed epoch (0 when no epochs ran). */
    double meanSocsStepped() const
    {
        return epochs == 0 ? 0.0
                           : static_cast<double>(socsStepped) /
                static_cast<double>(epochs);
    }
};

/**
 * The conservative-PDES cluster kernel: a persistent worker pool that
 * self-schedules the SoCs of each epoch, with an epoch barrier.
 *
 * With one thread (jobs=1, or a 1-SoC fleet) no workers are spawned
 * and each epoch is a plain index-order loop on the caller — the
 * parallel and serial paths share every per-SoC line, which is what
 * makes the jobs=1 == jobs=N contract auditable.
 */
class ParallelEngine
{
  public:
    /**
     * @param socs the fleet, index-stable for the engine's lifetime
     *        (not owned; must outlive the engine).
     * @param jobs threads that advance SoCs, the caller included:
     *        min(jobs, socs.size()) - 1 workers are spawned and the
     *        coordinator claims SoCs beside them.  Fatal when
     *        jobs < 1.
     * @param profile accumulate per-thread SoC-advance and
     *        barrier-wait wall time (via the common/walltime.h shim;
     *        see phaseTotals()).  Purely diagnostic — off by default
     *        so the hot path pays nothing.
     */
    ParallelEngine(std::vector<sim::Soc *> socs, int jobs,
                   bool profile = false);
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /**
     * One conservative epoch: advance every SoC to `horizon`
     * (sim::kNoHorizon drains the fleet to completion) and
     * synchronize.  Returns after the barrier, so the caller observes
     * every SoC's writes (completions included); skipped
     * entirely (a horizon stall) when fleetNextEvent() >= horizon.
     */
    void advanceFleet(Cycles horizon);

    /**
     * Fleet-wide minimum of Soc::nextEventTime(), reduced from the
     * per-SoC slots in SoC-index order after each epoch
     * (sim::kNoEvent when every SoC has drained).
     */
    Cycles fleetNextEvent() const { return fleet_next_event_; }

    /**
     * Tell the engine the coordinator mutated SoC `soc_idx` between
     * epochs (task injection): its next-event bound may have moved
     * earlier, so its slot and the fleet bound are min-merged with
     * it.
     */
    void noteInjected(std::size_t soc_idx);

    /**
     * Include/exclude SoC `soc_idx` from epochs (serve-layer failure
     * injection and autoscaler capacity churn).  An inactive SoC is
     * never advanced — its clock freezes wherever the last epoch left
     * it — and contributes kNoEvent to the conservative lookahead.
     * Coordinator-only, between epochs (i.e. at a quiescent barrier
     * point), so the change is ordered against every worker exactly
     * like an injection; the fleet bound is re-reduced from the slots
     * (deactivation can move it *later*, which the min-merge of
     * noteInjected could not express).
     */
    void setActive(std::size_t soc_idx, bool active);
    bool isActive(std::size_t soc_idx) const;

    /**
     * Swap the occupant of slot `soc_idx` (e.g. a recovered SoC
     * replacing a failed one's frozen simulator).  The new SoC must
     * outlive the engine like the originals.  Coordinator-only,
     * between epochs.
     */
    void replaceSoc(std::size_t soc_idx, sim::Soc *soc);

    const EpochStats &stats() const { return stats_; }

    /**
     * Wall-clock phase totals summed over threads in index order
     * (zeros unless constructed with profile=true).  `advance_sec` is
     * the time threads spent advancing the SoCs they claimed, the
     * coordinator's own claims included.  `wait_sec` is the time
     * workers spent parked at the epoch barrier waiting for work,
     * plus the coordinator's wait for the last worker to check in.
     * Coordinator-only, between epochs — the barrier orders the
     * workers' accumulator writes exactly like the SoC slots.
     */
    void phaseTotals(double &advance_sec, double &wait_sec) const;

  private:
    /** One SoC's epoch result, written by whichever thread claimed
     *  the SoC and read by the coordinator after the barrier, plus
     *  its activation flag (see setActive), which only the
     *  coordinator writes, between epochs. */
    struct SocSlot
    {
        Cycles nextEvent = sim::kNoEvent;
        bool stepped = false;
        bool active = true;
    };

    /** One thread's wall-clock accumulators (profile mode only; see
     *  phaseTotals()).  Index 0 is the coordinator. */
    struct ThreadTimes
    {
        double advanceSec = 0.0;
        double waitSec = 0.0;
    };

    void advanceSoc(std::size_t soc_idx);
    /** Claim and advance SoCs from cursor_ until none are left. */
    void claimSocs(ThreadTimes &times);
    void workerLoop(ThreadTimes &times);
    void reduceSlots();
    /** Recompute one slot's bound from scratch and re-reduce
     *  (coordinator mutations: activation changes, occupant swaps). */
    void refreshSlot(std::size_t soc_idx);

    std::vector<sim::Soc *> socs_;
    std::vector<SocSlot> slots_;
    std::vector<ThreadTimes> times_;

    // Epoch hand-off: the coordinator publishes horizon_, rewinds
    // cursor_ and bumps generation_ under mu_; every thread claims
    // SoC indices from cursor_ until it passes the fleet size, then
    // each worker counts into done_count_, and the coordinator waits
    // until all of them have.  The mutex pairs every coordinator
    // write with the workers' reads (and the workers' SoC and slot
    // writes with the coordinator's post-barrier reads and the next
    // epoch's claims); cursor_ is atomic only so that two threads
    // never claim the same SoC.
    std::mutex mu_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    std::atomic<std::size_t> cursor_{0};
    std::uint64_t generation_ = 0;
    std::size_t done_count_ = 0;
    bool shutdown_ = false;
    bool profile_ = false;
    Cycles horizon_ = 0;

    Cycles fleet_next_event_ = sim::kNoEvent;
    EpochStats stats_;
    /** Last, after everything the workers touch. */
    std::vector<std::thread> workers_;
};

} // namespace moca::cluster

#endif // MOCA_CLUSTER_PARALLEL_H
