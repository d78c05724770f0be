/**
 * @file
 * Timing decorators for the simulator's four registry seams.
 *
 * registerTimingDecorators() adds, for every policy, memory model,
 * dispatcher and admission policy already registered under `name`, a
 * twin registered as `timed-<name>` through the public registrars.
 * The twin builds the real implementation from the same parameters,
 * forwards every virtual call to it, and counts and times the calls.
 * A traced run names the twins in place of the real specs (timed()).
 *
 * Each decorator instance is driven by one thread (the Soc, fleet
 * coordinator or serve front end that owns it), so it counts into its
 * own TraceTotals and folds them into the process-wide totals when it
 * is destroyed.  traceTotals() is therefore complete once the run
 * that built the decorators has returned.
 */

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include <cstdint>
#include <string>

#include "common/units.h"

namespace perfbench {

/** Host time and call counts of one policy layer. */
struct PolicyTotals
{
    /** schedule() calls by SchedEvent. */
    std::uint64_t arrival = 0;
    std::uint64_t completion = 0;
    std::uint64_t tick = 0;
    /** schedule(BlockBoundary); the Soc raises it through
     *  onBlockBoundary() instead, so it stays 0 today. */
    std::uint64_t blockEvent = 0;
    /** onBlockBoundary() calls. */
    std::uint64_t block = 0;
    /** onJobComplete() calls. */
    std::uint64_t complete = 0;
    double seconds = 0.0;

    std::uint64_t scheduleCalls() const
    {
        return arrival + completion + tick + blockEvent;
    }
    std::uint64_t calls() const
    {
        return scheduleCalls() + block + complete;
    }
};

/** Everything the decorators measured. */
struct TraceTotals
{
    PolicyTotals moca;      ///< Policies whose name starts "moca".
    PolicyTotals baselines; ///< prema, static, planaria.
    /** moca schedule() calls whose Soc::waitingEpoch() and
     *  runningEpoch() equal those the previous call on that Soc
     *  returned with: the Soc changed nothing in between. */
    std::uint64_t mocaSameEpochCalls = 0;
    /** Sum over Socs of SocStats::schedInvocations as last seen by a
     *  schedule() call (cross-check against the decorator count). */
    std::uint64_t schedInvocations = 0;

    std::uint64_t memCalls = 0;     ///< arbitrate() calls.
    std::uint64_t memIdleCalls = 0; ///< ... with no non-zero demand.
    std::uint64_t memRequesters = 0;
    moca::Cycles memCycles = 0;     ///< Sum of arbitrate horizons.
    double memSeconds = 0.0;

    std::uint64_t placeCalls = 0;
    double placeSeconds = 0.0;

    std::uint64_t admitCalls = 0;
    double admitSeconds = 0.0;

    void add(const TraceTotals &o);
};

/** Register the `timed-*` twins (idempotent; call before any run). */
void registerTimingDecorators();

/** The timed twin of a spec: "queue-cap:depth=4" becomes
 *  "timed-queue-cap:depth=4". */
std::string timed(const std::string &spec);

/** Zero the process-wide totals. */
void resetTraceTotals();

/** Totals folded in by every decorator destroyed so far. */
TraceTotals traceTotals();

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
