#include "cluster/fleet.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "obs/capture.h"

namespace moca::cluster {

Fleet::Fleet(const ClusterConfig &cfg) : cfg_(cfg)
{
    const std::size_t n = cfg_.socs.size();
    if (n == 0)
        fatal("cluster needs at least one SoC");
    slots_.resize(n);
    std::vector<sim::Soc *> socs;
    socs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        FleetSlot &slot = slots_[i];
        slot.cfg = cfg_.socs[i];
        slot.cfg.socId = static_cast<int>(i);
        boot(slot, 0);
        socs.push_back(&slot.live());
    }
    dispatcher_ = DispatcherRegistry::instance().make(
        cfg_.dispatcher, static_cast<int>(n), cfg_.dispatcherSeed);
    engine_ = std::make_unique<ParallelEngine>(std::move(socs),
                                               cfg_.jobs, cfg_.profile);
}

void
Fleet::boot(FleetSlot &slot, Cycles start)
{
    slot.policy =
        exp::PolicyRegistry::instance().make(cfg_.policy, slot.cfg);
    slot.soc = std::make_unique<sim::Soc>(slot.cfg, *slot.policy);
    if (cfg_.capture)
        slot.live().trace().enable();
    slot.live().beginRun(cfg_.maxCycles, start);
    slot.jobReq.clear();
    slot.harvested = 0;
}

void
Fleet::advance(Cycles horizon)
{
    const Cycles begin = now_;
    const EpochStats before = engine_->stats();
    engine_->advanceFleet(horizon);
    if (horizon == sim::kNoHorizon) {
        for (const FleetSlot &slot : slots_)
            now_ = std::max(now_, slot.live().now());
    } else {
        now_ = horizon;
    }
    if (!cfg_.capture)
        return;
    // Epoch/stall spans for the PDES timeline, delta'd from the
    // engine's counters around this advance.
    const EpochStats &after = engine_->stats();
    if (after.epochs > before.epochs)
        cfg_.capture->epochs.push_back(
            {begin, now_, after.socsStepped - before.socsStepped,
             false});
    else if (after.horizonStalls > before.horizonStalls)
        cfg_.capture->epochs.push_back({begin, now_, 0, true});
}

SocLoad
Fleet::load(std::size_t i) const
{
    const FleetSlot &slot = slots_[i];
    const sim::Soc &soc = slot.live();
    SocLoad l;
    l.socIdx = static_cast<int>(i);
    l.now = soc.now();
    l.waiting = static_cast<int>(soc.waitingCount());
    l.running = static_cast<int>(soc.runningCount());
    l.freeTiles = soc.freeTiles();
    l.numTiles = soc.config().numTiles;
    l.tasksAssigned = slot.placed;
    l.outstandingMacs = slot.outstandingMacs;
    return l;
}

std::size_t
Fleet::place(const ClusterTask &task, const std::vector<SocLoad> &loads)
{
    const int k = dispatcher_->place(task, loads);
    if (k < 0 || k >= static_cast<int>(loads.size()))
        fatal("dispatcher '%s' placed task %d on candidate %d of %zu",
              cfg_.dispatcher.c_str(), task.id, k, loads.size());
    return static_cast<std::size_t>(
        loads[static_cast<std::size_t>(k)].socIdx);
}

int
Fleet::inject(std::size_t i, const ClusterTask &task, int req)
{
    FleetSlot &slot = slots_[i];
    sim::Soc &soc = slot.live();
    sim::JobSpec spec;
    spec.id = static_cast<int>(soc.jobs().size());
    spec.model = &dnn::getModel(task.model);
    spec.dispatch = task.arrival;
    spec.priority = task.priority;
    spec.slaLatency = task.slaLatency;
    soc.injectJob(spec);
    engine_->noteInjected(i);
    slot.placed++;
    slot.outstandingMacs += static_cast<double>(spec.model->totalMacs());
    slot.jobReq.push_back(req);
    return spec.id;
}

void
Fleet::freeze(std::size_t i)
{
    engine_->setActive(i, false);
    slots_[i].outstandingMacs = 0.0;
}

void
Fleet::reincarnate(std::size_t i)
{
    if (engine_->isActive(i))
        panic("reincarnating slot %zu, which is still running", i);
    // The engine never advances a frozen SoC, so its clock and stats
    // are final here: retiring now yields what aggregate() would read.
    FleetSlot &slot = slots_[i];
    sim::Soc &dead = slot.live();
    dead.finishRun();
    RetiredIncarnation r;
    r.results = dead.takeResults();
    r.stats = dead.stats();
    r.events = dead.trace().takeEvents();
    slot.retired.push_back(std::move(r));
    slot.soc.reset(); // References the policy: destroyed first.
    slot.policy.reset();

    // The fresh SoC boots at the recovery cycle on the fleet's tick
    // grid: it has no history, so it neither replays ticks before it
    // booted nor reports them in its trace.  With nothing queued it
    // reports kNoEvent and costs the engine nothing until placed on.
    boot(slot, now_);
    engine_->replaceSoc(i, &slot.live());
    engine_->setActive(i, true);
}

void
Fleet::aggregate(ClusterResult &out, double dispatch_sec)
{
    const std::size_t n = slots_.size();
    out.dispatcher = cfg_.dispatcher;
    out.policy = cfg_.policy;
    out.numSocs = static_cast<int>(n);
    out.epochs = engine_->stats().epochs;
    out.horizonStalls = engine_->stats().horizonStalls;
    out.meanSocsStepped = engine_->stats().meanSocsStepped();
    if (cfg_.profile) {
        engine_->phaseTotals(out.phases.shardAdvanceSec,
                             out.phases.barrierWaitSec);
        out.phases.dispatchSec = dispatch_sec;
    }
    out.perSoc.resize(n);

    bool any_sampled = false;
    for (std::size_t i = 0; i < n; ++i) {
        const FleetSlot &slot = slots_[i];
        SocShare &share = out.perSoc[i];
        share.tasks = slot.placed;

        // Every completion ran on real fleet capacity, whichever
        // incarnation produced it (and orphan or not).
        std::vector<sim::JobResult> all;
        double busy_weighted = 0.0;
        Cycles cycles = 0;
        const auto fold = [&](const std::vector<sim::JobResult> &results,
                              const sim::SocStats &stats,
                              const std::vector<sim::TraceEvent> &events) {
            all.insert(all.end(), results.begin(), results.end());
            share.simSteps += stats.quanta;
            busy_weighted += stats.dramBusyFraction *
                static_cast<double>(stats.cyclesSimulated);
            cycles += stats.cyclesSimulated;
            // Every incarnation's events carry the slot's socId; the
            // exporter merges them onto one slot track.
            if (cfg_.capture)
                cfg_.capture->socEvents.insert(
                    cfg_.capture->socEvents.end(), events.begin(),
                    events.end());
        };
        for (const RetiredIncarnation &r : slot.retired)
            fold(r.results, r.stats, r.events);
        sim::Soc &soc = slot.live();
        soc.finishRun();
        fold(soc.results(), soc.stats(), soc.trace().events());
        if (soc.sampler())
            any_sampled = true;
        share.metrics = metrics::computeMetrics(
            all, [&](dnn::ModelId id) {
                return exp::isolatedLatency(id, slot.cfg.numTiles,
                                            slot.cfg);
            });
        // A mean over incarnations weighted by their lifetimes (each
        // from its boot cycle); a single one reports its own
        // fraction exactly.
        if (slot.retired.empty())
            share.dramBusyFraction = soc.stats().dramBusyFraction;
        else if (cycles > 0)
            share.dramBusyFraction =
                busy_weighted / static_cast<double>(cycles);
        for (const auto &jr : all)
            share.makespan = std::max(share.makespan, jr.finish);
        out.simSteps += share.simSteps;
        out.stp += share.metrics.stp;
        out.makespan = std::max(out.makespan, share.makespan);
    }
    if (cfg_.capture && any_sampled)
        for (const FleetSlot &slot : slots_)
            cfg_.capture->socSeries.push_back(
                slot.live().sampler() ? slot.live().sampler()->series()
                                      : obs::Timeseries{});

    double mean_tasks = 0.0;
    for (const FleetSlot &slot : slots_)
        mean_tasks += slot.placed;
    mean_tasks /= static_cast<double>(n);
    if (mean_tasks > 0.0) {
        double var = 0.0;
        for (const FleetSlot &slot : slots_) {
            const double d = static_cast<double>(slot.placed) - mean_tasks;
            var += d * d;
        }
        out.balanceCv =
            std::sqrt(var / static_cast<double>(n)) / mean_tasks;
    }
}

void
CompletionTally::add(const sim::JobResult &jr, const sim::SocConfig &soc)
{
    const auto latency = static_cast<double>(jr.latency());
    latencies_.push_back(latency);
    const Cycles iso = exp::isolatedLatency(
        dnn::modelIdFromName(jr.spec.model->name()), soc.numTiles, soc);
    normLatencies_.push_back(latency / static_cast<double>(iso));
    if (jr.slaMet())
        ++met_;
    if (workload::priorityGroup(jr.spec.priority) ==
        workload::PriorityGroup::High) {
        ++high_;
        if (jr.slaMet())
            ++highMet_;
    }
}

void
CompletionTally::fill(ClusterResult &out) const
{
    const std::size_t total = latencies_.size();
    out.slaRate = total
        ? static_cast<double>(met_) / static_cast<double>(total)
        : 0.0;
    out.slaRateHigh = high_
        ? static_cast<double>(highMet_) / static_cast<double>(high_)
        : 0.0;
    out.latency = percentileSummary(latencies_);
    out.normLatency = percentileSummary(normLatencies_);
    if (out.makespan > 0)
        out.goodput = static_cast<double>(met_) * 1e9 /
            static_cast<double>(out.makespan);
}

} // namespace moca::cluster
