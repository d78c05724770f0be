#include "cluster/parallel.h"

#include <algorithm>

#include "common/log.h"

namespace moca::cluster {

ParallelEngine::ParallelEngine(std::vector<sim::Soc *> socs, int jobs,
                               bool profile)
    : socs_(std::move(socs)), profile_(profile)
{
    if (jobs < 1)
        fatal("cluster jobs must be >= 1 (got %d); 0 workers cannot "
              "advance a fleet", jobs);
    if (socs_.empty())
        fatal("parallel engine needs at least one SoC");
    for (std::size_t i = 0; i < socs_.size(); ++i)
        if (socs_[i] == nullptr)
            fatal("parallel engine: SoC %zu is null", i);

    // The initial fleet bound, reduced in index order like every
    // later one (a fresh SoC with no jobs reports kNoEvent — the
    // epochs before its first placement are pure dispatcher work).
    slots_.resize(socs_.size());
    for (std::size_t i = 0; i < socs_.size(); ++i)
        slots_[i].nextEvent = socs_[i]->nextEventTime();
    reduceSlots();

    // The coordinator is one of the threads; only a fleet with more
    // than one SoC and more than one job pays for workers.
    const std::size_t threads = std::min<std::size_t>(
        socs_.size(), static_cast<std::size_t>(jobs));
    times_.resize(threads);
    workers_.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t)
        workers_.emplace_back(
            [this, t]() { workerLoop(times_[t]); });
}

ParallelEngine::~ParallelEngine()
{
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            shutdown_ = true;
        }
        cv_work_.notify_all();
        for (std::thread &w : workers_)
            w.join();
    }
}

void
ParallelEngine::advanceSoc(std::size_t soc_idx)
{
    SocSlot &slot = slots_[soc_idx];
    slot.stepped = false;
    if (!slot.active)
        return; // setActive left its bound at kNoEvent
    sim::Soc &soc = *socs_[soc_idx];
    // advanceTo runs >= 1 kernel iteration exactly when the SoC is
    // unfinished and behind the horizon; recording the predicate
    // (not a step count) keeps the stat O(1).
    slot.stepped = !soc.done() && soc.now() < horizon_;
    soc.advanceTo(horizon_);
    slot.nextEvent = soc.nextEventTime();
}

void
ParallelEngine::claimSocs(ThreadTimes &times)
{
    WallTimer timer;
    const std::size_t n = socs_.size();
    for (std::size_t i = cursor_++; i < n; i = cursor_++)
        advanceSoc(i);
    if (profile_)
        times.advanceSec += timer.seconds();
}

void
ParallelEngine::workerLoop(ThreadTimes &times)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        WallTimer wait_timer;
        cv_work_.wait(lock, [&]() {
            return shutdown_ || generation_ != seen;
        });
        // Written under mu_ by this worker only; the coordinator
        // reads it between epochs (phaseTotals).
        if (profile_)
            times.waitSec += wait_timer.seconds();
        if (shutdown_)
            return;
        seen = generation_;
        lock.unlock();
        claimSocs(times);
        lock.lock();
        if (++done_count_ == workers_.size())
            cv_done_.notify_one();
    }
}

void
ParallelEngine::reduceSlots()
{
    // Index-order reduction on the coordinator: the fleet bound must
    // never depend on which thread claimed a SoC or finished first.
    Cycles fleet_min = sim::kNoEvent;
    for (const SocSlot &slot : slots_)
        fleet_min = std::min(fleet_min, slot.nextEvent);
    fleet_next_event_ = fleet_min;
}

void
ParallelEngine::advanceFleet(Cycles horizon)
{
    // Conservative-lookahead fast path: no SoC has pending activity
    // before the horizon, so every per-SoC advance loop would run
    // zero iterations — skip the barrier round-trip entirely.  This
    // is the simultaneous-arrival / drained-fleet case; it is a pure
    // no-op skip, so serial and parallel runs count it identically.
    if (fleet_next_event_ >= horizon) {
        stats_.horizonStalls++;
        return;
    }

    stats_.epochs++;
    horizon_ = horizon;
    if (workers_.empty()) {
        WallTimer timer;
        for (std::size_t i = 0; i < socs_.size(); ++i)
            advanceSoc(i);
        if (profile_)
            times_[0].advanceSec += timer.seconds();
    } else {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_count_ = 0;
            cursor_ = 0;
            ++generation_;
        }
        cv_work_.notify_all();
        claimSocs(times_[0]);
        WallTimer wait_timer;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_done_.wait(lock, [&]() {
                return done_count_ == workers_.size();
            });
        }
        if (profile_)
            times_[0].waitSec += wait_timer.seconds();
    }

    for (const SocSlot &slot : slots_)
        stats_.socsStepped += slot.stepped ? 1 : 0;
    reduceSlots();
}

void
ParallelEngine::phaseTotals(double &advance_sec,
                            double &wait_sec) const
{
    advance_sec = 0.0;
    wait_sec = 0.0;
    for (const ThreadTimes &t : times_) {
        advance_sec += t.advanceSec;
        wait_sec += t.waitSec;
    }
}

void
ParallelEngine::noteInjected(std::size_t soc_idx)
{
    if (soc_idx >= socs_.size())
        panic("noteInjected(%zu): fleet has %zu SoCs", soc_idx,
              socs_.size());
    // An injection can only move a SoC's bound *earlier* (a drained
    // SoC becomes runnable), so a min-merge keeps slot and fleet
    // bound exact without a re-reduction.
    SocSlot &slot = slots_[soc_idx];
    slot.nextEvent =
        std::min(slot.nextEvent, socs_[soc_idx]->nextEventTime());
    fleet_next_event_ = std::min(fleet_next_event_, slot.nextEvent);
}

void
ParallelEngine::refreshSlot(std::size_t soc_idx)
{
    SocSlot &slot = slots_[soc_idx];
    slot.nextEvent =
        slot.active ? socs_[soc_idx]->nextEventTime() : sim::kNoEvent;
    reduceSlots();
}

void
ParallelEngine::setActive(std::size_t soc_idx, bool active)
{
    if (soc_idx >= socs_.size())
        panic("setActive(%zu): fleet has %zu SoCs", soc_idx,
              socs_.size());
    if (slots_[soc_idx].active == active)
        return;
    slots_[soc_idx].active = active;
    refreshSlot(soc_idx);
}

bool
ParallelEngine::isActive(std::size_t soc_idx) const
{
    if (soc_idx >= socs_.size())
        panic("isActive(%zu): fleet has %zu SoCs", soc_idx,
              socs_.size());
    return slots_[soc_idx].active;
}

void
ParallelEngine::replaceSoc(std::size_t soc_idx, sim::Soc *soc)
{
    if (soc_idx >= socs_.size())
        panic("replaceSoc(%zu): fleet has %zu SoCs", soc_idx,
              socs_.size());
    if (soc == nullptr)
        fatal("replaceSoc(%zu): SoC is null", soc_idx);
    socs_[soc_idx] = soc;
    refreshSlot(soc_idx);
}

} // namespace moca::cluster
