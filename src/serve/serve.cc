#include "serve/serve.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "cluster/fleet.h"
#include "common/log.h"
#include "common/walltime.h"
#include "exp/oracle.h"
#include "obs/capture.h"

namespace moca::serve {

namespace {

/**
 * Front-end event kinds, in the order they are processed at a tied
 * cycle: capacity changes first (so same-cycle placements see the
 * new world), then the control tick, then timeouts (a freed retry
 * budget may matter to a same-cycle issue), then issues.  The fixed
 * rank plus a scheduling sequence number makes the queue order — and
 * with it the whole run — deterministic.
 */
enum class EvKind : int
{
    Fail = 0,
    Recover = 1,
    ScaleTick = 2,
    Timeout = 3,
    Issue = 4,
};

struct Event
{
    Cycles at = 0;
    EvKind kind = EvKind::Issue;
    std::uint64_t seq = 0;
    int req = -1;            ///< Request id (Issue/Timeout).
    int slot = -1;           ///< Slot index (Recover).
    std::uint64_t token = 0; ///< Attempt token (Timeout staleness).
};

struct EventLater
{
    bool
    operator()(const Event &x, const Event &y) const
    {
        if (x.at != y.at)
            return x.at > y.at;
        if (x.kind != y.kind)
            return static_cast<int>(x.kind) >
                static_cast<int>(y.kind);
        return x.seq > y.seq;
    }
};

/** Lifecycle of one fleet slot. */
enum class SlotState
{
    Up,       ///< Accepting placements.
    Draining, ///< Autoscaled down: finishing, not accepting.
    Failed,   ///< Frozen in the engine; queue lost.
};

/** Front-end progress of one request. */
struct ReqProgress
{
    bool issued = false;
    Cycles firstIssue = 0;
    int retriesUsed = 0;
    int requeues = 0; ///< Failure re-placements consumed.
    std::uint64_t token = 0; ///< Bumped per (re-)issue decision.

    /** Current in-flight attempt, valid only while inFlight. */
    bool inFlight = false;
    int slot = -1;
    int incarnation = -1;
    int job = -1;

    bool resolved = false;
    bool success = false;
};

/** Per-client issue window. */
struct ClientState
{
    int nextSeq = 0;
    int inFlight = 0;
    bool issueScheduled = false;
};

/** The homogeneous fleet a serving run drives. */
cluster::ClusterConfig
fleetConfig(const ServeConfig &cfg)
{
    if (cfg.numSocs < 1)
        fatal("serving fleet needs at least one SoC (got %d)",
              cfg.numSocs);
    cluster::ClusterConfig cc =
        cluster::ClusterConfig::homogeneous(cfg.numSocs, cfg.soc);
    cc.policy = cfg.policy;
    cc.dispatcher = cfg.dispatcher;
    cc.dispatcherSeed = cfg.dispatcherSeed;
    cc.jobs = cfg.jobs;
    cc.profile = cfg.profile;
    cc.capture = cfg.capture;
    return cc;
}

class ServeDriver
{
  public:
    explicit ServeDriver(const ServeConfig &cfg);
    ServeResult run();

  private:
    const ServeConfig &cfg_;
    Cycles hardCap_;

    cluster::Fleet fleet_;
    /** Slot lifecycle, indexed like the fleet's slots. */
    std::vector<SlotState> state_;

    /** The pre-generated request population. */
    ClientPool pool_;
    std::unique_ptr<AdmissionPolicy> admission_;
    Autoscaler autoscaler_;
    FailureInjector injector_;

    std::vector<ReqProgress> progress_;
    std::vector<ClientState> clients_;

    std::priority_queue<Event, std::vector<Event>, EventLater>
        queue_;
    std::uint64_t nextSeq_ = 0;

    std::uint64_t resolvedCount_ = 0;

    int upCount_ = 0;
    Cycles lastUpChange_ = 0;
    double upIntegral_ = 0.0;

    /** Coordinator wall-clock (profile mode; see finalize()). */
    WallTimer coordTimer_;
    double dispatchSec_ = 0.0;

    ServeResult res_;

    /** Fleet aggregates over client-observed responses only. */
    cluster::CompletionTally responses_;
    std::vector<double> clientLatency_;

    void push(Cycles at, EvKind kind, int req = -1, int slot = -1,
              std::uint64_t token = 0)
    {
        queue_.push(Event{at, kind, nextSeq_++, req, slot, token});
    }

    Cycles now() const { return fleet_.now(); }

    void noteUpChange(int delta)
    {
        upIntegral_ += static_cast<double>(now() - lastUpChange_) *
            static_cast<double>(upCount_);
        lastUpChange_ = now();
        upCount_ += delta;
    }

    /** Record a front-end event into the capture bag (no-op when
     *  capture is off; observational only). */
    void captureEvent(sim::TraceEventKind kind, int id)
    {
        if (cfg_.capture)
            cfg_.capture->frontend.record(now(), kind, id);
    }

    Cycles chunkTarget(Cycles limit) const;
    Cycles deferDelay() const
    {
        // Deferred/capacity-held requests re-try at the control
        // cadence; with an unbounded quantum the scheduler period
        // stands in as the polling interval.
        return cfg_.controlQuantum > 0 ? cfg_.controlQuantum
                                       : cfg_.soc.schedPeriod;
    }
    void advanceTo(Cycles target);

    std::vector<cluster::SocLoad> upLoads() const;
    void maybeScheduleIssue(int client, Cycles trigger);
    void handleIssue(int req);
    void placeRequest(int req, const std::vector<cluster::SocLoad> &up);
    void onCompletion(std::size_t slot_idx, int req,
                      const sim::JobResult &jr);
    void failAttempt(int req);
    void resolveRequest(int req, bool success, Cycles finish);
    void handleTimeout(int req, std::uint64_t token);
    void handleFail();
    void handleRecover(int slot);
    void handleScaleTick();

    void finalize();
};

ServeDriver::ServeDriver(const ServeConfig &cfg)
    : cfg_(cfg),
      hardCap_(cfg.maxCycles != 0 ? cfg.maxCycles
                                  : cfg.soc.maxCycles),
      fleet_(fleetConfig(cfg)),
      state_(static_cast<std::size_t>(cfg.numSocs), SlotState::Up),
      // Workload calibration (SLA targets, think time) uses the
      // *single-tile* isolated latency, like the open-loop
      // synthesizer; the fleet normalizes metrics by the full SoC.
      pool_(cfg.clients,
            [&cfg](dnn::ModelId id) {
                return exp::isolatedLatency(id, 1, cfg.soc);
            }),
      autoscaler_(cfg.autoscaler), injector_(cfg.failures)
{
    if (cfg_.autoscaler.enabled &&
        cfg_.autoscaler.maxSocs > cfg_.numSocs)
        fatal("autoscaler maxSocs %d exceeds the fleet size %d",
              cfg_.autoscaler.maxSocs, cfg_.numSocs);
    if (cfg_.autoscaler.enabled &&
        cfg_.autoscaler.minSocs > cfg_.numSocs)
        fatal("autoscaler minSocs %d exceeds the fleet size %d",
              cfg_.autoscaler.minSocs, cfg_.numSocs);

    admission_ = AdmissionRegistry::instance().make(cfg_.admission);
    progress_.resize(static_cast<std::size_t>(pool_.totalRequests()));
    clients_.resize(static_cast<std::size_t>(pool_.numClients()));
    upCount_ = cfg_.numSocs;
    if (cfg_.capture)
        cfg_.capture->frontend.enable();

    for (int c = 0; c < pool_.numClients(); ++c)
        maybeScheduleIssue(c, 0);
    if (injector_.enabled())
        push(injector_.firstFailure(), EvKind::Fail);
    if (cfg_.autoscaler.enabled)
        push(cfg_.autoscaler.interval, EvKind::ScaleTick);
}

Cycles
ServeDriver::chunkTarget(Cycles limit) const
{
    if (cfg_.controlQuantum == 0)
        return limit;
    const Cycles headroom = sim::kNoHorizon - now();
    if (cfg_.controlQuantum >= headroom)
        return limit;
    return std::min(limit, now() + cfg_.controlQuantum);
}

void
ServeDriver::advanceTo(Cycles target)
{
    fleet_.advance(target);
    // Completions are consumed in slot-index order from each slot's
    // live incarnation, so reaction order is a pure function of
    // fleet state — never of PDES worker timing.
    fleet_.harvest([this](std::size_t slot_idx, int req,
                          const sim::JobResult &jr) {
        onCompletion(slot_idx, req, jr);
    });
}

void
ServeDriver::onCompletion(std::size_t slot_idx, int req,
                          const sim::JobResult &jr)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    const bool current = p.inFlight && !p.resolved &&
        p.slot == static_cast<int>(slot_idx) &&
        p.incarnation == fleet_.slot(slot_idx).incarnation() &&
        p.job == jr.spec.id;
    if (!current) {
        // A completion nobody is waiting for: the client timed out
        // (or the attempt was requeued) before the fleet delivered.
        // Wasted work, not goodput.
        res_.orphans++;
        return;
    }
    p.inFlight = false;
    res_.responses++;
    responses_.add(jr, fleet_.slot(slot_idx).cfg);
    if (jr.spec.slaLatency > 0)
        autoscaler_.recordResponse(
            static_cast<double>(jr.latency()) /
            static_cast<double>(jr.spec.slaLatency));
    clientLatency_.push_back(
        static_cast<double>(jr.finish - p.firstIssue));
    resolveRequest(req, true, jr.finish);
}

std::vector<cluster::SocLoad>
ServeDriver::upLoads() const
{
    std::vector<cluster::SocLoad> loads;
    loads.reserve(state_.size());
    for (std::size_t i = 0; i < state_.size(); ++i)
        if (state_[i] == SlotState::Up)
            loads.push_back(fleet_.load(i));
    return loads;
}

void
ServeDriver::maybeScheduleIssue(int client, Cycles trigger)
{
    ClientState &c = clients_[static_cast<std::size_t>(client)];
    if (c.issueScheduled ||
        c.nextSeq >= cfg_.clients.requestsPerClient ||
        c.inFlight >= cfg_.clients.maxOutstanding)
        return;
    const int req = client * cfg_.clients.requestsPerClient +
        c.nextSeq;
    c.issueScheduled = true;
    push(trigger + pool_.request(req).think, EvKind::Issue, req);
}

void
ServeDriver::handleIssue(int req)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    if (p.resolved)
        return;
    if (!p.issued) {
        p.issued = true;
        p.firstIssue = now();
        res_.requests++;
        const ClientRequest &cr = pool_.request(req);
        ClientState &c = clients_[static_cast<std::size_t>(cr.client)];
        c.issueScheduled = false;
        c.nextSeq++;
        c.inFlight++;
        // The window may still have room: the next request thinks
        // from this issue, not from a completion.
        maybeScheduleIssue(cr.client, now());
    }

    const std::vector<cluster::SocLoad> up = upLoads();
    if (up.empty()) {
        // No capacity at all (everything failed or draining): hold
        // the request at the front door and re-try at the next
        // control tick.
        res_.deferrals++;
        captureEvent(sim::TraceEventKind::AdmissionDefer, req);
        push(now() + deferDelay(), EvKind::Issue, req);
        return;
    }

    switch (admission_->decide(pool_.request(req).task, now(), up)) {
      case AdmissionDecision::Admit:
        placeRequest(req, up);
        break;
      case AdmissionDecision::Shed:
        res_.shed++;
        captureEvent(sim::TraceEventKind::AdmissionShed, req);
        failAttempt(req);
        break;
      case AdmissionDecision::Defer:
        res_.deferrals++;
        captureEvent(sim::TraceEventKind::AdmissionDefer, req);
        push(now() + deferDelay(), EvKind::Issue, req);
        break;
    }
}

void
ServeDriver::placeRequest(int req,
                          const std::vector<cluster::SocLoad> &up)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    cluster::ClusterTask task = pool_.request(req).task;
    task.arrival = now();
    const std::size_t slot_idx = fleet_.place(task, up);
    const int job = fleet_.inject(slot_idx, task, req);

    res_.attempts++;
    p.token++;
    p.inFlight = true;
    p.slot = static_cast<int>(slot_idx);
    p.incarnation = fleet_.slot(slot_idx).incarnation();
    p.job = job;

    const Cycles timeout = pool_.request(req).timeout;
    if (timeout > 0)
        push(now() + timeout, EvKind::Timeout, req, -1, p.token);
}

void
ServeDriver::failAttempt(int req)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    p.token++; // Invalidate any pending timeout of the old attempt.
    p.inFlight = false;
    if (p.retriesUsed < cfg_.clients.maxRetries) {
        p.retriesUsed++;
        res_.retries++;
        push(now() + pool_.backoff(p.retriesUsed), EvKind::Issue, req);
        return;
    }
    resolveRequest(req, false, now());
}

void
ServeDriver::resolveRequest(int req, bool success, Cycles finish)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    if (p.resolved)
        panic("request %d resolved twice", req);
    p.resolved = true;
    p.success = success;
    p.token++;
    resolvedCount_++;
    if (!success)
        res_.giveUps++;
    res_.endCycle = std::max(res_.endCycle, finish);
    const ClientRequest &cr = pool_.request(req);
    ClientState &c = clients_[static_cast<std::size_t>(cr.client)];
    c.inFlight--;
    // The client thinks from the moment it observed the response;
    // reactions discovered at an epoch boundary never schedule into
    // the past.
    maybeScheduleIssue(cr.client, std::max(now(), finish));
}

void
ServeDriver::handleTimeout(int req, std::uint64_t token)
{
    ReqProgress &p = progress_[static_cast<std::size_t>(req)];
    if (p.resolved || p.token != token)
        return; // Stale: the attempt resolved or was superseded.
    res_.timeouts++;
    // The in-flight job keeps running (there is no cancellation in
    // the fleet) — if it ever completes, it is an orphan.
    failAttempt(req);
}

void
ServeDriver::handleFail()
{
    // Victims come from the powered slots (Up or Draining), chosen
    // by the injector's dedicated stream; the minUp guard may veto.
    std::vector<int> candidates;
    for (std::size_t i = 0; i < state_.size(); ++i)
        if (state_[i] != SlotState::Failed)
            candidates.push_back(static_cast<int>(i));
    const FailureInjector::FailPlan plan = injector_.plan(
        now(), static_cast<int>(candidates.size()));
    push(plan.nextFailAt, EvKind::Fail);
    if (plan.victim < 0)
        return;

    const auto idx = static_cast<std::size_t>(
        candidates[static_cast<std::size_t>(plan.victim)]);
    const cluster::FleetSlot &slot = fleet_.slot(idx);
    res_.failEvents++;
    captureEvent(sim::TraceEventKind::SocFail,
                 static_cast<int>(idx));
    if (state_[idx] == SlotState::Up)
        noteUpChange(-1);
    state_[idx] = SlotState::Failed;
    fleet_.freeze(idx);
    push(plan.recoverAt, EvKind::Recover, -1,
         static_cast<int>(idx));

    // Every job the frozen SoC had not completed is gone with its
    // queue; what happens to the *requests* behind the current
    // attempts is the configured in-flight policy.
    const sim::Soc &soc = slot.live();
    res_.lostJobs += soc.jobs().size() - soc.results().size();
    const auto &job_req = slot.jobReq;
    for (std::size_t j = 0; j < job_req.size(); ++j) {
        ReqProgress &p =
            progress_[static_cast<std::size_t>(job_req[j])];
        if (!(p.inFlight && !p.resolved &&
              p.slot == static_cast<int>(idx) &&
              p.incarnation == slot.incarnation() &&
              p.job == static_cast<int>(j)))
            continue;
        p.inFlight = false;
        switch (cfg_.failures.inflight) {
          case InflightPolicy::Requeue:
            // A free re-placement: the machine died, the client did
            // not time out, so the *timeout* retry budget stays
            // untouched — but the re-placements have their own
            // budget (the same maxRetries knob).  Without a bound, a
            // job longer than the fleet's typical failure gap
            // requeues forever: a deterministic retry storm.  Past
            // the budget the loss falls through to the normal
            // failed-attempt path.
            if (p.requeues < cfg_.clients.maxRetries) {
                p.requeues++;
                res_.requeued++;
                p.token++;
                push(now(), EvKind::Issue, job_req[j]);
            } else {
                failAttempt(job_req[j]);
            }
            break;
          case InflightPolicy::Drop:
            // The client discovers the loss via its timeout; with
            // timeouts disabled nobody ever would, so the attempt
            // fails (and retries/burns budget) immediately.
            if (pool_.request(job_req[j]).timeout == 0)
                failAttempt(job_req[j]);
            break;
        }
    }
}

void
ServeDriver::handleRecover(int slot_idx)
{
    const auto idx = static_cast<std::size_t>(slot_idx);
    if (state_[idx] != SlotState::Failed)
        panic("recovering slot %d that is not Failed", slot_idx);
    res_.recoverEvents++;
    captureEvent(sim::TraceEventKind::SocRecover, slot_idx);
    // Reboot: a fresh SoC (and fresh policy state) replaces the
    // failed one, which the fleet frees.
    fleet_.reincarnate(idx);
    state_[idx] = SlotState::Up;
    noteUpChange(+1);
}

void
ServeDriver::handleScaleTick()
{
    push(now() + cfg_.autoscaler.interval, EvKind::ScaleTick);
    long outstanding = 0;
    for (std::size_t i = 0; i < state_.size(); ++i) {
        if (state_[i] != SlotState::Up)
            continue;
        const sim::Soc &soc = fleet_.slot(i).live();
        outstanding +=
            static_cast<long>(soc.waitingCount() + soc.runningCount());
    }
    switch (autoscaler_.evaluate(upCount_, outstanding)) {
      case ScaleAction::None:
        break;
      case ScaleAction::Up:
        // Lowest-index Draining slot rejoins (a drained SoC keeps
        // its finished history and simply starts accepting again).
        for (std::size_t i = 0; i < state_.size(); ++i) {
            if (state_[i] == SlotState::Draining) {
                state_[i] = SlotState::Up;
                res_.scaleUps++;
                captureEvent(sim::TraceEventKind::ScaleUp,
                             static_cast<int>(i));
                noteUpChange(+1);
                break;
            }
        }
        break;
      case ScaleAction::Down:
        // Highest-index Up slot drains: placements stop, running
        // work finishes — a scaling decision never loses a task.
        for (std::size_t i = state_.size(); i-- > 0;) {
            if (state_[i] == SlotState::Up) {
                state_[i] = SlotState::Draining;
                res_.scaleDowns++;
                captureEvent(sim::TraceEventKind::ScaleDown,
                             static_cast<int>(i));
                noteUpChange(-1);
                break;
            }
        }
        break;
    }
}

ServeResult
ServeDriver::run()
{
    const auto total = static_cast<std::uint64_t>(progress_.size());
    while (resolvedCount_ < total) {
        if (now() > hardCap_)
            fatal("serving loop passed %llu cycles with %llu of "
                  "%llu requests unresolved (deadlock?)",
                  static_cast<unsigned long long>(hardCap_),
                  static_cast<unsigned long long>(
                      total - resolvedCount_),
                  static_cast<unsigned long long>(total));
        if (queue_.empty()) {
            // Nothing scheduled: only in-flight fleet work remains.
            advanceTo(chunkTarget(sim::kNoHorizon));
            continue;
        }
        const Event ev = queue_.top();
        if (ev.at > now()) {
            advanceTo(chunkTarget(ev.at));
            continue; // Harvest may have scheduled earlier events.
        }
        queue_.pop();
        if (cfg_.profile)
            coordTimer_.restart();
        switch (ev.kind) {
          case EvKind::Fail: handleFail(); break;
          case EvKind::Recover: handleRecover(ev.slot); break;
          case EvKind::ScaleTick: handleScaleTick(); break;
          case EvKind::Timeout: handleTimeout(ev.req, ev.token); break;
          case EvKind::Issue: handleIssue(ev.req); break;
        }
        if (cfg_.profile)
            dispatchSec_ += coordTimer_.restart();
    }

    // Drain the orphans (and draining slots); failed slots stay
    // frozen.  Leftover control events are dead — every request is
    // resolved.
    advanceTo(sim::kNoHorizon);
    finalize();
    return res_;
}

void
ServeDriver::finalize()
{
    cluster::ClusterResult &out = res_.cluster;
    fleet_.aggregate(out, dispatchSec_);
    out.numTasks = res_.attempts;
    responses_.fill(out);

    out.shedTasks = res_.shed;
    out.deferredTasks = res_.deferrals;
    out.retryTasks = res_.retries;
    out.timeoutTasks = res_.timeouts;
    const std::uint64_t verdicts = res_.attempts + res_.shed;
    if (verdicts > 0)
        out.shedRate = static_cast<double>(res_.shed) /
            static_cast<double>(verdicts);
    if (res_.requests > 0) {
        out.retryRate = static_cast<double>(res_.retries) /
            static_cast<double>(res_.requests);
        out.timeoutRate = static_cast<double>(res_.timeouts) /
            static_cast<double>(res_.requests);
        res_.successRate = static_cast<double>(res_.responses) /
            static_cast<double>(res_.requests);
    }

    res_.clientLatency = percentileSummary(clientLatency_);
    if (res_.endCycle > 0) {
        upIntegral_ +=
            static_cast<double>(
                std::max(res_.endCycle, lastUpChange_) -
                lastUpChange_) *
            static_cast<double>(upCount_);
        res_.meanUpSocs =
            upIntegral_ / static_cast<double>(res_.endCycle);
    }
}

} // anonymous namespace

ServeResult
runServe(const ServeConfig &cfg)
{
    ServeDriver driver(cfg);
    return driver.run();
}

} // namespace moca::serve
