#include "tracing.h"

#include <chrono>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/dispatcher.h"
#include "exp/registry.h"
#include "mem/memory_model.h"
#include "serve/admission.h"
#include "sim/policy.h"
#include "sim/soc.h"

namespace perfbench {

using namespace moca;

namespace {

const std::string kPrefix = "timed-";

/*
 * Call timer.  The serve workload makes ~10 policy calls per kernel
 * step, so a steady_clock read (~50 ns under KVM) on each side of a
 * call would dominate what it measures.  On x86-64 the decorators read
 * the invariant TSC instead, converted with a rate calibrated against
 * steady_clock once at registration.
 */
#if defined(__x86_64__)
using Tick = unsigned long long;

Tick
stamp()
{
    return __rdtsc();
}

double secondsPerTick = 0.0;

void
calibrateTicks()
{
    using Clock = std::chrono::steady_clock;
    const auto c0 = Clock::now();
    const Tick t0 = stamp();
    while (Clock::now() - c0 < std::chrono::milliseconds(20)) {
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - c0).count();
    secondsPerTick = elapsed / static_cast<double>(stamp() - t0);
}

double
since(Tick t0)
{
    return static_cast<double>(stamp() - t0) * secondsPerTick;
}
#else
using Clock = std::chrono::steady_clock;

Clock::time_point
stamp()
{
    return Clock::now();
}

void
calibrateTicks()
{
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
#endif

std::mutex &
totalsMutex()
{
    static std::mutex m;
    return m;
}

TraceTotals &
globalTotals()
{
    static TraceTotals t;
    return t;
}

void
fold(const TraceTotals &t)
{
    std::lock_guard<std::mutex> lock(totalsMutex());
    globalTotals().add(t);
}

void
addPolicy(PolicyTotals &a, const PolicyTotals &b)
{
    a.arrival += b.arrival;
    a.completion += b.completion;
    a.tick += b.tick;
    a.blockEvent += b.blockEvent;
    a.block += b.block;
    a.complete += b.complete;
    a.seconds += b.seconds;
}

/** The spec the twin was built with, renamed to the real entry. */
Spec
innerSpec(const Spec &spec)
{
    Spec inner = spec;
    inner.name = spec.name.substr(kPrefix.size());
    return inner;
}

class TimedPolicy final : public sim::Policy
{
  public:
    TimedPolicy(std::unique_ptr<sim::Policy> inner, bool is_moca)
        : inner_(std::move(inner)), isMoca_(is_moca)
    {
    }

    ~TimedPolicy() override
    {
        local_.schedInvocations += lastInvocations_;
        fold(local_);
    }

    TimedPolicy(const TimedPolicy &) = delete;
    TimedPolicy &operator=(const TimedPolicy &) = delete;

    const char *name() const override { return inner_->name(); }

    void schedule(sim::Soc &soc, sim::SchedEvent event) override
    {
        if (&soc != soc_) {
            local_.schedInvocations += lastInvocations_;
            soc_ = &soc;
            haveEpochs_ = false;
        }
        lastInvocations_ = soc.stats().schedInvocations;
        if (isMoca_ && haveEpochs_ &&
            soc.waitingEpoch() == waitingEpoch_ &&
            soc.runningEpoch() == runningEpoch_)
            ++local_.mocaSameEpochCalls;

        const auto t0 = stamp();
        inner_->schedule(soc, event);
        layer().seconds += since(t0);

        switch (event) {
        case sim::SchedEvent::JobArrival:
            ++layer().arrival;
            break;
        case sim::SchedEvent::JobCompletion:
            ++layer().completion;
            break;
        case sim::SchedEvent::PeriodicTick:
            ++layer().tick;
            break;
        case sim::SchedEvent::BlockBoundary:
            ++layer().blockEvent;
            break;
        }
        waitingEpoch_ = soc.waitingEpoch();
        runningEpoch_ = soc.runningEpoch();
        haveEpochs_ = true;
    }

    void onBlockBoundary(sim::Soc &soc, int id) override
    {
        const auto t0 = stamp();
        inner_->onBlockBoundary(soc, id);
        layer().seconds += since(t0);
        ++layer().block;
    }

    void onJobComplete(sim::Soc &soc, int id) override
    {
        const auto t0 = stamp();
        inner_->onJobComplete(soc, id);
        layer().seconds += since(t0);
        ++layer().complete;
    }

  private:
    PolicyTotals &layer()
    {
        return isMoca_ ? local_.moca : local_.baselines;
    }

    std::unique_ptr<sim::Policy> inner_;
    bool isMoca_;
    TraceTotals local_;
    const sim::Soc *soc_ = nullptr;
    std::uint64_t lastInvocations_ = 0;
    bool haveEpochs_ = false;
    std::uint64_t waitingEpoch_ = 0;
    std::uint64_t runningEpoch_ = 0;
};

class TimedMemoryModel final : public mem::MemoryModel
{
  public:
    explicit TimedMemoryModel(std::unique_ptr<mem::MemoryModel> inner)
        : inner_(std::move(inner))
    {
        traffic_ = inner_->traffic();
    }

    ~TimedMemoryModel() override { fold(local_); }

    TimedMemoryModel(const TimedMemoryModel &) = delete;
    TimedMemoryModel &operator=(const TimedMemoryModel &) = delete;

    const char *name() const override { return inner_->name(); }

    const std::vector<mem::MemGrant> &
    arbitrate(const std::vector<mem::MemRequest> &requests,
              Cycles horizon, mem::MemStepStats &stats) override
    {
        const auto t0 = stamp();
        const std::vector<mem::MemGrant> &grants =
            inner_->arbitrate(requests, horizon, stats);
        local_.memSeconds += since(t0);

        // traffic() is not virtual: mirror the real model's counters
        // so the Soc reads the same values through the twin.
        traffic_ = inner_->traffic();
        ++local_.memCalls;
        local_.memRequesters += requests.size();
        local_.memCycles += horizon;
        bool idle = true;
        for (const mem::MemRequest &r : requests)
            if (r.dramBytes > 0.0 || r.l2Bytes > 0.0) {
                idle = false;
                break;
            }
        if (idle)
            ++local_.memIdleCalls;
        return grants;
    }

    Cycles cyclesUntilNextChange() const override
    {
        const auto t0 = stamp();
        const Cycles c = inner_->cyclesUntilNextChange();
        local_.memSeconds += since(t0);
        return c;
    }

  private:
    std::unique_ptr<mem::MemoryModel> inner_;
    mutable TraceTotals local_;
};

class TimedDispatcher final : public cluster::Dispatcher
{
  public:
    explicit TimedDispatcher(std::unique_ptr<cluster::Dispatcher> inner)
        : inner_(std::move(inner))
    {
    }

    ~TimedDispatcher() override { fold(local_); }

    TimedDispatcher(const TimedDispatcher &) = delete;
    TimedDispatcher &operator=(const TimedDispatcher &) = delete;

    const char *name() const override { return inner_->name(); }

    int place(const cluster::ClusterTask &task,
              const std::vector<cluster::SocLoad> &socs) override
    {
        const auto t0 = stamp();
        const int k = inner_->place(task, socs);
        local_.placeSeconds += since(t0);
        ++local_.placeCalls;
        return k;
    }

  private:
    std::unique_ptr<cluster::Dispatcher> inner_;
    TraceTotals local_;
};

class TimedAdmission final : public serve::AdmissionPolicy
{
  public:
    explicit TimedAdmission(std::unique_ptr<serve::AdmissionPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    ~TimedAdmission() override { fold(local_); }

    TimedAdmission(const TimedAdmission &) = delete;
    TimedAdmission &operator=(const TimedAdmission &) = delete;

    const char *name() const override { return inner_->name(); }

    serve::AdmissionDecision
    decide(const cluster::ClusterTask &task, Cycles now,
           const std::vector<cluster::SocLoad> &up_socs) override
    {
        const auto t0 = stamp();
        const serve::AdmissionDecision d =
            inner_->decide(task, now, up_socs);
        local_.admitSeconds += since(t0);
        ++local_.admitCalls;
        return d;
    }

  private:
    std::unique_ptr<serve::AdmissionPolicy> inner_;
    TraceTotals local_;
};

/** Copy of a registry entry renamed to its timed twin. */
template <typename Info>
Info
twinInfo(const Info &inner)
{
    Info info;
    info.name = kPrefix + inner.name;
    info.description = "timing decorator of '" + inner.name + "'";
    info.params = inner.params;
    return info;
}

void
registerAll()
{
    auto &policies = exp::PolicyRegistry::instance();
    for (const std::string &name : policies.names()) {
        const exp::PolicyInfo &inner = policies.info(name);
        exp::PolicyInfo info = twinInfo(inner);
        const bool is_moca = name.rfind("moca", 0) == 0;
        info.factory = [factory = inner.factory, is_moca](
                           const sim::SocConfig &cfg,
                           const exp::PolicySpec &spec)
            -> std::unique_ptr<sim::Policy> {
            return std::make_unique<TimedPolicy>(
                factory(cfg, innerSpec(spec)), is_moca);
        };
        exp::PolicyRegistrar{std::move(info)};
    }

    auto &models = mem::MemoryModelRegistry::instance();
    for (const std::string &name : models.names()) {
        const mem::MemoryModelInfo &inner = models.info(name);
        mem::MemoryModelInfo info = twinInfo(inner);
        info.factory = [factory = inner.factory](
                           const sim::SocConfig &cfg,
                           const mem::MemSpec &spec)
            -> std::unique_ptr<mem::MemoryModel> {
            return std::make_unique<TimedMemoryModel>(
                factory(cfg, innerSpec(spec)));
        };
        mem::MemoryModelRegistrar{std::move(info)};
    }

    auto &dispatchers = cluster::DispatcherRegistry::instance();
    for (const std::string &name : dispatchers.names()) {
        const cluster::DispatcherInfo &inner = dispatchers.info(name);
        cluster::DispatcherInfo info = twinInfo(inner);
        info.factory = [factory = inner.factory](
                           int num_socs, std::uint64_t seed,
                           const cluster::DispatcherSpec &spec)
            -> std::unique_ptr<cluster::Dispatcher> {
            return std::make_unique<TimedDispatcher>(
                factory(num_socs, seed, innerSpec(spec)));
        };
        cluster::DispatcherRegistrar{std::move(info)};
    }

    auto &admission = serve::AdmissionRegistry::instance();
    for (const std::string &name : admission.names()) {
        const serve::AdmissionInfo &inner = admission.info(name);
        serve::AdmissionInfo info = twinInfo(inner);
        info.factory = [factory = inner.factory](
                           const serve::AdmissionSpec &spec)
            -> std::unique_ptr<serve::AdmissionPolicy> {
            return std::make_unique<TimedAdmission>(
                factory(innerSpec(spec)));
        };
        serve::AdmissionRegistrar{std::move(info)};
    }
}

} // namespace

void
TraceTotals::add(const TraceTotals &o)
{
    addPolicy(moca, o.moca);
    addPolicy(baselines, o.baselines);
    mocaSameEpochCalls += o.mocaSameEpochCalls;
    schedInvocations += o.schedInvocations;
    memCalls += o.memCalls;
    memIdleCalls += o.memIdleCalls;
    memRequesters += o.memRequesters;
    memCycles += o.memCycles;
    memSeconds += o.memSeconds;
    placeCalls += o.placeCalls;
    placeSeconds += o.placeSeconds;
    admitCalls += o.admitCalls;
    admitSeconds += o.admitSeconds;
}

void
registerTimingDecorators()
{
    static std::once_flag once;
    std::call_once(once, [] {
        calibrateTicks();
        registerAll();
    });
}

std::string
timed(const std::string &spec)
{
    return kPrefix + spec;
}

void
resetTraceTotals()
{
    std::lock_guard<std::mutex> lock(totalsMutex());
    globalTotals() = TraceTotals{};
}

TraceTotals
traceTotals()
{
    std::lock_guard<std::mutex> lock(totalsMutex());
    return globalTotals();
}

} // namespace perfbench
