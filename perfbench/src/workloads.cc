#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>

#include "cluster/cluster.h"
#include "cluster/workload.h"
#include "common/stats.h"
#include "exp/matrix.h"
#include "exp/oracle.h"
#include "exp/scenario.h"
#include "serve/serve.h"
#include "tracing.h"
#include "workload/workload.h"

namespace perfbench {

using namespace moca;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a, fed 64-bit words; doubles are hashed by bit pattern. */
class Digest
{
  public:
    void u(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001B3ULL;
        }
    }
    void i(long long v) { u(static_cast<std::uint64_t>(v)); }
    void d(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u(bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/** Table II SoC on the event kernel with memory model `mem`.  The
 *  kernel is pinned so a change of the default kernel does not
 *  change what a workload measures. */
sim::SocConfig
eventSoc(const char *mem)
{
    sim::SocConfig cfg;
    cfg.kernel = sim::SimKernel::Event;
    cfg.memModel = mem;
    return cfg;
}

void
hashMetrics(Digest &dg, const metrics::RunMetrics &m)
{
    dg.d(m.slaRate);
    dg.d(m.slaRateLow);
    dg.d(m.slaRateMid);
    dg.d(m.slaRateHigh);
    dg.d(m.stp);
    dg.d(m.fairness);
    dg.d(m.meanNormLatency);
    dg.d(m.worstNormLatency);
    dg.i(m.numJobs);
}

void
hashPercentiles(Digest &dg, const PercentileSummary &p)
{
    dg.d(p.p50);
    dg.d(p.p95);
    dg.d(p.p99);
}

void
hashScenario(Digest &dg, const exp::ScenarioResult &r)
{
    for (const sim::JobResult &j : r.jobs) {
        dg.i(j.spec.id);
        dg.u(j.spec.dispatch);
        dg.u(j.firstStart);
        dg.u(j.finish);
        dg.u(j.dramBytesMoved);
        dg.u(j.l2BytesMoved);
        dg.u(j.stallCycles);
        dg.i(j.migrations);
        dg.i(j.preemptions);
        dg.i(j.throttleReconfigs);
    }
    hashMetrics(dg, r.metrics);
    dg.u(r.makespan);
    dg.d(r.dramBusyFraction);
    dg.d(r.thrashLostBytes);
    dg.u(r.simSteps);
    dg.u(r.cyclesSimulated);
    dg.u(r.memTraffic.dramRowHits);
    dg.u(r.memTraffic.dramRowMisses);
    for (double b : r.memTraffic.bankBytes)
        dg.d(b);
    dg.d(r.memTraffic.l2ConflictLostBytes);
}

/** Every simulated field of a ClusterResult (names and the wall-clock
 *  phase profile are left out: traced runs differ there). */
void
hashCluster(Digest &dg, const cluster::ClusterResult &r)
{
    dg.i(r.numSocs);
    dg.u(r.numTasks);
    dg.d(r.slaRate);
    dg.d(r.slaRateHigh);
    hashPercentiles(dg, r.latency);
    hashPercentiles(dg, r.normLatency);
    dg.d(r.stp);
    dg.u(r.makespan);
    dg.d(r.goodput);
    dg.d(r.shedRate);
    dg.d(r.retryRate);
    dg.d(r.timeoutRate);
    dg.u(r.shedTasks);
    dg.u(r.deferredTasks);
    dg.u(r.retryTasks);
    dg.u(r.timeoutTasks);
    dg.d(r.balanceCv);
    dg.u(r.simSteps);
    dg.u(r.epochs);
    dg.u(r.horizonStalls);
    dg.d(r.meanSocsStepped);
    for (const cluster::SocShare &s : r.perSoc) {
        dg.i(s.tasks);
        hashMetrics(dg, s.metrics);
        dg.u(s.makespan);
        dg.d(s.dramBusyFraction);
        dg.u(s.simSteps);
    }
}

/** The PDES engine's per-layer values (phases need profile on). */
Values
clusterLayer(const cluster::ClusterResult &r)
{
    const cluster::PhaseBreakdown &ph = r.phases;
    const double worker = ph.shardAdvanceSec + ph.barrierWaitSec;
    return {{"cluster.epochs", static_cast<double>(r.epochs)},
            {"cluster.horizon_stalls", static_cast<double>(r.horizonStalls)},
            {"cluster.socs_per_epoch", r.meanSocsStepped},
            {"cluster.shard_advance_s", ph.shardAdvanceSec},
            {"cluster.barrier_wait_s", ph.barrierWaitSec},
            {"cluster.barrier_share",
             worker > 0.0 ? ph.barrierWaitSec / worker : 0.0},
            {"cluster.dispatch_s", ph.dispatchSec}};
}

std::uint64_t
absDiff(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

// ---------------------------------------------------------------------

/**
 * The paper's evaluation matrix: Workload-{A,B,C} x QoS-{L,M,H}, each
 * trace replayed under prema, static, planaria and moca on one
 * Table II SoC (flat memory), one cell after another.
 */
class PaperGrid final : public Workload
{
  public:
    explicit PaperGrid(int tasks) : Workload(eventSoc("flat")), tasks_(tasks)
    {
    }

    const char *name() const override { return "paper-grid"; }

    std::vector<std::pair<std::string, std::string>>
    params() const override
    {
        return {{"scenarios", "Workload-{A,B,C} x QoS-{L,M,H}"},
                {"policies", "prema,static,planaria,moca"},
                {"tasks_per_cell", std::to_string(tasks_)},
                {"load", "0.8"},
                {"mem", soc().memModel},
                {"kernel", "event"},
                {"sweep_workers", "1"}};
    }

    std::uint64_t operations() const override
    {
        return exp::matrixCells().size() *
            exp::allPolicySpecs().size() *
            static_cast<std::uint64_t>(tasks_);
    }

    PassResult run(bool traced) const override
    {
        const sim::SocConfig cfg = traced ? tracedSoc() : soc();
        const auto &policies = exp::allPolicySpecs();
        PassResult p;
        Digest dg;
        // sla[policy][scenario], for the fidelity print-out.
        std::vector<std::vector<double>> sla(policies.size());
        for (const Trace &t : traces_) {
            for (std::size_t k = 0; k < policies.size(); ++k) {
                const std::string spec =
                    traced ? timed(policies[k]) : policies[k];
                const auto t0 = Clock::now();
                const exp::ScenarioResult r =
                    exp::runTrace(spec, t.jobs, t.config, cfg);
                const double cell = since(t0);
                p.seconds += cell;
                p.cellSeconds.push_back(cell);
                p.simSteps += r.simSteps;
                p.failed += check(t.jobs, r);
                hashScenario(dg, r);
                sla[k].push_back(r.metrics.slaRate);
            }
        }
        p.digest = dg.value();
        p.socSeconds = p.seconds;

        // MoCA's SLA gain over each baseline, as bench/fig5_sla
        // computes it, beside the paper's Sec. V-A references.
        const std::map<std::string, std::pair<double, double>> paper = {
            {"prema", {8.7, 18.1}},
            {"static", {1.8, 2.4}},
            {"planaria", {1.8, 3.9}}};
        const std::size_t ref = policies.size() - 1; // "moca"
        for (std::size_t k = 0; k < ref; ++k) {
            std::vector<double> ratios;
            for (std::size_t s = 0; s < traces_.size(); ++s)
                ratios.push_back(sla[ref][s] /
                                 std::max(sla[k][s], 1e-3));
            const std::string key = "out.sla_gain." + policies[k];
            p.out.emplace_back(key + ".geomean", geomean(ratios));
            p.out.emplace_back(
                key + ".max",
                *std::max_element(ratios.begin(), ratios.end()));
            p.out.emplace_back(key + ".paper_geomean",
                               paper.at(policies[k]).first);
            p.out.emplace_back(key + ".paper_max",
                               paper.at(policies[k]).second);
        }
        return p;
    }

  protected:
    std::vector<dnn::ModelId> models() const override
    {
        return dnn::workloadSetC();
    }

    void synthesize(std::uint64_t seed) override
    {
        traces_.clear();
        for (const auto &[set, qos] : exp::matrixCells()) {
            Trace t;
            t.config.set = set;
            t.config.qos = qos;
            t.config.numTasks = tasks_;
            t.config.seed = seed;
            t.jobs = exp::makeTrace(t.config, soc());
            traces_.push_back(std::move(t));
        }
    }

  private:
    struct Trace
    {
        workload::TraceConfig config;
        std::vector<sim::JobSpec> jobs;
    };

    /** Input tasks that did not complete exactly once with dispatch
     *  <= first start <= finish, plus completions of no input task. */
    static std::uint64_t check(const std::vector<sim::JobSpec> &jobs,
                               const exp::ScenarioResult &r)
    {
        std::map<int, int> done;
        for (const sim::JobSpec &j : jobs)
            done[j.id] = 0;
        std::uint64_t failed = 0;
        for (const sim::JobResult &j : r.jobs) {
            auto it = done.find(j.spec.id);
            if (it == done.end()) {
                ++failed; // A completion of no input task.
                continue;
            }
            const bool ordered = j.spec.dispatch <= j.firstStart &&
                j.firstStart <= j.finish;
            it->second += ordered ? 1 : 2;
        }
        for (const auto &[id, count] : done)
            if (count != 1)
                ++failed;
        return failed;
    }

    int tasks_;
    std::vector<Trace> traces_;
};

// ---------------------------------------------------------------------

/**
 * 16 SoCs under an open-loop Poisson stream over the wide model mix,
 * least-loaded dispatch, moca, banked memory, 3 PDES workers.
 */
class FleetPdes final : public Workload
{
  public:
    static constexpr int kSocs = 16;
    static constexpr int kWorkers = 3;
    static constexpr double kLoad = 0.8;

    explicit FleetPdes(int tasks_per_soc)
        : Workload(eventSoc("banked")), tasksPerSoc_(tasks_per_soc)
    {
    }

    const char *name() const override { return "fleet-pdes"; }

    std::vector<std::pair<std::string, std::string>>
    params() const override
    {
        return {{"socs", std::to_string(kSocs)},
                {"tasks_per_soc", std::to_string(tasksPerSoc_)},
                {"process", "poisson"},
                {"load", "0.8"},
                {"mix", "wide"},
                {"dispatcher", "least-loaded"},
                {"policy", "moca"},
                {"mem", soc().memModel},
                {"kernel", "event"},
                {"pdes_workers", std::to_string(kWorkers)}};
    }

    std::uint64_t operations() const override
    {
        return static_cast<std::uint64_t>(kSocs) * tasksPerSoc_;
    }

    PassResult run(bool traced) const override
    {
        cluster::ClusterConfig cc = cluster::ClusterConfig::homogeneous(
            kSocs, traced ? tracedSoc() : soc());
        cc.policy = traced ? timed("moca") : "moca";
        cc.dispatcher = traced ? timed("least-loaded") : "least-loaded";
        cc.dispatcherSeed = seed_;
        cc.jobs = kWorkers;
        cc.profile = traced;

        PassResult p;
        const auto t0 = Clock::now();
        const cluster::ClusterResult r = cluster::runCluster(cc, tasks_);
        p.seconds = since(t0);
        p.simSteps = r.simSteps;

        // Every input task is placed once and completes once.
        std::uint64_t placed = 0, completed = 0;
        for (const cluster::SocShare &s : r.perSoc) {
            placed += static_cast<std::uint64_t>(s.tasks);
            completed += static_cast<std::uint64_t>(s.metrics.numJobs);
        }
        const std::uint64_t n = tasks_.size();
        p.failed = std::min<std::uint64_t>(
            n, absDiff(n, r.numTasks) + absDiff(n, placed) +
                   absDiff(n, completed));

        Digest dg;
        hashCluster(dg, r);
        p.digest = dg.value();
        p.out = {{"out.sla_rate", r.slaRate},
                 {"out.stp", r.stp},
                 {"out.goodput", r.goodput}};

        p.socSeconds = r.phases.shardAdvanceSec;
        p.layer = clusterLayer(r);
        return p;
    }

  protected:
    std::vector<dnn::ModelId> models() const override
    {
        // The "wide" mix: Table III plus the extension profiles.
        std::vector<dnn::ModelId> mix = dnn::allModelIds();
        for (dnn::ModelId id : dnn::extensionModelIds())
            mix.push_back(id);
        return mix;
    }

    void synthesize(std::uint64_t seed) override
    {
        cluster::SynthConfig synth;
        synth.process = cluster::ArrivalProcess::Poisson;
        synth.numTasks = kSocs * tasksPerSoc_;
        synth.mix = models();
        synth.loadFactor = kLoad;
        synth.fleetTiles = kSocs * soc().numTiles;
        synth.seed = seed;
        tasks_ = cluster::synthesizeTasks(synth, [&](dnn::ModelId id) {
            return exp::isolatedLatency(id, 1, soc());
        });
    }

  private:
    int tasksPerSoc_;
    std::vector<cluster::ClusterTask> tasks_;
};

// ---------------------------------------------------------------------

/**
 * 4 SoCs serving 64 closed-loop clients (1 outstanding request each)
 * through queue-cap admission, with SoC failures and requeue.
 */
class ServeClosed final : public Workload
{
  public:
    static constexpr int kSocs = 4;
    static constexpr int kClients = 64;

    explicit ServeClosed(int requests_per_client)
        : Workload(eventSoc("flat")), rpc_(requests_per_client)
    {
    }

    const char *name() const override { return "serve-closed"; }

    std::vector<std::pair<std::string, std::string>>
    params() const override
    {
        const serve::ServeConfig sc = config(false);
        return {{"socs", std::to_string(kSocs)},
                {"clients", std::to_string(kClients)},
                {"requests_per_client", std::to_string(rpc_)},
                {"outstanding", "1"},
                {"think", "4.0"},
                {"timeout_scale", "6"},
                {"retries", "3"},
                {"admission", sc.admission},
                {"fail_rate_per_gcycle", "100"},
                {"inflight", "requeue"},
                {"autoscale", "0"},
                {"control_quantum", "50000"},
                {"dispatcher", sc.dispatcher},
                {"policy", sc.policy},
                {"mem", soc().memModel},
                {"kernel", "event"},
                {"pdes_workers", "1"}};
    }

    std::uint64_t operations() const override
    {
        return static_cast<std::uint64_t>(kClients) * rpc_;
    }

    PassResult run(bool traced) const override
    {
        const serve::ServeConfig sc = config(traced);
        PassResult p;
        const auto t0 = Clock::now();
        const serve::ServeResult r = serve::runServe(sc);
        p.seconds = since(t0);
        p.simSteps = r.cluster.simSteps;

        // The front-end accounting identities: every issued request
        // resolves once, and attempts are conserved across requeues.
        const std::uint64_t n = operations();
        std::uint64_t off = absDiff(n, r.requests) +
            absDiff(r.requests, r.responses + r.giveUps) +
            absDiff(r.attempts, r.responses + r.orphans + r.lostJobs) +
            absDiff(r.cluster.numTasks, r.attempts);
        if (r.requeued > r.lostJobs)
            off += r.requeued - r.lostJobs;
        p.failed = std::min(n, off);

        Digest dg;
        hashCluster(dg, r.cluster);
        for (std::uint64_t v :
             {r.requests, r.attempts, r.responses, r.giveUps, r.timeouts,
              r.retries, r.shed, r.deferrals, r.orphans, r.requeued,
              r.lostJobs, r.failEvents, r.recoverEvents, r.scaleUps,
              r.scaleDowns, static_cast<std::uint64_t>(r.endCycle)})
            dg.u(v);
        hashPercentiles(dg, r.clientLatency);
        dg.d(r.successRate);
        dg.d(r.meanUpSocs);
        p.digest = dg.value();
        p.out = {{"out.sla_rate", r.cluster.slaRate},
                 {"out.stp", r.cluster.stp},
                 {"out.goodput", r.cluster.goodput}};

        p.socSeconds = r.cluster.phases.shardAdvanceSec;
        const auto count = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        p.layer = clusterLayer(r.cluster);
        p.layer.insert(p.layer.end(), {
            {"serve.requests", count(r.requests)},
            {"serve.attempts", count(r.attempts)},
            {"serve.responses", count(r.responses)},
            {"serve.retries", count(r.retries)},
            {"serve.timeouts", count(r.timeouts)},
            {"serve.shed", count(r.shed)},
            {"serve.orphans", count(r.orphans)},
            {"serve.soc_failures", count(r.failEvents)},
            {"serve.useful_share",
             r.attempts > 0 ? count(r.responses) / count(r.attempts)
                            : 0.0},
            {"serve.coordinator_s", r.cluster.phases.dispatchSec}});
        return p;
    }

  protected:
    std::vector<dnn::ModelId> models() const override
    {
        return dnn::workloadSetC();
    }

    /** The client pool draws its requests inside runServe. */
    void synthesize(std::uint64_t) override {}

  private:
    serve::ServeConfig config(bool traced) const
    {
        const std::string policy = "moca", dispatcher = "rr",
                          admission = "queue-cap:depth=4";
        serve::ServeConfig sc;
        sc.soc = traced ? tracedSoc() : soc();
        sc.numSocs = kSocs;
        sc.policy = traced ? timed(policy) : policy;
        sc.dispatcher = traced ? timed(dispatcher) : dispatcher;
        sc.admission = traced ? timed(admission) : admission;
        sc.dispatcherSeed = seed_;
        sc.jobs = 1;
        sc.controlQuantum = 50'000;
        sc.clients.numClients = kClients;
        sc.clients.maxOutstanding = 1;
        sc.clients.requestsPerClient = rpc_;
        sc.clients.thinkFactor = 4.0;
        sc.clients.timeoutScale = 6.0;
        sc.clients.maxRetries = 3;
        sc.clients.seed = seed_;
        sc.failures.rate = 100.0;
        sc.failures.inflight = serve::InflightPolicy::Requeue;
        sc.failures.seed = seed_ + 6;
        sc.autoscaler.enabled = false;
        sc.profile = traced;
        return sc;
    }

    int rpc_;
};

} // namespace

// ---------------------------------------------------------------------

SetupTimes
Workload::setup(std::uint64_t seed)
{
    SetupTimes t;
    const auto t0 = Clock::now();
    seed_ = seed;
    exp::clearOracleCache();
    warmOracle(soc_);
    t.oracle = since(t0);
    const auto t1 = Clock::now();
    synthesize(seed);
    t.synth = since(t1);
    t.total = since(t0);
    return t;
}

void
Workload::warmTracedOracle() const
{
    warmOracle(tracedSoc());
}

void
Workload::warmOracle(const sim::SocConfig &cfg) const
{
    // Single-tile latencies set SLA targets and arrival rates; the
    // full-SoC ones normalize the metrics.
    for (dnn::ModelId id : models()) {
        exp::isolatedLatency(id, 1, cfg);
        exp::isolatedLatency(id, cfg.numTiles, cfg);
    }
}

sim::SocConfig
Workload::tracedSoc() const
{
    sim::SocConfig cfg = soc_;
    cfg.memModel = timed(cfg.memModel);
    return cfg;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-grid", "fleet-pdes", "serve-closed"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, Scale scale)
{
    const bool tiny = scale == Scale::Tiny;
    if (name == "paper-grid")
        return std::make_unique<PaperGrid>(tiny ? 8 : 120);
    if (name == "fleet-pdes")
        return std::make_unique<FleetPdes>(tiny ? 4 : 160);
    if (name == "serve-closed")
        return std::make_unique<ServeClosed>(tiny ? 2 : 48);
    return nullptr;
}

std::uint64_t
socFingerprint(const sim::SocConfig &cfg)
{
    Digest dg;
    dg.i(cfg.numTiles);
    dg.i(cfg.arrayDim);
    dg.u(cfg.scratchpadBytes);
    dg.u(cfg.accumulatorBytes);
    dg.u(cfg.l2Bytes);
    dg.i(cfg.l2Banks);
    dg.d(cfg.l2BankBytesPerCycle);
    dg.d(cfg.dramBytesPerCycle);
    dg.d(cfg.tileDmaBytesPerCycle);
    dg.d(cfg.dmaRunAhead);
    dg.u(cfg.dmaBeatBytes);
    dg.d(cfg.overlapF);
    dg.u(cfg.quantum);
    dg.i(static_cast<long long>(cfg.kernel));
    for (const char c : cfg.memModel)
        dg.u(static_cast<unsigned char>(c));
    dg.u(cfg.schedPeriod);
    dg.u(cfg.maxCycles);
    dg.i(cfg.layerBoundaryEvents ? 1 : 0);
    dg.u(cfg.migrationCycles);
    dg.u(cfg.interTileSyncCycles);
    dg.d(cfg.multiTileSerialFraction);
    dg.i(cfg.dramProportionalArbitration ? 1 : 0);
    dg.d(cfg.dramThrashFactor);
    dg.d(cfg.dramThrashOnset);
    dg.i(cfg.socId);
    dg.u(cfg.sampleEvery);
    return dg.value();
}

} // namespace perfbench
