/**
 * @file
 * Integration-level tests of the SoC simulator engine: isolated runs,
 * co-location slowdowns, tile scaling, stalls, throttling effects,
 * determinism, and booting a SoC late on the tick grid.
 */

#include <gtest/gtest.h>

#include <string>

#include "dnn/model_zoo.h"
#include "exp/oracle.h"
#include "exp/registry.h"
#include "sim/soc.h"

namespace moca::sim {
namespace {

JobSpec
spec(int id, dnn::ModelId model, Cycles dispatch = 0, int priority = 0)
{
    JobSpec s;
    s.id = id;
    s.model = &dnn::getModel(model);
    s.dispatch = dispatch;
    s.priority = priority;
    s.slaLatency = 1'000'000'000;
    return s;
}

TEST(Soc, SingleJobCompletes)
{
    SocConfig cfg;
    exp::SoloPolicy policy(cfg.numTiles);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws));
    soc.run();
    ASSERT_EQ(soc.results().size(), 1u);
    EXPECT_GT(soc.results()[0].latency(), 0u);
}

TEST(Soc, IsolatedLatencyDeterministic)
{
    SocConfig cfg;
    exp::clearOracleCache();
    const Cycles a =
        exp::isolatedLatency(dnn::ModelId::AlexNet, 8, cfg);
    exp::clearOracleCache();
    const Cycles b =
        exp::isolatedLatency(dnn::ModelId::AlexNet, 8, cfg);
    EXPECT_EQ(a, b);
}

TEST(Soc, MoreTilesFaster)
{
    SocConfig cfg;
    for (dnn::ModelId id :
         {dnn::ModelId::ResNet50, dnn::ModelId::YoloV2}) {
        const Cycles c1 = exp::isolatedLatency(id, 1, cfg);
        const Cycles c8 = exp::isolatedLatency(id, 8, cfg);
        EXPECT_LT(c8, c1) << dnn::modelIdName(id);
        // Sub-linear but substantial speedup.
        EXPECT_GT(static_cast<double>(c1) / c8, 2.0)
            << dnn::modelIdName(id);
    }
}

TEST(Soc, IsolatedLatencyOrdering)
{
    // Heavier models take longer in isolation.
    SocConfig cfg;
    const Cycles kws = exp::isolatedLatency(dnn::ModelId::Kws, 8, cfg);
    const Cycles squeeze =
        exp::isolatedLatency(dnn::ModelId::SqueezeNet, 8, cfg);
    const Cycles resnet =
        exp::isolatedLatency(dnn::ModelId::ResNet50, 8, cfg);
    const Cycles yolo =
        exp::isolatedLatency(dnn::ModelId::YoloV2, 8, cfg);
    EXPECT_LT(kws, squeeze);
    EXPECT_LT(squeeze, resnet);
    EXPECT_LT(resnet, yolo);
}

TEST(Soc, ColocationSlowsJobsDown)
{
    // Two co-located AlexNets on 4 tiles each run slower than one
    // AlexNet alone on 4 tiles (bandwidth + cache contention).
    SocConfig cfg;
    exp::SoloPolicy solo4(4);
    Soc alone(cfg, solo4);
    alone.addJob(spec(0, dnn::ModelId::AlexNet));
    alone.run();
    const Cycles iso = alone.results()[0].latency();

    exp::SoloPolicy pair4(4);
    Soc both(cfg, pair4);
    both.addJob(spec(0, dnn::ModelId::AlexNet));
    both.addJob(spec(1, dnn::ModelId::AlexNet));
    both.run();
    for (const auto &r : both.results())
        EXPECT_GT(r.latency(), iso);
}

TEST(Soc, ThrottledJobRunsSlower)
{
    SocConfig cfg;

    struct ThrottlingSolo : exp::SoloPolicy
    {
        hw::ThrottleConfig tcfg;
        explicit ThrottlingSolo(int tiles) : exp::SoloPolicy(tiles) {}
        void
        schedule(Soc &soc, SchedEvent event) override
        {
            exp::SoloPolicy::schedule(soc, event);
            for (int id : soc.runningJobs())
                if (soc.job(id).throttle.stats().reconfigurations == 0)
                    soc.configureThrottle(id, tcfg);
        }
    };

    ThrottlingSolo p1(8);
    Soc free_run(cfg, p1);
    free_run.addJob(spec(0, dnn::ModelId::SqueezeNet));
    free_run.run();
    const Cycles unthrottled = free_run.results()[0].latency();

    ThrottlingSolo p2(8);
    // Cap each tile at 1/16 of its DMA beats (1 B/cycle/tile).
    p2.tcfg = {1024, 64};
    Soc throttled(cfg, p2);
    throttled.addJob(spec(0, dnn::ModelId::SqueezeNet));
    throttled.run();
    const Cycles capped = throttled.results()[0].latency();

    EXPECT_GT(capped, unthrottled + unthrottled / 10);
}

TEST(Soc, StallDelaysCompletion)
{
    SocConfig cfg;

    struct StallingPolicy : exp::SoloPolicy
    {
        bool stalled = false;
        explicit StallingPolicy(int tiles) : exp::SoloPolicy(tiles) {}
        void
        schedule(Soc &soc, SchedEvent event) override
        {
            exp::SoloPolicy::schedule(soc, event);
            if (!stalled && !soc.runningJobs().empty()) {
                stalled = true;
                // A resize to fewer tiles charges the migration
                // penalty.
                soc.resizeJob(soc.runningJobs()[0], 4);
            }
        }
    };

    exp::SoloPolicy plain(8);
    Soc base(cfg, plain);
    base.addJob(spec(0, dnn::ModelId::SqueezeNet));
    base.run();

    StallingPolicy stall(8);
    Soc delayed(cfg, stall);
    delayed.addJob(spec(0, dnn::ModelId::SqueezeNet));
    delayed.run();

    EXPECT_GT(delayed.results()[0].latency(),
              base.results()[0].latency() + cfg.migrationCycles / 2);
    EXPECT_EQ(delayed.results()[0].migrations, 1);
}

TEST(Soc, ArrivalTimesRespected)
{
    SocConfig cfg;
    exp::SoloPolicy policy(8);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws, 0));
    soc.addJob(spec(1, dnn::ModelId::Kws, 5'000'000));
    soc.run();
    ASSERT_EQ(soc.results().size(), 2u);
    for (const auto &r : soc.results()) {
        if (r.spec.id == 1) {
            EXPECT_GE(r.firstStart, 5'000'000u);
        }
    }
}

TEST(Soc, FreeTileAccounting)
{
    SocConfig cfg;
    exp::SoloPolicy policy(3);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws));
    soc.addJob(spec(1, dnn::ModelId::Kws));
    // After starting two 3-tile jobs, 2 tiles remain.
    soc.run(0);
    EXPECT_EQ(soc.freeTiles(), cfg.numTiles);
    EXPECT_EQ(soc.results().size(), 2u);
}

TEST(Soc, ResultsCarrySpecFields)
{
    SocConfig cfg;
    exp::SoloPolicy policy(8);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::YoloLite, 100, 7));
    soc.run();
    const auto &r = soc.results()[0];
    EXPECT_EQ(r.spec.priority, 7);
    EXPECT_EQ(r.spec.dispatch, 100u);
    EXPECT_GT(r.dramBytesMoved, 0u);
    EXPECT_GE(r.l2BytesMoved, r.dramBytesMoved);
}

TEST(Soc, DramUtilizationBounded)
{
    SocConfig cfg;
    exp::SoloPolicy policy(2);
    Soc soc(cfg, policy);
    for (int i = 0; i < 4; ++i)
        soc.addJob(spec(i, dnn::ModelId::AlexNet));
    soc.run();
    EXPECT_GT(soc.stats().dramBusyFraction, 0.05);
    EXPECT_LE(soc.stats().dramBusyFraction, 1.0 + 1e-9);
}

TEST(Soc, AdvanceToMatchesManualSteppingAndRun)
{
    // advanceTo(h) is the hoisted bounded-stepping loop the cluster
    // fleet engine runs per SoC; it must replay the manual
    // while-stepOnce loop exactly, and advanceTo(kNoHorizon) must
    // replay an unbounded run() bit-identically.
    SocConfig cfg;
    const auto load = [&](Soc &soc) {
        soc.addJob(spec(0, dnn::ModelId::AlexNet));
        soc.addJob(spec(1, dnn::ModelId::Kws, 20'000));
    };

    exp::SoloPolicy pa(cfg.numTiles), pb(cfg.numTiles),
        pc(cfg.numTiles);
    Soc manual(cfg, pa), hoisted(cfg, pb), reference(cfg, pc);
    load(manual);
    load(hoisted);
    load(reference);

    manual.beginRun();
    hoisted.beginRun();
    const Cycles horizon = 50'000;
    while (!manual.done() && manual.now() < horizon)
        manual.stepOnce(horizon);
    hoisted.advanceTo(horizon);
    EXPECT_EQ(hoisted.now(), manual.now());
    EXPECT_EQ(hoisted.done(), manual.done());

    manual.advanceTo(kNoHorizon);
    hoisted.advanceTo(kNoHorizon);
    manual.finishRun();
    hoisted.finishRun();
    reference.run();

    ASSERT_EQ(hoisted.results().size(), reference.results().size());
    for (std::size_t i = 0; i < hoisted.results().size(); ++i) {
        EXPECT_EQ(hoisted.results()[i].finish,
                  reference.results()[i].finish);
        EXPECT_EQ(hoisted.results()[i].firstStart,
                  reference.results()[i].firstStart);
        EXPECT_EQ(manual.results()[i].finish,
                  reference.results()[i].finish);
    }
    EXPECT_EQ(hoisted.stats().quanta, reference.stats().quanta);
    EXPECT_EQ(manual.stats().quanta, reference.stats().quanta);
}

TEST(Soc, AdvanceToHorizonZeroIsNoOpAndNextEventTracksClock)
{
    SocConfig cfg;
    exp::SoloPolicy policy(cfg.numTiles);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws));
    soc.beginRun();

    // Horizon 0 means "an arrival at cycle 0": nothing may advance.
    EXPECT_EQ(soc.nextEventTime(), 0u);
    soc.advanceTo(0);
    EXPECT_EQ(soc.now(), 0u);
    EXPECT_EQ(soc.nextEventTime(), 0u);

    // A bounded advance leaves a busy SoC exactly at the horizon, and
    // nextEventTime() reports the clock until the SoC drains...
    soc.advanceTo(5'000);
    EXPECT_EQ(soc.now(), 5'000u);
    EXPECT_EQ(soc.nextEventTime(), 5'000u);

    // ... after which it reports the no-event sentinel.
    soc.advanceTo(kNoHorizon);
    soc.finishRun();
    EXPECT_TRUE(soc.done());
    EXPECT_EQ(soc.nextEventTime(), kNoEvent);
}

/**
 * Drive `soc` the way the fleet drives a recovered slot: advance to
 * each dispatch cycle (and each extra horizon), inject the jobs due
 * there, then drain.
 */
void
driveFleetStyle(Soc &soc, const std::vector<JobSpec> &specs,
                const std::vector<Cycles> &horizons)
{
    std::size_t next = 0;
    for (Cycles h : horizons) {
        soc.advanceTo(h);
        while (next < specs.size() && specs[next].dispatch == h)
            soc.injectJob(specs[next++]);
    }
    ASSERT_EQ(next, specs.size());
    soc.advanceTo(kNoHorizon);
    soc.finishRun();
}

TEST(Soc, LateBootMatchesIdlingFromZero)
{
    // A SoC booted at B sees exactly the scheduling points a SoC
    // idling from cycle 0 sees from B on — it only skips the policy
    // calls on its empty past.  Births on and off the tick grid; one
    // arrival lands exactly on a tick (arrival first, then tick).
    for (const char *policy : {"moca", "prema", "static", "planaria"}) {
        for (SimKernel kernel : {SimKernel::Quantum, SimKernel::Event}) {
            SocConfig cfg;
            cfg.kernel = kernel;
            const Cycles period = cfg.schedPeriod;
            for (Cycles birth : {3 * period, 3 * period + 12'345}) {
                const std::string what = std::string(policy) + " " +
                    simKernelName(kernel) + " B=" +
                    std::to_string(birth);
                const Cycles on_tick = (birth / period + 2) * period;
                std::vector<JobSpec> specs = {
                    spec(0, dnn::ModelId::Kws, birth, 2),
                    spec(1, dnn::ModelId::AlexNet, birth + 7'777, 5),
                    spec(2, dnn::ModelId::SqueezeNet, on_tick, 11),
                    spec(3, dnn::ModelId::Kws, on_tick + 30'001, 8),
                };
                std::vector<Cycles> horizons = {
                    birth, birth + 7'777, birth + 50'000, on_tick,
                    on_tick + 30'001, on_tick + 2 * period + 1};

                auto early_policy =
                    exp::PolicyRegistry::instance().make(policy, cfg);
                auto late_policy =
                    exp::PolicyRegistry::instance().make(policy, cfg);
                Soc early(cfg, *early_policy), late(cfg, *late_policy);
                early.trace().enable();
                late.trace().enable();
                early.beginRun();
                late.beginRun(0, birth);
                EXPECT_EQ(late.now(), birth) << what;
                driveFleetStyle(early, specs, horizons);
                driveFleetStyle(late, specs, horizons);

                const auto &re = early.results();
                const auto &rl = late.results();
                ASSERT_EQ(re.size(), specs.size()) << what;
                ASSERT_EQ(rl.size(), re.size()) << what;
                for (std::size_t i = 0; i < re.size(); ++i) {
                    EXPECT_EQ(rl[i].spec.id, re[i].spec.id) << what;
                    EXPECT_EQ(rl[i].firstStart, re[i].firstStart)
                        << what;
                    EXPECT_EQ(rl[i].finish, re[i].finish) << what;
                    EXPECT_EQ(rl[i].dramBytesMoved,
                              re[i].dramBytesMoved) << what;
                    EXPECT_EQ(rl[i].l2BytesMoved, re[i].l2BytesMoved)
                        << what;
                    EXPECT_EQ(rl[i].stallCycles, re[i].stallCycles)
                        << what;
                    EXPECT_EQ(rl[i].migrations, re[i].migrations)
                        << what;
                    EXPECT_EQ(rl[i].preemptions, re[i].preemptions)
                        << what;
                    EXPECT_EQ(rl[i].throttleReconfigs,
                              re[i].throttleReconfigs) << what;
                }
                EXPECT_EQ(late.now(), early.now()) << what;
                EXPECT_EQ(late.stats().quanta, early.stats().quanta)
                    << what;
                EXPECT_EQ(late.stats().dramBytes,
                          early.stats().dramBytes) << what;
                EXPECT_EQ(late.stats().cyclesSimulated,
                          early.stats().cyclesSimulated - birth)
                    << what;
                EXPECT_LT(late.stats().schedInvocations,
                          early.stats().schedInvocations) << what;

                std::vector<TraceEvent> tail;
                for (const TraceEvent &e : early.trace().events())
                    if (e.cycle >= birth)
                        tail.push_back(e);
                const auto &got = late.trace().events();
                ASSERT_EQ(got.size(), tail.size()) << what;
                bool tick_at_arrival = false;
                for (std::size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].cycle, tail[i].cycle) << what;
                    EXPECT_EQ(got[i].kind, tail[i].kind) << what;
                    EXPECT_EQ(got[i].jobId, tail[i].jobId) << what;
                    EXPECT_EQ(got[i].value, tail[i].value) << what;
                    tick_at_arrival |= got[i].cycle == on_tick &&
                        got[i].kind == TraceEventKind::SchedTick;
                }
                EXPECT_TRUE(tick_at_arrival) << what;
            }
        }
    }
}

TEST(SocDeath, BootAfterAQueuedDispatch)
{
    SocConfig cfg;
    exp::SoloPolicy policy(cfg.numTiles);
    Soc soc(cfg, policy);
    soc.addJob(spec(0, dnn::ModelId::Kws, 10));
    EXPECT_DEATH(soc.beginRun(0, 20), "precedes the start");
}

} // namespace
} // namespace moca::sim
