/**
 * @file
 * Tests for the parallel experiment engine: determinism (parallel ==
 * serial, cell for cell), in-order sink delivery, the low-level
 * indexed pool, per-cell seed derivation, custom-policy cells, and
 * the CSV/JSON sinks' round-trip fidelity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/log.h"
#include "exp/sweep/sinks.h"
#include "exp/sweep/sweep.h"
#include "moca/moca_policy.h"

namespace moca::exp {
namespace {

/** A small but non-trivial grid: 2 scenarios x all 4 policies on
 *  shared traces, plus one mixed-config cell. */
std::vector<SweepCell>
smallGrid(int tasks = 16)
{
    const sim::SocConfig cfg;
    std::vector<SweepCell> grid;
    int scenario = 0;
    for (auto qos :
         {workload::QosLevel::Light, workload::QosLevel::Hard}) {
        workload::TraceConfig trace;
        trace.set = workload::WorkloadSet::C;
        trace.qos = qos;
        trace.numTasks = tasks;
        trace.seed = deriveCellSeed(7, static_cast<std::size_t>(scenario));
        auto specs = std::make_shared<const std::vector<sim::JobSpec>>(
            makeTrace(trace, cfg));
        for (const std::string &spec : allPolicySpecs()) {
            SweepCell cell;
            cell.label = strprintf("scenario-%d", scenario);
            cell.policy = spec;
            cell.trace = trace;
            cell.soc = cfg;
            cell.specs = specs;
            grid.push_back(std::move(cell));
        }
        ++scenario;
    }

    // One cell with a different SoC configuration, to exercise the
    // config-keyed oracle cache under concurrency.
    SweepCell mixed;
    mixed.label = "mixed-config";
    mixed.policy = "moca";
    mixed.trace.set = workload::WorkloadSet::A;
    mixed.trace.numTasks = tasks;
    mixed.trace.seed = 3;
    mixed.soc.numTiles = 4;
    mixed.trace.numTiles = 4;
    grid.push_back(std::move(mixed));
    return grid;
}

void
expectResultsIdentical(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.totalMigrations, b.totalMigrations);
    EXPECT_EQ(a.totalPreemptions, b.totalPreemptions);
    EXPECT_EQ(a.totalThrottleReconfigs, b.totalThrottleReconfigs);
    // Bit-identical, not approximately equal: the same cells must
    // compute the same doubles regardless of worker interleaving.
    EXPECT_EQ(a.metrics.slaRate, b.metrics.slaRate);
    EXPECT_EQ(a.metrics.stp, b.metrics.stp);
    EXPECT_EQ(a.metrics.fairness, b.metrics.fairness);
    EXPECT_EQ(a.dramBusyFraction, b.dramBusyFraction);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t j = 0; j < a.jobs.size(); ++j) {
        EXPECT_EQ(a.jobs[j].spec.id, b.jobs[j].spec.id);
        EXPECT_EQ(a.jobs[j].firstStart, b.jobs[j].firstStart);
        EXPECT_EQ(a.jobs[j].finish, b.jobs[j].finish);
        EXPECT_EQ(a.jobs[j].stallCycles, b.jobs[j].stallCycles);
    }
}

TEST(DeriveCellSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(deriveCellSeed(1, 0), deriveCellSeed(1, 0));
    EXPECT_NE(deriveCellSeed(1, 0), deriveCellSeed(1, 1));
    EXPECT_NE(deriveCellSeed(1, 0), deriveCellSeed(2, 0));
    // No trivial collisions across a realistic grid size.
    std::vector<std::uint64_t> seen;
    for (std::size_t i = 0; i < 1000; ++i)
        seen.push_back(deriveCellSeed(42, i));
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(SweepRunner, ParallelMatchesSerialCellForCell)
{
    const auto grid = smallGrid();

    SweepOptions serial;
    serial.jobs = 1;
    const auto r1 = SweepRunner(serial).run(grid);

    SweepOptions parallel;
    parallel.jobs = 4;
    const auto r4 = SweepRunner(parallel).run(grid);

    ASSERT_EQ(r1.size(), grid.size());
    ASSERT_EQ(r4.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        expectResultsIdentical(r1[i], r4[i]);
}

TEST(SweepRunner, SinksObserveCellOrder)
{
    struct OrderSink : ResultSink
    {
        std::vector<std::size_t> indices;
        bool finished = false;
        void onResult(std::size_t index, const SweepCell &,
                      const ScenarioResult &) override
        {
            indices.push_back(index);
            EXPECT_FALSE(finished);
        }
        void finish() override { finished = true; }
    };

    const auto grid = smallGrid(8);
    OrderSink sink;
    SweepOptions opts;
    opts.jobs = 4;
    SweepRunner(opts).run(grid, {&sink});

    ASSERT_EQ(sink.indices.size(), grid.size());
    for (std::size_t i = 0; i < sink.indices.size(); ++i)
        EXPECT_EQ(sink.indices[i], i);
    EXPECT_TRUE(sink.finished);
}

TEST(SweepRunner, RunIndexedExecutesEveryTaskExactlyOnce)
{
    const std::size_t n = 200;
    std::vector<std::atomic<int>> hits(n);
    SweepRunner::runIndexed(n, 8, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(SweepRunner, RunIndexedPropagatesExceptions)
{
    EXPECT_THROW(
        SweepRunner::runIndexed(50, 4,
                                [&](std::size_t i) {
                                    if (i == 13)
                                        throw std::runtime_error("boom");
                                }),
        std::runtime_error);
}

TEST(SweepRunner, CustomPolicyFactoryMatchesRegistryPolicy)
{
    // A factory building the default MocaPolicy must reproduce the
    // registry cell exactly.
    const sim::SocConfig cfg;
    workload::TraceConfig trace;
    trace.numTasks = 12;
    trace.seed = 5;

    SweepCell registry;
    registry.label = "registry";
    registry.policy = "moca";
    registry.trace = trace;
    registry.soc = cfg;

    SweepCell custom = registry;
    custom.label = "custom";
    custom.policyFactory = [](const sim::SocConfig &c) {
        return std::make_unique<MocaPolicy>(c, MocaPolicyConfig{});
    };

    const auto results = SweepRunner().run({registry, custom});
    expectResultsIdentical(results[0], results[1]);
}

TEST(Sinks, CsvRoundTrip)
{
    const auto grid = smallGrid(8);
    const std::string path = "test_sweep_roundtrip.csv";
    CsvSink csv(path);
    SweepOptions opts;
    opts.jobs = 2;
    const auto results = SweepRunner(opts).run(grid, {&csv});

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));

    // Header matches the published field list.
    std::string header;
    for (const auto &f : sweepRecordFields())
        header += (header.empty() ? "" : ",") + f;
    EXPECT_EQ(line, header);

    // One row per cell, index and sla_rate faithful to the results.
    std::size_t row = 0;
    while (std::getline(in, line)) {
        std::stringstream ss(line);
        std::string field;
        std::vector<std::string> fields;
        while (std::getline(ss, field, ','))
            fields.push_back(field);
        ASSERT_EQ(fields.size(), sweepRecordFields().size());
        EXPECT_EQ(fields[0], strprintf("%zu", row));
        EXPECT_EQ(fields[2], results[row].policy);
        EXPECT_NEAR(std::stod(fields[10]),
                    results[row].metrics.slaRate, 1e-6);
        ++row;
    }
    EXPECT_EQ(row, grid.size());
    std::remove(path.c_str());
}

TEST(Sinks, JsonRoundTrip)
{
    auto grid = smallGrid(8);
    grid.back().label = "ctl\x01-label"; // Must not reach the file raw.
    JsonSink json(""); // No file: inspect text() directly.
    SweepOptions opts;
    opts.jobs = 2;
    const auto results = SweepRunner(opts).run(grid, {&json});
    const std::string text = json.text();

    // Structural sanity: one object per cell, every field present in
    // every record.
    std::size_t objects = 0;
    for (std::size_t pos = text.find('{'); pos != std::string::npos;
         pos = text.find('{', pos + 1))
        ++objects;
    EXPECT_EQ(objects, grid.size());
    for (const auto &f : sweepRecordFields()) {
        std::size_t count = 0;
        const std::string needle = "\"" + f + "\": ";
        for (std::size_t pos = text.find(needle);
             pos != std::string::npos;
             pos = text.find(needle, pos + 1))
            ++count;
        EXPECT_EQ(count, grid.size()) << "field " << f;
    }

    // Spot-check values: numeric fields unquoted, strings quoted.
    EXPECT_NE(text.find("\"index\": 0,"), std::string::npos);
    EXPECT_NE(text.find(strprintf("\"sla_rate\": %.6f",
                                  results[0].metrics.slaRate)),
              std::string::npos);
    EXPECT_NE(text.find("\"policy\": \"moca\""), std::string::npos);

    // Control characters are escaped, so the document stays valid.
    EXPECT_NE(text.find("\"label\": \"ctl\\u0001-label\""),
              std::string::npos);
    EXPECT_EQ(text.find('\x01'), std::string::npos);
}

TEST(Sinks, UnwritablePathDiesBeforeAnyCellRuns)
{
    // The bench sinks are built before the grid runs, so a bad
    // --csv/--json path must fail at construction, naming the path,
    // before any cell is simulated.
    EXPECT_DEATH(CsvSink("no_such_sweep_dir/out.csv"),
                 "cannot write no_such_sweep_dir/out.csv");
    EXPECT_DEATH(JsonSink("no_such_sweep_dir/out.json"),
                 "cannot write no_such_sweep_dir/out.json");
}

} // namespace
} // namespace moca::exp
