/**
 * @file
 * Unit tests for the common substrate: RNG determinism and
 * distributions, statistics accumulators, tables, argument parsing,
 * and the shared JSON renderer / file writer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/argparse.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace moca {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBoundsInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniformInt(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        saw_lo |= v == 2;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(11);
    double sum = 0.0;
    constexpr int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(100.0);
    EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(Rng, CategoricalRespectsWeights)
{
    Rng rng(5);
    const std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i)
        counts[rng.categorical(w)]++;
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
    EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(9);
    const auto perm = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (auto p : perm) {
        ASSERT_LT(p, 50u);
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
    }
}

TEST(StatAccum, BasicMoments)
{
    StatAccum s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatAccum, EmptyIsZero)
{
    StatAccum s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
}

TEST(SampleSet, PercentileAfterLateAdd)
{
    SampleSet s;
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 3.0);
}

TEST(Stats, PercentileSummary)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i) // Unsorted on purpose.
        values.push_back(static_cast<double>(i));
    const PercentileSummary s = percentileSummary(values);
    EXPECT_NEAR(s.p50, 50.5, 1e-9);
    EXPECT_NEAR(s.p95, 95.05, 1e-9);
    EXPECT_NEAR(s.p99, 99.01, 1e-9);

    const PercentileSummary empty = percentileSummary({});
    EXPECT_EQ(empty.p50, 0.0);
    EXPECT_EQ(empty.p95, 0.0);
    EXPECT_EQ(empty.p99, 0.0);

    const PercentileSummary one = percentileSummary({7.0});
    EXPECT_EQ(one.p50, 7.0);
    EXPECT_EQ(one.p99, 7.0);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Table, RenderAndCsv)
{
    Table t({"a", "b"});
    t.row().cell("x").cell(1.5, 1);
    t.row().cell("longer").cell(static_cast<long long>(7));
    const std::string out = t.render();
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    const std::string csv = t.csv();
    EXPECT_NE(csv.find("a,b"), std::string::npos);
    EXPECT_NE(csv.find("x,1.5"), std::string::npos);
}

TEST(Table, CsvQuoting)
{
    Table t({"h"});
    t.row().cell("va,lue");
    EXPECT_NE(t.csv().find("\"va,lue\""), std::string::npos);
}

TEST(ArgMap, ParsesTypes)
{
    const char *argv[] = {"prog", "tasks=300", "load=0.9", "flag",
                          "name=abc"};
    ArgMap args(5, const_cast<char **>(argv));
    EXPECT_EQ(args.getInt("tasks", 0), 300);
    EXPECT_DOUBLE_EQ(args.getDouble("load", 0.0), 0.9);
    EXPECT_TRUE(args.getBool("flag", false));
    EXPECT_EQ(args.getString("name", ""), "abc");
    EXPECT_EQ(args.getInt("missing", 17), 17);
}

TEST(ArgParse, CommaLists)
{
    EXPECT_EQ(parseIntList("socs", "1,4,64"),
              (std::vector<int>{1, 4, 64}));
    EXPECT_EQ(parseDoubleList("fail-rates", "0,2.5"),
              (std::vector<double>{0.0, 2.5}));
    EXPECT_DEATH(parseIntList("socs", ""),
                 "socs needs at least one value");
    EXPECT_DEATH(parseDoubleList("fail-rates", ""),
                 "fail-rates needs at least one value");
    EXPECT_DEATH(parseIntList("socs", "1,x"), "socs=x is not an integer");
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(jsonEscape("q\"b\\n\nt\tc\x01-"),
              "q\\\"b\\\\n\\nt\\tc\\u0001-");
}

TEST(Json, BenchDocumentIsOneRecordPerLine)
{
    BenchJson doc;
    doc.bench = "demo";
    doc.header.num("load_factor", "%.3f", 0.8).str("kernel", "event");
    doc.cells.push_back(
        JsonFields().count("steps", 7).str("policy", "moca").object());
    doc.cells.push_back(JsonFields().num("sla", "%.2f", 0.5).object());
    doc.sections.emplace_back(
        "margins",
        std::vector<std::string>{JsonFields().add("ok", "true").object()});
    doc.total.num("wall_s", "%.6f", 0.0);
    EXPECT_EQ(doc.render(),
              "{\n"
              "  \"bench\": \"demo\",\n"
              "  \"load_factor\": 0.800,\n"
              "  \"kernel\": \"event\",\n"
              "  \"cells\": [\n"
              "    {\"steps\": 7, \"policy\": \"moca\"},\n"
              "    {\"sla\": 0.50}\n"
              "  ],\n"
              "  \"margins\": [\n"
              "    {\"ok\": true}\n"
              "  ],\n"
              "  \"total\": {\"wall_s\": 0.000000}\n"
              "}\n");
}

TEST(Json, WriteTextFileDiesNamingThePath)
{
    // The open fails for a missing directory; on /dev/full the open
    // succeeds and the flush at close fails (ENOSPC).
    EXPECT_DEATH(writeTextFile("no_such_json_dir/out.json", "{}\n"),
                 "cannot write no_such_json_dir/out.json");
    EXPECT_DEATH(writeTextFile("/dev/full", "{}\n"),
                 "cannot write /dev/full");
}

TEST(Units, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv<std::uint64_t>(1, 256), 1u);
}

} // namespace
} // namespace moca
