#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "metrics.hh"

namespace perfbench
{
namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; i--) // unsorted on purpose
        v.push_back(i);
    return v;
}

TEST(PerfbenchStats, MedianAndNearestRankQuantile)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(quantile(oneTo(100), 0.5), 50.0);
    EXPECT_EQ(quantile(oneTo(100), 0.99), 99.0);
    EXPECT_EQ(quantile(oneTo(100), 1.0), 100.0);
    EXPECT_EQ(quantile(oneTo(7), 0.5), 4.0);
}

TEST(PerfbenchStats, TailNeedsTenSamplesBeyondIt)
{
    // p99 of n samples leaves n - ceil(0.99 n) above it.
    EXPECT_EQ(tailFraction(1000), 0.99);
    EXPECT_EQ(tailFraction(999), 0.95);
    EXPECT_EQ(tailFraction(10000), 0.999);
    EXPECT_EQ(tailFraction(100), 0.9);
    EXPECT_EQ(tailFraction(99), 0.75);
    EXPECT_EQ(tailFraction(20), 0.5);
    EXPECT_EQ(tailFraction(19), 0.0);

    const Tail t = tail(oneTo(100), 0.99);
    EXPECT_EQ(t.fraction, 0.9);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.samples, 100u);

    // A lower wanted percentile is kept when it qualifies.
    EXPECT_EQ(tail(oneTo(2000), 0.9).fraction, 0.9);
    EXPECT_EQ(tail(oneTo(10), 0.99).value, 0.0);
}

TEST(PerfbenchStats, GeomeanWeighsLayersEqually)
{
    EXPECT_DOUBLE_EQ(geomean({4, 9}), 6.0);
    EXPECT_NEAR(geomean({1e6, 1e3, 1}), 1e3, 1e-6);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(geomean({5, 0}), 0.0);
    EXPECT_EQ(geomean({5, -1}), 0.0);
}

TEST(PerfbenchStats, FailRatio)
{
    EXPECT_EQ(failRatio(0, 0), 0.0);
    EXPECT_EQ(failRatio(0, 10), 0.0);
    EXPECT_DOUBLE_EQ(failRatio(1, 4), 0.25);

    Report r;
    r.count(10, 0);
    r.check(true, "passes");
    EXPECT_TRUE(r.correct());
    r.count(5, 2, "");
    r.check(false, "");
    EXPECT_EQ(r.attempted(), 17u);
    EXPECT_EQ(r.failed(), 3u);
    EXPECT_FALSE(r.correct());
}

TEST(PerfbenchEmitter, CatalogNamesAreUniqueAndWellFormed)
{
    std::set<std::string> names;
    for (const MetricSpec &m : catalog()) {
        EXPECT_TRUE(names.insert(m.name).second) << m.name;
        EXPECT_LE(m.name.size(), 64u);
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(m.name[0])));
        for (char ch : m.name)
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) ||
                        ch == '_' || ch == '.' || ch == '-')
                << m.name;
        EXPECT_FALSE(m.unit.empty()) << m.name;
        EXPECT_LE(m.unit.size(), 16u);
    }
    EXPECT_LE(names.size(), 128u + 16u);
}

TEST(PerfbenchEmitter, NamesEveryMetricWithUnitAndClock)
{
    Report r;
    r.set("setup_s", 1.5);
    r.set("sim.hops-nvm.cycles", 42);
    EXPECT_THROW(r.set("no.such.metric", 1), std::logic_error);

    for (Scope scope : {Scope::EndToEnd, Scope::PerLayer}) {
        const std::string table = r.table(scope);
        const std::string json = r.json(scope);
        for (const MetricSpec &m : catalog()) {
            const bool in = m.scope == scope;
            EXPECT_EQ(json.find("\"" + m.name + "\": {\"value\": ") !=
                          std::string::npos,
                      in)
                << m.name;
            if (!in)
                continue;
            // Table row: name, value, unit, clock.
            const std::size_t row = table.find(m.name + " ");
            ASSERT_NE(row, std::string::npos) << m.name;
            const std::string line =
                table.substr(row, table.find('\n', row) - row);
            EXPECT_NE(line.find(" " + m.unit + " "), std::string::npos)
                << line;
            EXPECT_NE(line.find(clockName(m.clock)), std::string::npos)
                << line;
            // A metric the run did not set reads 0.
            EXPECT_EQ(json.find("\"" + m.name + "\": {\"value\": 0, " +
                                "\"unit\": \"" + m.unit + "\"}") !=
                          std::string::npos,
                      !r.has(m.name))
                << m.name;
        }
    }
    const std::string e2e = r.json(Scope::EndToEnd);
    EXPECT_EQ(e2e.rfind("{\"correct\": true, \"attempted\": 0, "
                        "\"failed\": 0, \"metrics\": {",
                        0),
              0u);
    EXPECT_NE(e2e.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
              std::string::npos);
    EXPECT_EQ(clockName(findMetric("sim.hops-nvm.cycles")->clock),
              std::string("simulated"));
    EXPECT_EQ(clockName(findMetric("setup_s")->clock),
              std::string("host"));
}

} // namespace
} // namespace perfbench
