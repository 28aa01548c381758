#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

const char *
clockName(Clock clock)
{
    return clock == Clock::Host ? "host" : "simulated";
}

const std::vector<LayerApps> &
layers()
{
    static const std::vector<LayerApps> all = {
        {"native", "ycsb", "echo"},
        {"nvml", "hashmap", "hashmap"},
        {"mnemosyne", "memcached", "memcached"},
        {"pmfs", "nfs", "nfs"},
        {"mod", "mod-hashmap", "mod-hashmap"},
        {"halo", "halo-hashmap", "halo-hashmap"},
    };
    return all;
}

const std::vector<MetricSpec> &
catalog()
{
    static const std::vector<MetricSpec> all = [] {
        std::vector<MetricSpec> c;
        auto e2e = [&c](const char *name, const char *unit) {
            c.push_back({name, unit, Clock::Host, Scope::EndToEnd});
        };
        auto host = [&c](const std::string &name, const char *unit) {
            c.push_back({name, unit, Clock::Host, Scope::PerLayer});
        };
        auto sim = [&c](const std::string &name, const char *unit) {
            c.push_back({name, unit, Clock::Simulated, Scope::PerLayer});
        };

        e2e("setup_s", "s");
        e2e("items_per_s", "1/s");
        e2e("peak_rss_mb", "MB");

        host("fail_ratio", "ratio");
        host("bench.trace_overhead_s", "s");
        host("bench.coverage", "ratio");
        sim("bench.nondeterministic_layers", "count");
        host("op_p50_us", "us");
        host("op_p99_us", "us");

        host("pm.pool_create_ms", "ms");
        host("pm.store_ns", "ns");
        host("pm.load_ns", "ns");
        host("pm.flush_ns", "ns");
        host("pm.fence_ns", "ns");

        sim("trace.events_per_op", "count");
        sim("trace.mb", "MB");
        host("trace.write_mb_s", "MB/s");
        host("trace.read_mev_s", "Mev/s");

        for (const LayerApps &l : layers()) {
            const std::string p = l.layer;
            host(p + ".setup_s", "s");
            host(p + ".ops_per_s", "1/s");
            host(p + ".get_us_p50", "us");
            host(p + ".get_us_p99", "us");
            host(p + ".put_us_p50", "us");
            host(p + ".put_us_p99", "us");
            host(p + ".check_ms", "ms");
            sim(p + ".pm_stores_per_op", "count");
            sim(p + ".pm_loads_per_op", "count");
            sim(p + ".flushes_per_op", "count");
            sim(p + ".fences_per_op", "count");
            sim(p + ".write_amp", "ratio");
            sim(p + ".sim_kops", "kops/s");
        }

        host("fuzz.profile_ms", "ms");
        host("fuzz.case_ms_p50", "ms");
        host("fuzz.case_ms_p90", "ms");
        for (const LayerApps &l : layers())
            host(std::string("fuzz.") + l.layer + ".case_ms", "ms");
        host("fuzz.parallel_eff", "x");
        sim("fuzz.fired_frac", "ratio");
        sim("fuzz.degraded_frac", "ratio");

        host("analysis.epoch_ms", "ms");
        host("analysis.summary_ms", "ms");
        host("analysis.dependency_ms", "ms");
        host("analysis.mix_ms", "ms");
        host("analysis.mev_s", "Mev/s");
        host("analysis.jobs2_speedup", "x");

        for (const char *m : {"x86-nvm", "hops-nvm", "x86-nvm-optane"}) {
            host(std::string("sim.") + m + ".mev_s", "Mev/s");
            sim(std::string("sim.") + m + ".cycles", "cycles");
        }
        return c;
    }();
    return all;
}

const MetricSpec *
findMetric(const std::string &name)
{
    for (const MetricSpec &m : catalog())
        if (m.name == name)
            return &m;
    return nullptr;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace
{

/** Nearest rank ceil(q * n), robust to q not being exact in binary. */
std::size_t
nearestRank(double q, std::size_t n)
{
    const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
    return r < 1.0 ? 1 : std::min(n, static_cast<std::size_t>(r));
}

} // namespace

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(q, v.size()) - 1];
}

double
tailFraction(std::size_t n)
{
    for (double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5})
        if (n > 0 && n - nearestRank(q, n) >= 10) // samples beyond it
            return q;
    return 0.0;
}

Tail
tail(const std::vector<double> &v, double wanted)
{
    Tail t;
    t.samples = v.size();
    t.fraction = std::min(wanted, tailFraction(v.size()));
    if (t.fraction > 0.0)
        t.value = quantile(v, t.fraction);
    return t;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v) {
        if (!(x > 0.0))
            return 0.0;
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
failRatio(std::uint64_t failed, std::uint64_t attempted)
{
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
}

void
Report::set(const std::string &name, double value)
{
    if (!findMetric(name))
        throw std::logic_error("metric not in catalog: " + name);
    values_[name] = value;
}

void
Report::note(const std::string &name, const std::string &text)
{
    notes_[name] = text;
}

bool
Report::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

double
Report::value(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void
Report::count(std::uint64_t attempted, std::uint64_t failed,
              const std::string &what)
{
    attempted_ += attempted;
    failed_ += failed;
    if (failed && !what.empty())
        std::fprintf(stderr, "FAILED: %s (%llu of %llu)\n", what.c_str(),
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted));
}

void
Report::check(bool ok, const std::string &what)
{
    count(1, ok ? 0 : 1, what);
}

std::string
Report::table(Scope scope) const
{
    std::string out;
    char line[512];
    std::snprintf(line, sizeof(line), "%-30s %16s %-8s %-9s %s\n",
                  "metric", "value", "unit", "clock", "note");
    out += line;
    for (const MetricSpec &m : catalog()) {
        if (m.scope != scope)
            continue;
        auto note = notes_.find(m.name);
        std::string text = note == notes_.end() ? "" : note->second;
        if (!has(m.name))
            text = "not exercised by this workload";
        std::snprintf(line, sizeof(line), "%-30s %16.6g %-8s %-9s %s\n",
                      m.name.c_str(), value(m.name), m.unit.c_str(),
                      clockName(m.clock), text.c_str());
        out += line;
    }
    return out;
}

std::string
Report::json(Scope scope) const
{
    char buf[128];
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    std::snprintf(buf, sizeof(buf),
                  ", \"attempted\": %llu, \"failed\": %llu, "
                  "\"metrics\": {",
                  static_cast<unsigned long long>(attempted_),
                  static_cast<unsigned long long>(failed_));
    out += buf;
    bool first = true;
    for (const MetricSpec &m : catalog()) {
        if (m.scope != scope)
            continue;
        const double v = value(m.name);
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                      first ? "" : ", ", m.name.c_str(),
                      std::isfinite(v) ? v : 0.0);
        out += buf;
        out += "\"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

} // namespace perfbench
