/**
 * @file
 * The benchmark's own arithmetic and its metric emitter.
 *
 * Every metric the benchmark can print is declared once in catalog()
 * with its unit, its clock and its scope. End-to-end metrics come from
 * the untraced pass of a run (`--trace 0`); per-layer metrics come
 * from the traced pass (`--trace 1`), in which the benchmark times
 * each call it makes into a layer's public functions.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Which clock a metric is read from. */
enum class Clock
{
    Host,      //!< wall time on the machine running the tool (bounded)
    Simulated, //!< logical ticks, simulator cycles, exact counts
};

/** Which pass of a run reports a metric. */
enum class Scope
{
    EndToEnd,
    PerLayer,
};

struct MetricSpec
{
    std::string name;
    std::string unit;
    Clock clock;
    Scope scope;
};

const char *clockName(Clock clock);

/**
 * One access layer and the apps that represent it: the YCSB workloads
 * run `ycsbApp`, the crash sweep runs `fuzzApp` (the native YCSB app
 * has no crash-recovery surface, so the sweep uses echo).
 */
struct LayerApps
{
    const char *layer;
    const char *ycsbApp;
    const char *fuzzApp;
};

/** The six access layers, in the order every table lists them. */
const std::vector<LayerApps> &layers();

/** Every metric, in output order. */
const std::vector<MetricSpec> &catalog();

/** The catalog entry named @p name, or nullptr. */
const MetricSpec *findMetric(const std::string &name);

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank quantile of @p v: the sample of rank ceil(q * n), with
 * q in (0, 1]. 0 for an empty vector.
 */
double quantile(std::vector<double> v, double q);

/**
 * The highest percentile of {99.9, 99, 95, 90, 75, 50} that still has
 * at least ten samples beyond it among @p n samples, as a fraction
 * (0.99 for p99). 0 when even the median has fewer than ten samples
 * beyond it.
 */
double tailFraction(std::size_t n);

/**
 * A tail latency under the percentile rule: the @p wanted quantile
 * when it has ten samples beyond it, else the highest one that does.
 */
struct Tail
{
    double fraction = 0; //!< percentile actually reported (0.99 = p99)
    double value = 0;
    std::size_t samples = 0;
};

Tail tail(const std::vector<double> &v, double wanted);

/** Geometric mean of @p v; 0 if empty or any value is not positive. */
double geomean(const std::vector<double> &v);

/** failed / attempted; 0 when nothing was attempted. */
double failRatio(std::uint64_t failed, std::uint64_t attempted);

/**
 * Collects one run's metric values, its correctness verdicts and its
 * notes (sample counts, percentiles used), and renders them.
 */
class Report
{
  public:
    /** Set a catalog metric; an unknown name is a benchmark bug. */
    void set(const std::string &name, double value);

    /** Attach a note printed next to @p name in the table. */
    void note(const std::string &name, const std::string &text);

    bool has(const std::string &name) const;
    double value(const std::string &name) const;

    /**
     * Count @p attempted units of work (ops, cases, checks), @p failed
     * of which failed; a failure with a @p what is listed on stderr.
     */
    void count(std::uint64_t attempted, std::uint64_t failed,
               const std::string &what = "");

    /** One pass/fail correctness check. */
    void check(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0; }

    /**
     * Human-readable table of every catalog metric in @p scope: name,
     * value, unit, clock and note. A metric the workload did not
     * exercise reads 0 and is marked so.
     */
    std::string table(Scope scope) const;

    /** The one-line JSON result for @p scope. */
    std::string json(Scope scope) const;

  private:
    std::map<std::string, double> values_;
    std::map<std::string, std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
