/**
 * @file
 * The benchmark's own metric arithmetic, kept free of simulator
 * headers so tests/test_metrics.cc can check it in isolation: order
 * statistics and the tail-percentile rule, reference-second scaling,
 * thread-pool efficiency and failure accounting.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Median (mean of the two middle values for an even count); 0 when
 *  @p xs is empty. */
double median(std::vector<double> xs);

/** Linear-interpolation percentile @p pct (0..100) of @p xs; 0 when
 *  empty. */
double percentile(std::vector<double> xs, double pct);

/**
 * The highest percentile of {99.9, 99, 95, 90, 75, 50} that has at
 * least ten of @p n samples beyond it. Returns 100 (the maximum) when
 * even the median lacks ten samples beyond it (n < 20).
 */
double tailPercentile(std::size_t n);

/**
 * @p host_s host seconds in reference seconds, for a workload whose
 * host time goes as the reference kernel's to the power @p elasticity
 * when the host is contended: host_s x (@p nominal_s / @p kernel_s)
 * ^ @p elasticity, where @p kernel_s is the kernel's time measured
 * alongside. 0 on a degenerate kernel time.
 */
double toReferenceSeconds(double host_s, double kernel_s, double nominal_s,
                          double elasticity);

/** Busy thread-seconds over the thread-seconds the pool had:
 *  @p busy_s / (@p threads x @p wall_s); 0 on a degenerate wall. */
double poolEfficiency(double busy_s, int threads, double wall_s);

/**
 * Failure accounting. Every simulation and every workload-level output
 * check is one attempt; it fails if the simulation hit the cycle cap
 * or any check on it did not hold.
 */
class Tally
{
  public:
    /** Record one attempt; @p what names it in the failure log. */
    void record(bool ok, const std::string &what);

    std::uint64_t attempted() const { return nAttempted; }
    std::uint64_t failed() const { return nFailed; }
    double failedFrac() const;
    const std::vector<std::string> &failures() const { return log; }

  private:
    std::uint64_t nAttempted = 0;
    std::uint64_t nFailed = 0;
    std::vector<std::string> log;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
