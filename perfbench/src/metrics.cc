#include "metrics.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

double
percentile(std::vector<double> xs, double pct)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = pct / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        // Samples strictly beyond the p-th percentile; the epsilon
        // keeps e.g. 100 x 10% from rounding to 9.999.
        if (static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9 >= 10.0)
            return p;
    }
    return 100.0;
}

double
toReferenceSeconds(double host_s, double kernel_s, double nominal_s,
                   double elasticity)
{
    if (kernel_s <= 0.0)
        return 0.0;
    return host_s * std::pow(nominal_s / kernel_s, elasticity);
}

double
poolEfficiency(double busy_s, int threads, double wall_s)
{
    if (threads <= 0 || wall_s <= 0.0)
        return 0.0;
    return busy_s / (static_cast<double>(threads) * wall_s);
}

void
Tally::record(bool ok, const std::string &what)
{
    ++nAttempted;
    if (!ok) {
        ++nFailed;
        log.push_back(what);
    }
}

double
Tally::failedFrac() const
{
    return nAttempted ? static_cast<double>(nFailed) /
                            static_cast<double>(nAttempted)
                      : 0.0;
}

} // namespace perfbench
