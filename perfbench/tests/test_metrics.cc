// Unit tests for the benchmark's metric arithmetic (src/metrics.*).
// Built beside the benchmark; run with
//   ctest --test-dir .bench_build/perfbench

#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.hh"

namespace
{

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "test_metrics.cc:%d: FAILED: %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

using namespace perfbench;

void
testPercentiles()
{
    CHECK(median({}) == 0.0);
    CHECK(median({3.0}) == 3.0);
    CHECK(median({5.0, 1.0, 3.0}) == 3.0);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    CHECK(near(percentile({1, 2, 3, 4, 5}, 90.0), 4.6));
    CHECK(percentile({7.0, 1.0}, 100.0) == 7.0);
}

void
testTailPercentile()
{
    // The highest percentile with at least ten samples beyond it.
    CHECK(tailPercentile(10000) == 99.9);
    CHECK(tailPercentile(9999) == 99.0);
    CHECK(tailPercentile(1000) == 99.0);
    CHECK(tailPercentile(999) == 95.0);
    CHECK(tailPercentile(200) == 95.0);
    CHECK(tailPercentile(133) == 90.0);
    CHECK(tailPercentile(100) == 90.0);
    CHECK(tailPercentile(99) == 75.0);
    CHECK(tailPercentile(40) == 75.0);
    CHECK(tailPercentile(20) == 50.0);
    // Fewer than 20 samples: no percentile qualifies; report the max.
    CHECK(tailPercentile(19) == 100.0);
    CHECK(tailPercentile(3) == 100.0);
    CHECK(tailPercentile(0) == 100.0);
}

void
testToReferenceSeconds()
{
    // On a quiet host (kernel at its nominal time) nothing changes.
    CHECK(near(toReferenceSeconds(0.3, 0.01, 0.01, 1.5), 0.3));
    // Elasticity 1: host and kernel slow down alike; the quotient
    // stays put.
    CHECK(near(toReferenceSeconds(0.6, 0.02, 0.01, 1.0), 0.3));
    // Elasticity 1.5: a kernel 1.21x slower means the workload ran
    // 1.21^1.5 = 1.331x slower.
    CHECK(near(toReferenceSeconds(0.3 * 1.331, 0.0121, 0.01, 1.5), 0.3));
    // A program 10% slower reads 10% slower at any host speed.
    CHECK(near(toReferenceSeconds(0.33 * 1.331, 0.0121, 0.01, 1.5), 0.33));
    CHECK(toReferenceSeconds(0.3, 0.0, 0.01, 1.5) == 0.0);
}

void
testPoolEfficiency()
{
    CHECK(near(poolEfficiency(30.0, 3, 10.0), 1.0));
    CHECK(near(poolEfficiency(15.0, 3, 10.0), 0.5));
    CHECK(poolEfficiency(1.0, 0, 10.0) == 0.0);
    CHECK(poolEfficiency(1.0, 3, 0.0) == 0.0);
}

void
testTally()
{
    Tally t;
    CHECK(t.attempted() == 0 && t.failed() == 0 && t.failedFrac() == 0.0);
    t.record(true, "a");
    t.record(true, "b");
    t.record(false, "c capped");
    t.record(true, "d");
    CHECK(t.attempted() == 4);
    CHECK(t.failed() == 1);
    CHECK(near(t.failedFrac(), 0.25));
    CHECK(t.failures().size() == 1 && t.failures()[0] == "c capped");
}

} // namespace

int
main()
{
    testPercentiles();
    testTailPercentile();
    testToReferenceSeconds();
    testPoolEfficiency();
    testTally();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::puts("test_metrics: all checks passed");
    return 0;
}
