/**
 * @file
 * Golden-result regression suite: checked-in TSV snapshots of the
 * Fig. 3 / 7 / 8 / 9 / 10 / 11 / 12 and Table II experiment tables
 * (under --shrink) are diffed exactly against fresh runs. Simulations
 * are deterministic, so any byte of drift is a behaviour change in
 * the runner -- intentional changes are reblessed with
 * scripts/regen_golden.sh (which reruns this binary with
 * BWSIM_REGEN_GOLDEN=1).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiments.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "workloads/trace_source.hh"
#include "workloads/workload_spec.hh"

#ifndef BWSIM_GOLDEN_DIR
#error "CMake must define BWSIM_GOLDEN_DIR (tests/golden in the source tree)"
#endif

using namespace bwsim;

namespace
{

/**
 * The pinned scenario: two benchmarks at --shrink=16, the scale CI
 * can afford. Golden files are only meaningful for exactly these
 * options; regen_golden.sh rebuilds them for the same ones.
 */
exp::ExperimentOptions
goldenOptions()
{
    exp::ExperimentOptions opts;
    opts.benchmarks = {"bfs", "lbm"};
    opts.shrink = 16;
    opts.threads = 2;
    return opts;
}

std::string
render(const exp::SeriesTable &t)
{
    std::ostringstream os;
    t.table.printTsv(os);
    return os.str();
}

std::string
goldenPath(const std::string &name)
{
    // Bare names are TSV tables; a name carrying its own extension
    // (the --dump-stats text snapshot) is used as-is.
    const std::string ext =
        name.find('.') == std::string::npos ? ".tsv" : "";
    return std::string(BWSIM_GOLDEN_DIR) + "/" + name + ext;
}

/** Compare @p fresh against the checked-in snapshot -- or, under
 *  BWSIM_REGEN_GOLDEN=1, rebless the snapshot instead. */
void
compareOrRegen(const std::string &name, const std::string &fresh)
{
    const std::string path = goldenPath(name);
    if (std::getenv("BWSIM_REGEN_GOLDEN")) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(bool(out)) << "cannot write " << path;
        out << fresh;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(bool(in))
        << "missing golden file " << path
        << " -- run scripts/regen_golden.sh to (re)bless snapshots";
    std::string golden((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    EXPECT_EQ(fresh, golden)
        << "table drifted from " << path
        << " -- if the change is intentional, rebless with "
           "scripts/regen_golden.sh\n--- fresh ---\n"
        << fresh;
}

} // namespace

TEST(Golden, Tab2SpeedupBounds)
{
    compareOrRegen("tab2", render(exp::tab2SpeedupBounds(goldenOptions())));
}

TEST(Golden, Fig3LatencySweep)
{
    compareOrRegen("fig3",
                   render(exp::fig3LatencySweep(
                       goldenOptions(), exp::fig3DefaultLatencies())));
}

TEST(Golden, Fig7IssueStallDistribution)
{
    compareOrRegen("fig7",
                   render(exp::fig7IssueStallDistribution(
                       exp::baselineResults(goldenOptions()))));
}

TEST(Golden, Fig8L2StallDistribution)
{
    compareOrRegen("fig8", render(exp::fig8L2StallDistribution(
                               exp::baselineResults(goldenOptions()))));
}

TEST(Golden, Fig9L1StallDistribution)
{
    compareOrRegen("fig9", render(exp::fig9L1StallDistribution(
                               exp::baselineResults(goldenOptions()))));
}

TEST(Golden, Fig10DseScaling)
{
    compareOrRegen("fig10", render(exp::fig10DseScaling(goldenOptions())));
}

TEST(Golden, Fig11FrequencySweep)
{
    compareOrRegen("fig11",
                   render(exp::fig11FrequencySweep(
                       goldenOptions(), exp::fig11DefaultFrequencies())));
}

TEST(Golden, Fig12CostEffective)
{
    compareOrRegen("fig12",
                   render(exp::fig12CostEffective(goldenOptions())));
}

TEST(Golden, Sec6BandwidthUtilization)
{
    compareOrRegen("sec6bw",
                   render(exp::sec6BandwidthUtilization(goldenOptions())));
}

TEST(Golden, Sec6MitigationSpeedups)
{
    compareOrRegen("sec6speedup",
                   render(exp::sec6MitigationSpeedups(goldenOptions())));
}

TEST(Golden, DumpStatsBaseline)
{
    // The full stats tree for one tiny benchmark on the baseline
    // config: pins every stat's name, grouping and value rendering
    // across refactors (the ROADMAP's --dump-stats snapshot item),
    // including the gpu.bw bandwidth formulas this PR adds.
    exp::ExperimentOptions opts = goldenOptions();
    opts.benchmarks = {"bfs"};
    auto profiles = exp::selectBenchmarks(opts);
    ASSERT_EQ(profiles.size(), 1u);
    Gpu gpu(GpuConfig::baseline(), profiles[0]);
    gpu.run();
    std::ostringstream os;
    os << "# stats: benchmark=" << profiles[0].name() << " config=baseline\n";
    gpu.dumpStats(os);
    compareOrRegen("dump_stats.txt", os.str());
}

namespace
{

/**
 * Replay golden trace @p file on the baseline under both scheduler
 * modes; the two dumps must be byte-identical before the lockstep one
 * is compared to snapshot @p snapshot -- trace replay gets no laxer
 * determinism than synthetic runs.
 */
void
compareTraceReplay(const std::string &file, const std::string &snapshot)
{
    std::string err;
    auto trace =
        loadTraceFile(std::string(BWSIM_GOLDEN_DIR) + "/" + file, err);
    ASSERT_NE(trace, nullptr) << err;
    const WorkloadSpec spec = makeTraceWorkload(trace);

    auto dump = [&](SchedulerMode mode) {
        const SchedulerMode saved = schedulerMode();
        setSchedulerMode(mode);
        Gpu gpu(GpuConfig::baseline(), spec);
        gpu.run();
        std::ostringstream os;
        os << "# stats: benchmark=" << spec.name()
           << " config=baseline\n";
        gpu.dumpStats(os);
        setSchedulerMode(saved);
        return os.str();
    };
    const std::string lockstep = dump(SchedulerMode::Lockstep);
    const std::string skip = dump(SchedulerMode::Skip);
    EXPECT_EQ(lockstep, skip);
    compareOrRegen(snapshot, lockstep);
}

} // namespace

TEST(Golden, DumpStatsTraceReplayBothSchedulers)
{
    // The checked-in replay.trace pins the file-backed workload path
    // end to end: text parsing, launch-shape defaulting and the
    // untagged round-robin replay over all launched warps.
    compareTraceReplay("replay.trace", "dump_stats_trace.txt");
}

TEST(Golden, DumpStatsTaggedTraceReplayBothSchedulers)
{
    // The CTA-tagged twin: launch shape from the largest tag, CTAs
    // with no records, and round-robin among each CTA's own warps.
    compareTraceReplay("replay_tagged.trace", "dump_stats_trace_tagged.txt");
}
