/**
 * @file
 * perfbench: the repository benchmark's main program. One invocation runs
 * one workload and prints, as its last stdout line, a JSON object with
 * the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). See perfbench/README.md for what each metric means and
 * which end-to-end metric it should move.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Generated inputs go to .bench_build/perfbench/scratch under the
 * working directory.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "metrics.hh"
#include "reference.hh"
#include "sim/sim_speed.hh"
#include "traced_chip.hh"
#include "workloads.hh"

using namespace bwsim;
using namespace perfbench;

namespace
{

/**
 * Set-up sampling. Host speed on a shared machine drifts over seconds,
 * so an untraced run takes its set-up samples in a short slot before
 * every pass, spreading them over the whole run like the passes
 * themselves; setup_s is the median slot mean. A slot lasts
 * kSetupSlotS (at least one and at most kMaxSlotReps set-ups).
 */
constexpr double kSetupSlotS = 0.2;
constexpr int kMaxSlotReps = 50;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    int seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload NAME "
                         "--seed N --seconds S --trace 0|1\n"
                         "workloads:",
                 why.c_str());
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
        s.size() > 18)
        return false;
    out = std::stoull(s);
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string val = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed" && parseU64(val, n)) {
            a.seed = n;
        } else if (flag == "--seconds" && parseU64(val, n) && n >= 1 &&
                   n <= 600) {
            a.seconds = static_cast<int>(n);
        } else if (flag == "--trace" && (val == "0" || val == "1")) {
            a.trace = val == "1";
        } else {
            usage("bad argument " + flag + " " + val);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Metrics in print order: name -> (value, unit). */
using Metrics = std::vector<std::pair<std::string,
                                      std::pair<double, std::string>>>;

void
put(Metrics &m, const std::string &name, double value,
    const std::string &unit)
{
    m.push_back({name, {value, unit}});
}

/**
 * Peak resident memory of this program in MiB. VmHWM counts only this
 * process image; getrusage's ru_maxrss also keeps the peak of the
 * image before exec, which under run.py is the forked Python parent.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        unsigned long long kib = 0;
        if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kib) == 1)
            return static_cast<double>(kib) / 1024.0;
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
totalCycles(const std::vector<SimResult> &rs)
{
    std::uint64_t n = 0;
    for (const auto &r : rs)
        n += r.coreCycles;
    return n;
}

struct SetupSamples
{
    std::vector<double> total, construct, load;

    /** One slot of set-ups; returns their mean total seconds. */
    double
    take(const Workload &wl)
    {
        const auto t0 = Clock::now();
        double sum = 0;
        int n = 0;
        for (; n < kMaxSlotReps && (n == 0 || since(t0) < kSetupSlotS); ++n) {
            const SetupTimes st = wl.setup();
            total.push_back(st.totalS);
            construct.push_back(st.constructS);
            load.push_back(st.traceLoadS);
            sum += st.totalS;
        }
        return sum / n;
    }

    SetupTimes
    medians() const
    {
        return {median(total), median(construct), median(load)};
    }
};

// ------------------------------------------------------ untraced run

Metrics
untracedRun(const Workload &wl, const Args &args, Tally &tally,
            std::uint64_t &digest)
{
    // Whole cold passes, each after a set-up slot, until the next one
    // would overrun the budget. The reference kernel runs between the
    // steps of every pass, so its times sample the host's speed over
    // the whole run as the passes do; the median pass and the median
    // set-up slot are counted in reference seconds at the kernel's
    // median time (reference.hh).
    SetupSamples setups;
    std::vector<double> slots, passes, walls, kernel;
    const auto at_step = [&kernel] { kernel.push_back(timeReference()); };
    std::uint64_t cycles = 0;
    bool agree = true;
    const auto t0 = Clock::now();
    do {
        slots.push_back(setups.take(wl));
        const PassStats ps = wl.pass(tally, false, at_step);
        const std::uint64_t d = simDigest(ps.results);
        if (walls.empty()) {
            digest = d;
            cycles = totalCycles(ps.results);
        }
        agree = agree && d == digest;
        passes.push_back(
            std::accumulate(ps.stepS.begin(), ps.stepS.end(), 0.0));
        walls.push_back(ps.wallS);
    } while (since(t0) + median(walls) <= args.seconds);
    tally.record(agree, "passes disagree on simulated output");

    const double kernel_s = median(kernel);
    const double wall = toReferenceSeconds(median(passes), kernel_s,
                                           kReferenceNominalS,
                                           wl.elasticity());
    const double setup = toReferenceSeconds(median(slots), kernel_s,
                                            kReferenceNominalS,
                                            wl.elasticity());
    std::printf("info: %zu set-up slots, %zu set-ups, median slot %.6f "
                "host s\n",
                slots.size(), setups.total.size(), median(slots));
    std::printf("info: %zu passes, host s per pass:", passes.size());
    for (double p : passes)
        std::printf(" %.4f", p);
    std::printf("\ninfo: reference kernel median %.6f host s over %zu runs, "
                "elasticity %.1f\n",
                kernel_s, kernel.size(), wl.elasticity());
    Metrics m;
    put(m, "wall_s", wall, "s");
    put(m, "sim_rate_cps", double(cycles) / wall, "core-cycles/s");
    put(m, "setup_s", setup, "s");
    put(m, "peak_rss_mb", peakRssMib(), "MiB");
    put(m, "sim_cycles", double(cycles), "core-cycles");
    return m;
}

// -------------------------------------------------------- traced run

/** Run every simulation of a pass through TracedChip, one after
 *  another; returns summed layer times and summed chip run seconds. */
LayerTimes
tracedPass(const Workload &wl, double &chip_s)
{
    LayerTimes total;
    chip_s = 0;
    for (const auto &spec : wl.runSpecs()) {
        TracedChip chip(spec.config, spec.workload);
        const auto t0 = Clock::now();
        chip.run();
        chip_s += since(t0);
        total.add(chip.times());
    }
    return total;
}

/**
 * Prove TracedChip runs the same program as Gpu on @p spec in the
 * current scheduler mode: byte-identical stats dumps and equal ticked
 * and skipped edge counts. Also returns one Gpu::harvest() time.
 */
bool
sameAsGpu(const RunSpec &spec, double &harvest_s)
{
    const SimSpeedTotals s0 = simSpeedTotals();
    Gpu gpu(spec.config, spec.workload);
    gpu.run();
    const SimSpeedTotals s1 = simSpeedTotals();
    std::vector<double> h;
    for (int i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        gpu.harvest();
        h.push_back(since(t0));
    }
    harvest_s = median(h);

    TracedChip chip(spec.config, spec.workload);
    chip.run();
    std::ostringstream a, b;
    gpu.dumpStats(a);
    chip.dumpStats(b);
    return a.str() == b.str() &&
           chip.tickedEdges() == s1.tickedEdges - s0.tickedEdges &&
           chip.skippedEdges() == s1.skippedEdges - s0.skippedEdges;
}

Metrics
tracedRun(const Workload &wl, Tally &tally, std::uint64_t &digest)
{
    SetupSamples setups;
    for (int i = 0; i < 5; ++i)
        setups.take(wl);
    const SetupTimes setup = setups.medians();

    // Untraced references: skip (the default) and lockstep.
    const SimSpeedTotals s0 = simSpeedTotals();
    const PassStats ref = wl.pass(tally, true);
    const SimSpeedTotals s1 = simSpeedTotals();
    setSchedulerMode(SchedulerMode::Lockstep);
    const PassStats lock = wl.pass(tally, false);
    setSchedulerMode(SchedulerMode::Skip);
    const SimSpeedTotals s2 = simSpeedTotals();
    digest = simDigest(ref.results);
    tally.record(simDigest(lock.results) == digest,
                 "lockstep and skip passes disagree on simulated output");

    double chip_s = 0;
    const LayerTimes lt = tracedPass(wl, chip_s);

    // The equivalence check runs on the workload's shortest simulation.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < ref.results.size(); ++i)
        if (ref.results[i].coreCycles < ref.results[pick].coreCycles)
            pick = i;
    const RunSpec check_spec = wl.runSpecs().at(pick);
    double harvest_s = 0;
    for (SchedulerMode mode : {SchedulerMode::Skip, SchedulerMode::Lockstep}) {
        setSchedulerMode(mode);
        double h = 0;
        tally.record(sameAsGpu(check_spec, h),
                     std::string("traced chip differs from Gpu under ") +
                         schedulerModeName(mode) + " on " +
                         check_spec.workload.name());
        if (mode == SchedulerMode::Skip)
            harvest_s = h;
    }
    setSchedulerMode(SchedulerMode::Skip);

    const double skip_run_s = double(s1.wallNanos - s0.wallNanos) * 1e-9;
    const double lock_run_s = double(s2.wallNanos - s1.wallNanos) * 1e-9;
    const double ticked = double(s1.tickedEdges - s0.tickedEdges);
    const double skipped = double(s1.skippedEdges - s0.skippedEdges);
    const double edges = ticked + skipped;

    std::uint64_t insts = 0, l1_mshr = 0, l2_stall = 0;
    std::uint64_t reads = 0, writes = 0, cycles = 0;
    double stall = 0, l1_miss = 0, l2_miss = 0, aml = 0, icnt_util = 0;
    double dram_util = 0, dram_eff = 0, row_hit = 0, occ_high = 0;
    for (const auto &r : ref.results) {
        insts += r.warpInstsIssued;
        cycles += r.coreCycles;
        reads += r.dramReads;
        writes += r.dramWrites;
        l1_mshr += static_cast<std::uint64_t>(
            double(r.l1StallCycles) *
                r.l1StallDist[unsigned(CacheStallCause::MshrFull)] +
            0.5);
        l2_stall += r.l2StallCycles;
        stall += r.issueStallFrac;
        l1_miss += r.l1MissRate;
        l2_miss += r.l2MissRate;
        aml += r.aml;
        icnt_util += r.icntL2Util;
        dram_util += r.l2DramUtil;
        dram_eff += r.dramEfficiency;
        row_hit += r.dramRowHitRate;
        occ_high += r.dramQueueOcc.back();
    }
    const double n = double(ref.results.size());
    auto per = [](double num, double den) { return den > 0 ? num / den : 0; };

    Metrics m;
    put(m, "smcore.tick_s", lt.smcoreTickNs * 1e-9, "s");
    put(m, "smcore.ns_per_core_tick", per(lt.smcoreTickNs, lt.coreTicks),
        "ns");
    put(m, "smcore.ns_per_warp_inst", per(lt.smcoreTickNs, insts), "ns");
    put(m, "mem.deliver_s", lt.memDeliverNs * 1e-9, "s");
    put(m, "mem.accept_s", lt.memAcceptNs * 1e-9, "s");
    put(m, "icnt.tick_s", lt.icntTickNs * 1e-9, "s");
    put(m, "icnt.ns_per_tick", per(lt.icntTickNs, lt.icntTicks), "ns");
    put(m, "dram.tick_s", lt.dramTickNs * 1e-9, "s");
    put(m, "dram.ns_per_cmd", per(lt.dramTickNs, double(reads + writes)), "ns");
    put(m, "sim.clock_s", (lt.clockNs + lt.loopNs) * 1e-9, "s");
    put(m, "sim.horizon_s", lt.horizonNs * 1e-9, "s");
    put(m, "sim.skip_integrate_s", lt.skipNs * 1e-9, "s");
    put(m, "sim.edges_ticked", ticked, "count");
    put(m, "sim.skipped_edge_frac", per(skipped, edges), "fraction");
    put(m, "sim.fused_cycle_frac",
        per(double(s1.fusedCycles - s0.fusedCycles), edges), "fraction");
    put(m, "sim.skip_gain", per(lock_run_s, skip_run_s), "ratio");
    put(m, "gpu.construct_s", setup.constructS, "s");
    put(m, "gpu.harvest_s", harvest_s, "s");
    put(m, "workloads.trace_load_s", setup.traceLoadS, "s");
    put(m, "core.sims_run", double(ref.simsRun), "count");
    put(m, "core.cache_hits", double(ref.cacheHits), "count");
    double busy = 0;
    for (double s : ref.simSeconds)
        busy += s;
    put(m, "core.pool_efficiency",
        poolEfficiency(busy, 1, ref.wallS), "fraction");
    put(m, "core.sim_s_p50", median(ref.simSeconds), "s");
    const double tail_pct = tailPercentile(ref.simSeconds.size());
    put(m, "core.sim_s_tail", percentile(ref.simSeconds, tail_pct), "s");
    put(m, "smcore.ipc", per(double(insts), double(cycles)), "inst/cycle");
    put(m, "smcore.issue_stall_frac", per(stall, n), "fraction");
    put(m, "cache.l1d_miss_rate", per(l1_miss, n), "fraction");
    put(m, "cache.l1d_mshr_stall_cycles", double(l1_mshr), "cycles");
    put(m, "cache.l2_miss_rate", per(l2_miss, n), "fraction");
    put(m, "cache.l2_stall_cycles", double(l2_stall), "cycles");
    put(m, "mem.aml_cycles", per(aml, n), "cycles");
    put(m, "icnt.icnt_l2_util", per(icnt_util, n), "fraction");
    put(m, "dram.util", per(dram_util, n), "fraction");
    put(m, "dram.efficiency", per(dram_eff, n), "fraction");
    put(m, "dram.row_hit_rate", per(row_hit, n), "fraction");
    put(m, "dram.reads", double(reads), "count");
    put(m, "dram.writes", double(writes), "count");
    put(m, "dram.queue_occ_high", per(occ_high, n), "fraction");
    put(m, "bench.trace_overhead", per(chip_s, skip_run_s), "ratio");
    put(m, "bench.attributed_frac", per(lt.totalNs() * 1e-9, skip_run_s),
        "fraction");

    std::printf("info: tail percentile p%g of %zu sims; timer read %.1f ns; "
                "%llu spans\n",
                tail_pct, ref.simSeconds.size(), timerOverheadNs(),
                static_cast<unsigned long long>(lt.spans));
    return m;
}

void
printResult(const Tally &tally, const Metrics &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted()),
                static_cast<unsigned long long>(tally.failed()));
    for (std::size_t i = 0; i < m.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m[i].first.c_str(), m[i].second.first,
                    m[i].second.second.c_str());
    }
    std::printf("}}\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::string err;
    const auto wl = makeWorkload(args.workload, args.seed,
                                 ".bench_build/perfbench/scratch", err);
    if (!wl)
        usage(err);
    // Pin the default explicitly so BWSIM_SCHEDULER cannot leak in.
    setSchedulerMode(SchedulerMode::Skip);

    Tally tally;
    std::uint64_t digest = 0;
    const Metrics m = args.trace ? tracedRun(*wl, tally, digest)
                                 : untracedRun(*wl, args, tally, digest);

    std::printf("info: workload=%s seed=%llu sim_digest=%016llx "
                "failed_frac=%.6g (%llu/%llu)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(digest), tally.failedFrac(),
                static_cast<unsigned long long>(tally.failed()),
                static_cast<unsigned long long>(tally.attempted()));
    for (const auto &f : tally.failures())
        std::printf("info: FAILED %s\n", f.c_str());
    printResult(tally, m);
    return 0;
}
