#include "workloads.hh"

#include <cstdio>
#include <filesystem>

#include "common/serdes.hh"
#include "core/backend.hh"
#include "core/experiments.hh"
#include "core/sim_cache.hh"
#include "gpu/gpu.hh"
#include "stats/stat.hh"
#include "workloads/trace_source.hh"

using namespace bwsim;

namespace perfbench
{

namespace
{

/** Construct one Gpu and drop it; returns the construction seconds. */
double
constructOnce(const GpuConfig &cfg, const WorkloadSpec &spec)
{
    const auto t0 = Clock::now();
    Gpu gpu(cfg, spec);
    return since(t0);
}

/** Call @p at_step when it is set. */
void
stepBoundary(const std::function<void()> &at_step)
{
    if (at_step)
        at_step();
}

/** Run one simulation directly as one step of @p ps; @p issued gets
 *  the loads plus stores the cores issued. */
SimResult
runTimed(const GpuConfig &cfg, const WorkloadSpec &spec, PassStats &ps,
         bool time_sims, const std::function<void()> &at_step,
         std::uint64_t &issued)
{
    stepBoundary(at_step);
    const auto t0 = Clock::now();
    Gpu gpu(cfg, spec);
    SimResult r = gpu.run();
    const double s = since(t0);
    ps.stepS.push_back(s);
    if (time_sims)
        ps.simSeconds.push_back(s);
    ++ps.simsRun;
    const auto cores = stats::findGroups(gpu.statsTree(), "core*");
    issued = stats::sumScalar(cores, "loads_issued") +
             stats::sumScalar(cores, "stores_issued");
    return r;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * The SimCache's simulation backend in a traced run: runs each
 * simulation inline, as ThreadedBackend does on one thread, with a
 * span around it, so simulation time can be told apart from the core
 * layer's own.
 */
class TimedBackend : public ExecutionBackend
{
  public:
    std::string name() const override { return "timed"; }

    std::vector<SimResult>
    runAll(const std::vector<RunSpec> &specs, int) override
    {
        std::vector<SimResult> results;
        for (const auto &spec : specs) {
            const auto t0 = Clock::now();
            results.push_back(runOne(spec.workload, spec.config));
            seconds.push_back(since(t0));
        }
        return results;
    }

    std::vector<double> seconds;
};

// ---------------------------------------------------- pchase-ladder

/**
 * Three serial pointer-chase probes on the baseline, one live warp
 * each: a region inside the 16 KB L1, one inside the 768 KB L2 and one
 * beyond it. Instruction counts keep the longest well under the
 * 3M-cycle cap (the DRAM probe runs about 1.95M cycles). The seed
 * lengthens every chain by 0-1.5%; the default seed runs the base
 * lengths. Each probe goes through exp::executionBackend() over a cold
 * in-memory SimCache on one thread, as the experiment driver runs a
 * simulation.
 */
class PchaseLadder : public Workload
{
  public:
    explicit PchaseLadder(std::uint64_t seed) : seed(seed)
    {
        const std::uint64_t extra = (seed - kDefaultSeed) % 16;
        for (const auto &[region, insts] :
             {std::pair{"8k", 200000}, {"256k", 8000}, {"4m", 8000}}) {
            const std::string form =
                std::string("pchase:") + region + ":" +
                std::to_string(insts + extra * insts / 1000);
            WorkloadSpec s;
            if (!parseGeneratorForm(form, s))
                fatal("bad generator form %s", form.c_str());
            probes.push_back(std::move(s));
        }
    }

    double elasticity() const override { return 1.5; }

    SetupTimes
    setup() const override
    {
        const auto t0 = Clock::now();
        PchaseLadder fresh(seed);
        const GpuConfig cfg = GpuConfig::baseline();
        SetupTimes st;
        for (const auto &p : fresh.probes)
            st.constructS += constructOnce(cfg, p);
        st.totalS = since(t0);
        return st;
    }

    std::vector<RunSpec>
    runSpecs() const override
    {
        std::vector<RunSpec> out;
        for (const auto &p : probes)
            out.push_back({p, GpuConfig::baseline()});
        return out;
    }

    PassStats
    pass(Tally &tally, bool time_sims,
         const std::function<void()> &at_step) const override
    {
        PassStats ps;
        SimCache cache;
        std::shared_ptr<TimedBackend> timed;
        if (time_sims) {
            timed = std::make_shared<TimedBackend>();
            cache.setSimulationBackend(timed);
        }
        exp::setExecutionBackend(std::make_unique<CachingBackend>(cache));
        const auto t0 = Clock::now();
        for (const auto &p : probes) {
            stepBoundary(at_step);
            const auto ts = Clock::now();
            ps.results.push_back(exp::executionBackend()
                                     .runAll({{p, GpuConfig::baseline()}}, 1)
                                     .at(0));
            ps.stepS.push_back(since(ts));
        }
        stepBoundary(at_step);
        ps.wallS = since(t0);
        exp::setExecutionBackend(nullptr);
        ps.simsRun = cache.simsRun();
        ps.cacheHits = cache.hits();
        if (timed)
            ps.simSeconds = timed->seconds;

        double prev = 0.0;
        bool rising = true;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            checkSim(ps.results[i], "pchase-ladder", tally);
            const double per_step =
                double(ps.results[i].coreCycles) / probes[i].gen.insts;
            rising = rising && per_step > prev;
            prev = per_step;
        }
        tally.record(rising, "pchase-ladder: cycles per chase step do "
                             "not rise L1 < L2 < DRAM");
        return ps;
    }

  private:
    std::uint64_t seed;
    std::vector<WorkloadSpec> probes;
};

// --------------------------------------------------- trace-writemix

/**
 * Replay of CTA-tagged text traces generated from the seed: about 40%
 * stores, half the records random over 256 MiB and half sequential
 * within each CTA's own region. The records are split over kTraces
 * files, so a pass is several short simulations rather than one long
 * one. Each pass loads every file with loadTraceFile and runs it on
 * the baseline.
 */
class TraceWritemix : public Workload
{
  public:
    static constexpr int kTraces = 4;
    static constexpr int kCtas = 125;
    static constexpr int kRecordsPerCta = 400;

    TraceWritemix(std::uint64_t seed, const std::string &path_prefix)
    {
        std::uint64_t state = seed;
        constexpr std::uint64_t rand_base = 0x1000'0000;
        constexpr std::uint64_t rand_words = (256ull << 20) / 4;
        constexpr std::uint64_t seq_base = 0x3000'0000;
        constexpr std::uint64_t seq_region = 64 << 10;
        constexpr std::uint64_t seq_step = 16;
        for (int t = 0; t < kTraces; ++t) {
            paths.push_back(path_prefix + "-" + std::to_string(t) +
                            ".trace");
            std::FILE *f = std::fopen(paths.back().c_str(), "w");
            if (!f)
                return;
            std::fprintf(f, "# trace-writemix seed %llu part %d\n",
                         static_cast<unsigned long long>(seed), t);
            for (int cta = 0; cta < kCtas; ++cta) {
                const std::uint64_t region =
                    seq_base + std::uint64_t(t * kCtas + cta) * seq_region;
                std::uint64_t pos = 0;
                for (int i = 0; i < kRecordsPerCta; ++i) {
                    const std::uint64_t r = splitmix64(state);
                    const bool store = r % 100 < 40;
                    const bool random = (r >> 8) % 2 == 0;
                    const std::uint64_t addr =
                        random ? rand_base + (r >> 16) % rand_words * 4
                               : region + seq_step * pos++;
                    std::fprintf(f, "%s 0x%llx %d\n", store ? "st" : "ld",
                                 static_cast<unsigned long long>(addr), cta);
                }
            }
            if (std::fclose(f) != 0)
                return;
        }
        written = true;
    }

    bool ok() const { return written; }

    double elasticity() const override { return 1.2; }

    SetupTimes
    setup() const override
    {
        const auto t0 = Clock::now();
        SetupTimes st;
        for (const auto &path : paths) {
            const auto tl = Clock::now();
            const WorkloadSpec spec = load(path);
            st.traceLoadS += since(tl);
            st.constructS += constructOnce(GpuConfig::baseline(), spec);
        }
        st.totalS = since(t0);
        return st;
    }

    std::vector<RunSpec>
    runSpecs() const override
    {
        std::vector<RunSpec> out;
        for (const auto &path : paths)
            out.push_back({load(path), GpuConfig::baseline()});
        return out;
    }

    PassStats
    pass(Tally &tally, bool time_sims,
         const std::function<void()> &at_step) const override
    {
        PassStats ps;
        const GpuConfig cfg = GpuConfig::baseline();
        const auto t0 = Clock::now();
        std::vector<std::uint64_t> issued(paths.size());
        std::vector<std::size_t> records(paths.size());
        for (std::size_t i = 0; i < paths.size(); ++i) {
            stepBoundary(at_step);
            const auto tl = Clock::now();
            const WorkloadSpec spec = load(paths[i]);
            ps.stepS.push_back(since(tl));
            records[i] = spec.trace->records.size();
            ps.results.push_back(
                runTimed(cfg, spec, ps, time_sims, at_step, issued[i]));
        }
        stepBoundary(at_step);
        ps.wallS = since(t0);

        for (std::size_t i = 0; i < paths.size(); ++i) {
            checkSim(ps.results[i], "trace-writemix", tally);
            tally.record(issued[i] == records[i] &&
                             issued[i] ==
                                 std::uint64_t(kCtas) * kRecordsPerCta,
                         "trace-writemix: loads + stores issued != "
                         "records in " + paths[i]);
        }
        return ps;
    }

  private:
    static WorkloadSpec
    load(const std::string &path)
    {
        std::string err;
        auto trace = loadTraceFile(path, err);
        if (!trace)
            fatal("%s", err.c_str());
        return makeTraceWorkload(std::move(trace));
    }

    std::vector<std::string> paths;
    bool written = false;
};

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"pchase-ladder",
                                                "trace-writemix"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &scratch_dir, std::string &err)
{
    if (name == "pchase-ladder")
        return std::make_unique<PchaseLadder>(seed);
    if (name == "trace-writemix") {
        std::error_code ec;
        std::filesystem::create_directories(scratch_dir, ec);
        const std::string prefix =
            scratch_dir + "/writemix-" + std::to_string(seed);
        auto w = std::make_unique<TraceWritemix>(seed, prefix);
        if (!w->ok()) {
            err = "cannot write " + prefix + "-*.trace";
            return nullptr;
        }
        return w;
    }
    err = "unknown workload '" + name + "'";
    return nullptr;
}

void
checkSim(const SimResult &r, const std::string &wl, Tally &tally)
{
    const std::string id = wl + ": " + r.benchmark + " on " + r.config;
    if (r.timedOut) {
        tally.record(false, id + " hit the cycle cap");
        return;
    }
    tally.record(r.l1IcntBytes == r.icntL2Bytes,
                 id + ": l1_icnt_bytes != icnt_l2_bytes after drain");
}

std::uint64_t
simDigest(const std::vector<SimResult> &results)
{
    ByteWriter w;
    for (const auto &r : results)
        serializeResult(w, r);
    return fnv1a64(w.bytes());
}

} // namespace perfbench
