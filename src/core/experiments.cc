#include "core/experiments.hh"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <sstream>

#include "cache/cache.hh"
#include "common/log.hh"
#include "core/cost_model.hh"
#include "core/sim_cache.hh"
#include "core/work_queue.hh"
#include "workloads/trace_source.hh"
#include "smcore/stall.hh"
#include "stats/occupancy_hist.hh"

namespace bwsim::exp
{

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const auto first = item.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue; // empty or all-whitespace item
        const auto last = item.find_last_not_of(" \t");
        out.push_back(item.substr(first, last - first + 1));
    }
    return out;
}

bool
parseInt(const std::string &s, int &out)
{
    // strtol would accept leading whitespace and '+'; strict means
    // digits with an optional leading '-', nothing else.
    if (s.empty() || !(s[0] == '-' || (s[0] >= '0' && s[0] <= '9')))
        return false;
    errno = 0;
    char *end = nullptr;
    long n = std::strtol(s.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || n < INT_MIN || n > INT_MAX)
        return false;
    out = static_cast<int>(n);
    return true;
}

bool
parseTableFormat(const std::string &s, TableFormat &out)
{
    if (s == "text")
        out = TableFormat::Text;
    else if (s == "csv")
        out = TableFormat::Csv;
    else if (s == "tsv")
        out = TableFormat::Tsv;
    else if (s == "json")
        out = TableFormat::Json;
    else
        return false;
    return true;
}

namespace
{

/** The swappable process-wide backend (see executionBackend()). */
std::unique_ptr<ExecutionBackend> &
backendSlot()
{
    static std::unique_ptr<ExecutionBackend> slot =
        std::make_unique<CachingBackend>(SimCache::global());
    return slot;
}

/**
 * Run every config across all benchmarks through the process-wide
 * execution backend (by default a CachingBackend over the global
 * SimCache): figures sharing (profile, config) pairs -- above all the
 * baseline runs -- simulate them once per driver invocation, and once
 * per cache directory when a disk tier is attached. The whole grid is
 * one batch, so a --threads pool or the --jobs workers run all of it
 * at once instead of meeting a barrier after each config. Results
 * come back per config, in profile order.
 */
std::vector<std::vector<SimResult>>
runConfigs(const std::vector<WorkloadSpec> &profiles,
           const std::vector<GpuConfig> &configs, int threads)
{
    std::vector<RunSpec> specs;
    specs.reserve(profiles.size() * configs.size());
    for (const auto &cfg : configs)
        for (const auto &p : profiles)
            specs.push_back({p, cfg});
    const auto flat = executionBackend().runAll(specs, threads);
    const std::size_t n = profiles.size();
    std::vector<std::vector<SimResult>> out(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        out[c].assign(flat.begin() + c * n, flat.begin() + (c + 1) * n);
    return out;
}

/** Per-benchmark speedup of each of @p configs over @p base: one
 *  column per config. */
std::vector<std::vector<double>>
speedupColumns(const std::vector<WorkloadSpec> &profiles,
               const GpuConfig &base, std::vector<GpuConfig> configs,
               int threads)
{
    configs.insert(configs.begin(), base);
    const auto res = runConfigs(profiles, configs, threads);
    std::vector<std::vector<double>> cols;
    for (std::size_t c = 1; c < res.size(); ++c) {
        std::vector<double> col;
        for (std::size_t b = 0; b < profiles.size(); ++b)
            col.push_back(res[c][b].speedupOver(res[0][b]));
        cols.push_back(std::move(col));
    }
    return cols;
}

std::vector<std::string>
namesOf(const std::vector<GpuConfig> &configs)
{
    std::vector<std::string> names;
    for (const auto &cfg : configs)
        names.push_back(cfg.name);
    return names;
}

/** True when any workload is not a plain synthetic profile -- the
 *  tables then carry a key column to keep rows unambiguous. */
bool
anyNonSynthetic(const std::vector<WorkloadSpec> &specs)
{
    for (const auto &s : specs)
        if (s.kind != WorkloadKind::Synthetic)
            return true;
    return false;
}

/** Build a speedup-style SeriesTable: rows = benchmarks (+AVG). */
SeriesTable
buildSpeedupTable(const std::vector<WorkloadSpec> &profiles,
                  const std::vector<std::string> &config_names,
                  const std::vector<std::vector<double>> &speedups,
                  const std::string &value_header)
{
    SeriesTable t;
    t.colNames = config_names;
    // Mixed trace/generator sweeps get a workload-key column so two
    // workloads sharing a display name stay distinguishable; pure
    // synthetic sweeps keep the historical (golden) shape.
    const bool keyed = anyNonSynthetic(profiles);
    std::vector<std::string> headers{"benchmark"};
    if (keyed)
        headers.push_back("workload");
    for (const auto &c : config_names)
        headers.push_back(c);
    t.table = stats::TextTable(headers);

    std::vector<double> col_sums(config_names.size(), 0.0);
    for (std::size_t b = 0; b < profiles.size(); ++b) {
        t.rowNames.push_back(profiles[b].name());
        t.table.newRow().add(profiles[b].name());
        if (keyed)
            t.table.add(workloadKeyTag(profiles[b]));
        std::vector<double> row;
        for (std::size_t c = 0; c < config_names.size(); ++c) {
            double v = speedups[c][b];
            row.push_back(v);
            col_sums[c] += v;
            t.table.addNum(v, 2);
        }
        t.value.push_back(row);
    }
    t.rowNames.push_back("AVG");
    t.table.newRow().add("AVG");
    if (keyed)
        t.table.add("-");
    std::vector<double> avg_row;
    for (std::size_t c = 0; c < config_names.size(); ++c) {
        double v = profiles.empty()
                       ? 0.0
                       : col_sums[c] / double(profiles.size());
        avg_row.push_back(v);
        t.table.addNum(v, 2);
    }
    t.value.push_back(avg_row);
    (void)value_header;
    return t;
}

/** Rows = benchmarks (+AVG); cell extractor per result. */
template <typename Fn>
SeriesTable
buildMetricTable(const std::vector<SimResult> &results,
                 const std::vector<std::string> &metric_names, Fn extract,
                 int precision = 3)
{
    SeriesTable t;
    t.colNames = metric_names;
    std::vector<std::string> headers{"benchmark"};
    for (const auto &m : metric_names)
        headers.push_back(m);
    t.table = stats::TextTable(headers);

    std::vector<double> sums(metric_names.size(), 0.0);
    for (const auto &r : results) {
        t.rowNames.push_back(r.benchmark);
        t.table.newRow().add(r.benchmark);
        std::vector<double> row;
        for (std::size_t m = 0; m < metric_names.size(); ++m) {
            double v = extract(r, m);
            row.push_back(v);
            sums[m] += v;
            t.table.addNum(v, precision);
        }
        t.value.push_back(row);
    }
    t.rowNames.push_back("AVG");
    t.table.newRow().add("AVG");
    std::vector<double> avg;
    for (std::size_t m = 0; m < metric_names.size(); ++m) {
        double v = results.empty() ? 0.0 : sums[m] / double(results.size());
        avg.push_back(v);
        t.table.addNum(v, precision);
    }
    t.value.push_back(avg);
    return t;
}

} // anonymous namespace

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions o;
    if (const char *b = std::getenv("BWSIM_BENCHES"))
        o.benchmarks = splitCsv(b);
    if (const char *t = std::getenv("BWSIM_THREADS")) {
        if (!parseInt(t, o.threads))
            fatal("BWSIM_THREADS expects an integer, got '%s'", t);
        if (o.threads < 0)
            fatal("BWSIM_THREADS must be >= 0 (0 = hardware "
                  "concurrency), got '%s'", t);
    }
    if (const char *s = std::getenv("BWSIM_SHRINK")) {
        if (!parseInt(s, o.shrink))
            fatal("BWSIM_SHRINK expects an integer, got '%s'", s);
        o.shrink = std::max(1, o.shrink);
    }
    if (const char *d = std::getenv("BWSIM_CACHE_DIR"))
        o.cacheDir = d;
    if (const char *s = std::getenv("BWSIM_SPOOL_DIR"))
        o.spoolDir = s;
    return o;
}

double
SeriesTable::at(const std::string &row, const std::string &col) const
{
    for (std::size_t r = 0; r < rowNames.size(); ++r) {
        if (rowNames[r] != row)
            continue;
        for (std::size_t c = 0; c < colNames.size(); ++c)
            if (colNames[c] == col)
                return value[r][c];
    }
    fatal("SeriesTable::at(%s, %s): no such cell", row.c_str(),
          col.c_str());
}

ExecutionBackend &
executionBackend()
{
    return *backendSlot();
}

void
setExecutionBackend(std::unique_ptr<ExecutionBackend> backend)
{
    if (backend)
        backendSlot() = std::move(backend);
    else
        backendSlot() =
            std::make_unique<CachingBackend>(SimCache::global());
}

void
configureExecution(const ExperimentOptions &opts)
{
    SimCache &cache = SimCache::global();
    cache.attachDiskTier(opts.cacheDir);
    if (opts.backend == "queue" && !opts.spoolDir.empty()) {
        // Cache misses become spool job files drained by external
        // bwsim --worker processes; everything above the SimCache is
        // unchanged, so the merged tables are byte-identical to an
        // in-process run.
        WorkQueueConfig cfg;
        cfg.spoolDir = opts.spoolDir;
        cfg.jobTimeoutSec = static_cast<double>(opts.jobTimeoutSec);
        cache.setSimulationBackend(
            std::make_shared<WorkQueueBackend>(std::move(cfg)));
    } else {
        cache.setSimulationBackend(nullptr); // default threaded pool
    }
}

std::vector<WorkloadSpec>
selectBenchmarks(const ExperimentOptions &opts)
{
    std::vector<WorkloadSpec> out;
    if (!opts.tracePath.empty()) {
        std::string err;
        auto trace = loadTraceFile(opts.tracePath, err);
        if (!trace)
            fatal("%s", err.c_str());
        out.push_back(makeTraceWorkload(std::move(trace)));
    }
    if (opts.benchmarks.empty()) {
        // A lone --trace runs just the trace, not trace + all 19.
        if (out.empty())
            for (const auto &p : benchmarkSuite())
                out.push_back(p);
    } else {
        for (const auto &name : opts.benchmarks) {
            WorkloadSpec gen_spec;
            if (parseGeneratorForm(name, gen_spec)) {
                out.push_back(std::move(gen_spec));
                continue;
            }
            const BenchmarkProfile *p = findBenchmark(name);
            if (!p) {
                std::string avail;
                for (const auto &b : benchmarkSuite()) {
                    if (!avail.empty())
                        avail += ", ";
                    avail += b.name;
                }
                fatal("unknown benchmark '%s'\n  available: %s\n  "
                      "also accepted: %s",
                      name.c_str(), avail.c_str(),
                      workloadFormsHelp().c_str());
            }
            out.push_back(*p);
        }
    }
    // Shrink scales the synthetic profiles only: a trace replays
    // exactly its records and a probe's size is its meaning.
    if (opts.shrink > 1)
        for (auto &s : out)
            if (s.kind == WorkloadKind::Synthetic)
                s.profile = shrinkProfile(s.profile, opts.shrink);
    return out;
}

std::vector<SimResult>
baselineResults(const ExperimentOptions &opts)
{
    return runConfigs(selectBenchmarks(opts), {GpuConfig::baseline()},
                      opts.threads)
        .front();
}

SeriesTable
fig1StallsAndLatencies(const std::vector<SimResult> &base)
{
    return buildMetricTable(
        base, {"IssueStall%", "L2-AHL", "AML"},
        [](const SimResult &r, std::size_t m) {
            switch (m) {
              case 0:
                return r.issueStallFrac * 100.0;
              case 1:
                return r.l2Ahl;
              default:
                return r.aml;
            }
        },
        1);
}

SeriesTable
fig4L2QueueOccupancy(const std::vector<SimResult> &base)
{
    std::vector<std::string> bands;
    for (unsigned i = 0; i < stats::numOccBands; ++i)
        bands.push_back(
            stats::occBandLabel(static_cast<stats::OccBand>(i)));
    return buildMetricTable(
        base, bands,
        [](const SimResult &r, std::size_t m) {
            return r.l2AccessQueueOcc[m];
        },
        3);
}

SeriesTable
fig5DramQueueOccupancy(const std::vector<SimResult> &base)
{
    std::vector<std::string> bands;
    for (unsigned i = 0; i < stats::numOccBands; ++i)
        bands.push_back(
            stats::occBandLabel(static_cast<stats::OccBand>(i)));
    return buildMetricTable(
        base, bands,
        [](const SimResult &r, std::size_t m) {
            return r.dramQueueOcc[m];
        },
        3);
}

SeriesTable
fig7IssueStallDistribution(const std::vector<SimResult> &base)
{
    std::vector<std::string> causes;
    for (unsigned i = 0; i < numIssueStallCauses; ++i)
        causes.push_back(issueStallName(static_cast<IssueStall>(i)));
    return buildMetricTable(
        base, causes,
        [](const SimResult &r, std::size_t m) {
            return r.issueStallDist[m] * 100.0;
        },
        1);
}

SeriesTable
fig8L2StallDistribution(const std::vector<SimResult> &base)
{
    // Fig. 8 legend order: bp-ICNT, port, cache, mshr, bp-DRAM.
    std::vector<std::string> causes{"bp-ICNT", "port", "cache", "mshr",
                                    "bp-DRAM"};
    return buildMetricTable(
        base, causes,
        [](const SimResult &r, std::size_t m) {
            return r.l2StallDist[m] * 100.0;
        },
        1);
}

SeriesTable
fig9L1StallDistribution(const std::vector<SimResult> &base)
{
    // Fig. 9 legend order: cache, mshr, bp-L2.
    std::vector<std::string> causes{"cache", "mshr", "bp-L2"};
    return buildMetricTable(
        base, causes,
        [](const SimResult &r, std::size_t m) {
            switch (m) {
              case 0:
                return r.l1StallDist[static_cast<unsigned>(
                           CacheStallCause::LineAlloc)] * 100.0;
              case 1:
                return r.l1StallDist[static_cast<unsigned>(
                           CacheStallCause::MshrFull)] * 100.0;
              default:
                return r.l1StallDist[static_cast<unsigned>(
                           CacheStallCause::MissQueueFull)] * 100.0;
            }
        },
        1);
}

SeriesTable
sec4DramEfficiency(const std::vector<SimResult> &base)
{
    return buildMetricTable(
        base, {"BW-efficiency%", "RowHit%"},
        [](const SimResult &r, std::size_t m) {
            return (m == 0 ? r.dramEfficiency : r.dramRowHitRate) * 100.0;
        },
        1);
}

SeriesTable
tab2SpeedupBounds(const ExperimentOptions &opts)
{
    auto profiles = selectBenchmarks(opts);
    auto speedups = speedupColumns(
        profiles, GpuConfig::baseline(),
        {GpuConfig::perfectMem(), GpuConfig::idealDram()}, opts.threads);
    return buildSpeedupTable(profiles, {"P-inf", "P-DRAM"}, speedups,
                             "speedup");
}

std::vector<std::uint32_t>
fig3DefaultLatencies()
{
    return {0, 50, 100, 150, 200, 250, 300, 350, 400, 450,
            500, 550, 600, 650, 700, 750, 800};
}

std::vector<std::string>
fig3DefaultBenchmarks()
{
    return {"cfd", "dwt2d", "leukocyte", "nn", "nw", "sc", "lbm", "ss"};
}

SeriesTable
fig3LatencySweep(const ExperimentOptions &opts,
                 const std::vector<std::uint32_t> &latencies)
{
    auto profiles = selectBenchmarks(opts);
    std::vector<GpuConfig> configs;
    std::vector<std::string> config_names;
    for (std::uint32_t lat : latencies) {
        configs.push_back(GpuConfig::fixedL1Lat(lat));
        config_names.push_back(csprintf("%u", lat));
    }
    auto speedups = speedupColumns(profiles, GpuConfig::baseline(),
                                   configs, opts.threads);
    return buildSpeedupTable(profiles, config_names, speedups,
                             "ipc-normalized");
}

SeriesTable
fig10DseScaling(const ExperimentOptions &opts)
{
    auto profiles = selectBenchmarks(opts);
    std::vector<GpuConfig> configs{
        GpuConfig::scaledL1(),     GpuConfig::scaledL2(),
        GpuConfig::scaledDram(),   GpuConfig::scaledL1L2(),
        GpuConfig::scaledL2Dram(), GpuConfig::scaledAll()};
    auto speedups = speedupColumns(profiles, GpuConfig::baseline(),
                                   configs, opts.threads);
    return buildSpeedupTable(profiles, namesOf(configs), speedups,
                             "speedup");
}

std::vector<double>
fig11DefaultFrequencies()
{
    return {1.2, 1.3, 1.4, 1.5, 1.6};
}

std::vector<std::string>
fig11DefaultBenchmarks()
{
    return {"nn", "hybridsort", "sradv2", "bfs", "cfd", "leukocyte"};
}

SeriesTable
fig11FrequencySweep(const ExperimentOptions &opts,
                    const std::vector<double> &freqs_ghz)
{
    auto profiles = selectBenchmarks(opts);
    std::vector<GpuConfig> configs;
    for (double f : freqs_ghz) {
        GpuConfig cfg = GpuConfig::baseline();
        cfg.name = csprintf("%.1fGHz", f);
        cfg.coreClockMhz = f * 1000.0;
        configs.push_back(cfg);
    }
    auto speedups = speedupColumns(profiles, GpuConfig::baseline(),
                                   configs, opts.threads);
    return buildSpeedupTable(profiles, namesOf(configs), speedups,
                             "perf-normalized");
}

SeriesTable
fig12CostEffective(const ExperimentOptions &opts)
{
    auto profiles = selectBenchmarks(opts);
    std::vector<GpuConfig> configs{
        GpuConfig::costEffective16_48(), GpuConfig::costEffective16_68(),
        GpuConfig::costEffective32_52(), GpuConfig::hbm()};
    auto speedups = speedupColumns(profiles, GpuConfig::baseline(),
                                   configs, opts.threads);
    return buildSpeedupTable(profiles, namesOf(configs), speedups,
                             "speedup");
}

std::vector<GpuConfig>
mitigationConfigs()
{
    return {GpuConfig::baseline(), GpuConfig::l1Bypass(),
            GpuConfig::l2Sectored(), GpuConfig::l2Decoupled()};
}

/**
 * The paper's bandwidth-utilization comparison: the fraction of each
 * boundary's peak bandwidth in use under the baseline and under each
 * §VI mitigation. Columns are "<config>:<boundary>". Utilization --
 * not raw bytes -- is the comparable quantity: the byte totals at the
 * two icnt boundaries agree once drained, but the same bytes cross 15
 * core ports on one side and totalL2Banks bank ports on the other.
 */
SeriesTable
sec6BandwidthUtilization(const ExperimentOptions &opts)
{
    auto profiles = selectBenchmarks(opts);
    auto configs = mitigationConfigs();
    static const char *const levels[] = {"l1-icnt", "icnt-l2", "l2-dram"};

    SeriesTable t;
    std::vector<std::string> headers{"benchmark"};
    for (const auto &cfg : configs) {
        for (const char *lvl : levels) {
            t.colNames.push_back(cfg.name + ":" + lvl);
            headers.push_back(t.colNames.back());
        }
    }
    t.table = stats::TextTable(headers);

    const auto results = runConfigs(profiles, configs, opts.threads);

    std::vector<double> col_sums(t.colNames.size(), 0.0);
    for (std::size_t b = 0; b < profiles.size(); ++b) {
        t.rowNames.push_back(profiles[b].name());
        t.table.newRow().add(profiles[b].name());
        std::vector<double> row;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const SimResult &r = results[c][b];
            for (double v : {r.l1IcntUtil, r.icntL2Util, r.l2DramUtil}) {
                col_sums[row.size()] += v;
                row.push_back(v);
                t.table.addNum(v, 3);
            }
        }
        t.value.push_back(std::move(row));
    }
    t.rowNames.push_back("AVG");
    t.table.newRow().add("AVG");
    std::vector<double> avg_row;
    for (std::size_t c = 0; c < t.colNames.size(); ++c) {
        double v = profiles.empty()
                       ? 0.0
                       : col_sums[c] / double(profiles.size());
        avg_row.push_back(v);
        t.table.addNum(v, 3);
    }
    t.value.push_back(std::move(avg_row));
    return t;
}

SeriesTable
sec6MitigationSpeedups(const ExperimentOptions &opts)
{
    auto profiles = selectBenchmarks(opts);
    auto configs = mitigationConfigs();
    const GpuConfig base = configs.front();
    configs.erase(configs.begin());
    auto speedups = speedupColumns(profiles, base, configs, opts.threads);
    return buildSpeedupTable(profiles, namesOf(configs), speedups,
                             "speedup");
}

stats::TextTable
tab1BaselineConfig()
{
    GpuConfig c = GpuConfig::baseline();
    stats::TextTable t({"parameter", "value"});
    auto row = [&t](const std::string &k, const std::string &v) {
        t.newRow().add(k).add(v);
    };
    row("Cores", csprintf("%d SMs, GTO scheduler", c.numCores));
    row("Core clock", csprintf("%.0f MHz", c.coreClockMhz));
    row("Crossbar/L2 clock", csprintf("%.0f MHz", c.icntClockMhz));
    row("DRAM command clock", csprintf("%.0f MHz", c.dramClockMhz));
    row("Threads per SM", csprintf("%d", c.maxWarpsPerCore * 32));
    row("L1D",
        csprintf("%lluKB, %uB line, %u-way, write-evict, %u MSHR, "
                 "%u-entry miss queue",
                 static_cast<unsigned long long>(c.l1dSizeBytes / 1024),
                 c.lineBytes, c.l1dAssoc, c.l1dMshrEntries,
                 c.l1dMissQueue));
    row("Interconnect", csprintf("crossbar, %u+%uB flits",
                                 c.reqFlitBytes, c.replyFlitBytes));
    row("L2",
        csprintf("%lluKB, %u banks, %u-way, write-back, %u MSHR, "
                 "%u-entry miss queue, %uB port, %u-entry access queue",
                 static_cast<unsigned long long>(c.l2TotalSizeBytes /
                                                 1024),
                 c.totalL2Banks(), c.l2Assoc, c.l2MshrEntries,
                 c.l2MissQueue, c.l2PortBytes, c.l2AccessQueue));
    row("DRAM",
        csprintf("GDDR5, %u partitions, %u banks/chip, %uB/cycle bus, "
                 "%u-entry scheduler queue, FR-FCFS",
                 c.numPartitions, c.dramBanks, c.dramBusBytesPerCycle,
                 c.dramSchedQueue));
    row("DRAM timing",
        csprintf("CCD=%u RRD=%u RCD=%u RAS=%u RP=%u RC=%u CL=%u WL=%u "
                 "CDLR=%u WR=%u",
                 c.dramTiming.tCCD, c.dramTiming.tRRD, c.dramTiming.tRCD,
                 c.dramTiming.tRAS, c.dramTiming.tRP, c.dramTiming.tRC,
                 c.dramTiming.CL, c.dramTiming.WL, c.dramTiming.tCDLR,
                 c.dramTiming.tWR));
    return t;
}

stats::TextTable
tab3DesignSpace()
{
    GpuConfig b = GpuConfig::baseline();
    GpuConfig s = GpuConfig::scaledAll();
    GpuConfig ce = GpuConfig::costEffective16_48();

    stats::TextTable t({"parameter", "type", "baseline", "scaled(4x)",
                        "cost-effective"});
    auto row = [&t](const char *p, const char *ty, std::uint64_t bv,
                    std::uint64_t sv, std::uint64_t cv) {
        t.newRow().add(p).add(ty);
        t.addInt(static_cast<long long>(bv));
        t.addInt(static_cast<long long>(sv));
        t.addInt(static_cast<long long>(cv));
    };
    row("DRAM scheduler queue", "=", b.dramSchedQueue, s.dramSchedQueue,
        ce.dramSchedQueue);
    row("DRAM banks/chip", "=", b.dramBanks, s.dramBanks, ce.dramBanks);
    row("DRAM bus bytes/cycle", "+", b.dramBusBytesPerCycle,
        s.dramBusBytesPerCycle, ce.dramBusBytesPerCycle);
    row("L2 miss queue", "=", b.l2MissQueue, s.l2MissQueue,
        ce.l2MissQueue);
    row("L2 response queue", "=", b.l2RespQueue, s.l2RespQueue,
        ce.l2RespQueue);
    row("L2 MSHR", "=", b.l2MshrEntries, s.l2MshrEntries,
        ce.l2MshrEntries);
    row("L2 access queue", "=", b.l2AccessQueue, s.l2AccessQueue,
        ce.l2AccessQueue);
    row("L2 data port bytes", "+", b.l2PortBytes, s.l2PortBytes,
        ce.l2PortBytes);
    row("Request flit bytes", "+", b.reqFlitBytes, s.reqFlitBytes,
        ce.reqFlitBytes);
    row("Reply flit bytes", "+", b.replyFlitBytes, s.replyFlitBytes,
        ce.replyFlitBytes);
    row("L2 banks", "+", b.totalL2Banks(), s.totalL2Banks(),
        ce.totalL2Banks());
    row("L1 miss queue", "=", b.l1dMissQueue, s.l1dMissQueue,
        ce.l1dMissQueue);
    row("L1 MSHR", "=", b.l1dMshrEntries, s.l1dMshrEntries,
        ce.l1dMshrEntries);
    row("Memory pipeline width", "=", b.memPipelineWidth,
        s.memPipelineWidth, ce.memPipelineWidth);
    return t;
}

SeriesTable
sec7AreaOverhead()
{
    GpuConfig base = GpuConfig::baseline();
    std::vector<GpuConfig> configs{GpuConfig::costEffective16_48(),
                                   GpuConfig::costEffective16_68(),
                                   GpuConfig::costEffective32_52()};

    SeriesTable t;
    t.colNames = {"storageKB", "storage-mm2", "wire-mm2", "total-mm2",
                  "die-overhead%"};
    t.table = stats::TextTable({"config", "storageKB", "storage-mm2",
                                "wire-mm2", "total-mm2",
                                "die-overhead%"});
    for (const auto &cfg : configs) {
        AreaReport rep = AreaModel::delta(base, cfg);
        t.rowNames.push_back(cfg.name);
        t.value.push_back({rep.storageKB, rep.storageMm2, rep.wireDeltaMm2,
                           rep.totalMm2, rep.dieFraction * 100.0});
        t.table.newRow().add(cfg.name);
        t.table.addNum(rep.storageKB, 1);
        t.table.addNum(rep.storageMm2, 2);
        t.table.addNum(rep.wireDeltaMm2, 2);
        t.table.addNum(rep.totalMm2, 2);
        t.table.addNum(rep.dieFraction * 100.0, 2);
    }
    return t;
}

} // namespace bwsim::exp
