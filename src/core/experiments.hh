/**
 * @file
 * The experiment registry: one function per table/figure of the paper.
 * Each returns a SeriesTable -- a printable TextTable plus the raw
 * numeric grid -- so the bwsim driver prints it and tests assert on
 * it. `bwsim --list` prints the index (the registry in src/cli/cli.cc).
 */

#ifndef BWSIM_CORE_EXPERIMENTS_HH
#define BWSIM_CORE_EXPERIMENTS_HH

#include <memory>
#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/dse.hh"
#include "stats/table.hh"

namespace bwsim::exp
{

/** How SeriesTable grids are rendered (the CLI's --format=). */
enum class TableFormat
{
    Text, ///< aligned human-readable columns (default)
    Csv,  ///< comma-separated, quoted as needed
    Tsv,  ///< tab-separated
    Json, ///< one single-line JSON object per table (JSON Lines)
};

/** Parse "text" / "csv" / "tsv" / "json"; false on anything else. */
bool parseTableFormat(const std::string &s, TableFormat &out);

/** Common knobs for every experiment driver. */
struct ExperimentOptions
{
    /** Benchmarks to include: paper abbreviations or generator forms
     *  ("pchase[:REGION[:INSTS]]", "stride[:STRIDE[:REGION]]");
     *  empty = all 19 synthetic benchmarks. */
    std::vector<std::string> benchmarks;
    /** Trace file to run (text "type addr" or packed binary); when
     *  set and benchmarks is empty, only the trace runs. */
    std::string tracePath;
    /** Host threads for the parallel runner (0 = hardware; negative
     *  values are rejected by the CLI and fromEnv()). */
    int threads = 0;
    /** Divide workload size by this factor (quick runs, tests). */
    int shrink = 1;
    /** Persistent SimCache tier directory; empty = memory only. */
    std::string cacheDir;
    /** Local fan-out (CLI only): fork this many work-queue workers
     *  over a scratch spool, one simulation each at a time; threads
     *  does not apply to them. */
    int jobs = 1;
    /** How cache misses execute: "threads" (in-process pool) or
     *  "queue" (spool-dir work queue drained by bwsim --worker
     *  processes). */
    std::string backend = "threads";
    /** Work-queue spool directory (backend == "queue"). */
    std::string spoolDir;
    /** Claimed-but-abandoned jobs are reclaimed after this long. */
    int jobTimeoutSec = 300;
    /** Table rendering for the CLI emitters. */
    TableFormat format = TableFormat::Text;

    /**
     * Read BWSIM_BENCHES / BWSIM_THREADS / BWSIM_SHRINK /
     * BWSIM_CACHE_DIR / BWSIM_SPOOL_DIR. Malformed integers and a
     * negative thread count are rejected with the same strict fatal()
     * the CLI flags use, never silently defaulted.
     */
    static ExperimentOptions fromEnv();
};

/** Split a comma-separated list, trimming surrounding whitespace and
 *  dropping empty items (benchmark subsets from BWSIM_BENCHES or the
 *  CLI's --benches=). */
std::vector<std::string> splitCsv(const std::string &s);

/** Strict base-10 integer parse ("42", "-7"); false on empty input,
 *  trailing garbage, or overflow. Shared by the CLI flags and the
 *  BWSIM_* environment variables. */
bool parseInt(const std::string &s, int &out);

/** A printable table plus its numeric payload. */
struct SeriesTable
{
    stats::TextTable table = stats::TextTable({"empty"});
    std::vector<std::string> rowNames; ///< usually benchmarks (+ AVG)
    std::vector<std::string> colNames; ///< configs or metrics
    /** value[row][col]; the AVG row, when present, is the last row. */
    std::vector<std::vector<double>> value;

    double
    at(const std::string &row, const std::string &col) const;
};

/** Resolve the workload subset of @p opts: suite benchmarks (with
 *  shrink applied), generator forms, and the --trace file. */
std::vector<WorkloadSpec>
selectBenchmarks(const ExperimentOptions &opts);

/**
 * The process-wide execution backend every experiment runs its
 * simulations through. Defaults to a CachingBackend over
 * SimCache::global(); replaceable for tests or alternative execution
 * strategies.
 */
ExecutionBackend &executionBackend();

/** Swap the process-wide backend; null restores the default. */
void setExecutionBackend(std::unique_ptr<ExecutionBackend> backend);

/**
 * Apply the execution-related knobs of @p opts to the process-wide
 * SimCache: attach/detach the on-disk tier (opts.cacheDir) and pick
 * the simulation backend (opts.backend / opts.spoolDir). Idempotent;
 * called by the CLI before running each batch of experiments.
 */
void configureExecution(const ExperimentOptions &opts);

/** One baseline run per benchmark; reused by several figures. */
std::vector<SimResult> baselineResults(const ExperimentOptions &opts);

/** @name Figures and tables built from baseline runs */
/**@{*/
SeriesTable fig1StallsAndLatencies(const std::vector<SimResult> &base);
SeriesTable fig4L2QueueOccupancy(const std::vector<SimResult> &base);
SeriesTable fig5DramQueueOccupancy(const std::vector<SimResult> &base);
SeriesTable fig7IssueStallDistribution(const std::vector<SimResult> &base);
SeriesTable fig8L2StallDistribution(const std::vector<SimResult> &base);
SeriesTable fig9L1StallDistribution(const std::vector<SimResult> &base);
SeriesTable sec4DramEfficiency(const std::vector<SimResult> &base);
/**@}*/

/** @name Multi-config experiments (run their own simulations) */
/**@{*/
/** Table II: P-inf and P_DRAM speedups over baseline. */
SeriesTable tab2SpeedupBounds(const ExperimentOptions &opts);
/** Fig. 3: IPC (normalized) vs. fixed L1 miss latency. */
SeriesTable fig3LatencySweep(const ExperimentOptions &opts,
                             const std::vector<std::uint32_t> &latencies);
/** Default Fig. 3 sweep points (0..800 step 100 plus 50). */
std::vector<std::uint32_t> fig3DefaultLatencies();
/** Default Fig. 3 benchmark subset (the paper's eight). */
std::vector<std::string> fig3DefaultBenchmarks();
/** Fig. 10: 4x scaling of L1 / L2 / DRAM / L1+L2 / L2+DRAM / All. */
SeriesTable fig10DseScaling(const ExperimentOptions &opts);
/** Fig. 11: core-frequency sweep (simulated stand-in for the paper's
 *  real-GPU experiment); values are runtime-based speedups vs 1.4GHz. */
SeriesTable fig11FrequencySweep(const ExperimentOptions &opts,
                                const std::vector<double> &freqs_ghz);
std::vector<double> fig11DefaultFrequencies();
std::vector<std::string> fig11DefaultBenchmarks();
/** Fig. 12: cost-effective configs 16+48 / 16+68 / 32+52 vs HBM. */
SeriesTable fig12CostEffective(const ExperimentOptions &opts);
/** The §VI hierarchy-variant configs: baseline, then L1-bypass,
 *  L2-sectored and L2-decoupled. */
std::vector<GpuConfig> mitigationConfigs();
/** §VI: per-level bandwidth (bytes/cycle at L1<->icnt, icnt<->L2 and
 *  L2<->DRAM) for baseline vs. each mitigation preset. */
SeriesTable sec6BandwidthUtilization(const ExperimentOptions &opts);
/** §VI: speedup of each mitigation preset over baseline. */
SeriesTable sec6MitigationSpeedups(const ExperimentOptions &opts);
/**@}*/

/** @name Static tables (no simulation) */
/**@{*/
/** Table I: baseline configuration dump. */
stats::TextTable tab1BaselineConfig();
/** Table III: design-space summary (baseline / scaled / cost-eff). */
stats::TextTable tab3DesignSpace();
/** §VII overhead: area of the cost-effective configurations. */
SeriesTable sec7AreaOverhead();
/**@}*/

} // namespace bwsim::exp

#endif // BWSIM_CORE_EXPERIMENTS_HH
