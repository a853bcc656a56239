/**
 * @file
 * The benchmark's workloads. Each one makes its inputs from the seed,
 * runs whole cold passes through the simulator's public API, and
 * checks its own outputs. Why each workload exists is in
 * perfbench/README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dse.hh"
#include "gpu/sim_result.hh"
#include "metrics.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The seed at which pchase-ladder runs its base chain lengths. Other
 *  seeds lengthen the chains and change the trace-writemix records. */
constexpr std::uint64_t kDefaultSeed = 1;

/** One set-up: everything before the first simulated cycle. */
struct SetupTimes
{
    double totalS = 0;
    double constructS = 0; ///< Gpu constructions
    double traceLoadS = 0; ///< loadTraceFile
};

/** One cold pass over every simulation of a workload. */
struct PassStats
{
    double wallS = 0;
    /** Host seconds of each step of the pass, always in the same
     *  order; wallS also counts what runs between them. A step is one
     *  probe of pchase-ladder, or one trace load or one trace
     *  simulation of trace-writemix. */
    std::vector<double> stepS;
    std::vector<bwsim::SimResult> results;
    /** Per-simulation host seconds (filled when asked for). */
    std::vector<double> simSeconds;
    /** SimCache counters (pchase-ladder); trace-writemix runs every
     *  simulation directly, so simsRun is the simulation count. */
    std::uint64_t simsRun = 0;
    std::uint64_t cacheHits = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * How much more this workload's host time stretches than the
     * reference kernel's (reference.hh) on a contended host: its time
     * goes as the kernel's to this power. Measured as the slope of log
     * median pass time on log median kernel time over twenty 50 s runs
     * of the workload, rounded to one decimal.
     */
    virtual double elasticity() const = 0;

    /** One set-up: load and validate inputs, build configs, construct
     *  (and drop) each Gpu the workload runs. */
    virtual SetupTimes setup() const = 0;

    /**
     * One cold pass. Records every simulation, and every
     * workload-level output check, as one attempt in @p tally.
     * @p time_sims fills PassStats::simSeconds. @p at_step, if set,
     * is called outside the timed spans before each step and once
     * after the last.
     */
    virtual PassStats pass(Tally &tally, bool time_sims,
                           const std::function<void()> &at_step = {})
        const = 0;

    /** The simulations of a pass, in the order a pass runs them one
     *  after another, with inputs already loaded. */
    virtual std::vector<bwsim::RunSpec> runSpecs() const = 0;
};

/** Build workload @p name with inputs made from @p seed (scratch
 *  files go under @p scratch_dir); null with @p err on a bad name or
 *  an input that cannot be written. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &scratch_dir,
                                       std::string &err);

/** The workload names, for usage messages. */
const std::vector<std::string> &workloadNames();

/** Per-simulation checks shared by every workload: not capped, and
 *  the L1->icnt and icnt->L2 byte totals agree once drained. */
void checkSim(const bwsim::SimResult &r, const std::string &wl,
              Tally &tally);

/** fnv1a64 over the serialized results: changes iff simulated output
 *  changes. */
std::uint64_t simDigest(const std::vector<bwsim::SimResult> &results);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
