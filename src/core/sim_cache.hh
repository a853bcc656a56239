/**
 * @file
 * SimCache: memoizes (WorkloadSpec, GpuConfig) -> SimResult so a
 * driver invocation that builds several figures simulates each unique
 * pair exactly once. Simulations are deterministic (fixed RNG seeds),
 * so a cached result is bit-identical to a fresh run.
 *
 * Two tiers: the in-memory map here, optionally backed by a
 * persistent DiskSimCache (attachDiskTier) keyed by the same
 * cacheKey() strings, so repeated driver invocations skip warm
 * simulations. Simulation itself is delegated to a pluggable ExecutionBackend
 * (default: the in-process ThreadedBackend).
 *
 * The process-wide instance behind the experiment framework is
 * global(); tests construct their own. Thread-safe: lookups and
 * inserts take a mutex, the simulations themselves run outside it on
 * the execution backend.
 */

#ifndef BWSIM_CORE_SIM_CACHE_HH
#define BWSIM_CORE_SIM_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/backend.hh"
#include "core/disk_cache.hh"
#include "core/dse.hh"

namespace bwsim
{

class SimCache
{
  public:
    /** The process-wide cache used by src/core/experiments.cc. */
    static SimCache &global();

    /** Run (or recall) a single simulation. */
    SimResult run(const WorkloadSpec &workload, const GpuConfig &config);

    /**
     * Run every spec, recalling cached pairs (memory first, then the
     * disk tier) and simulating the rest with up to @p threads host
     * threads (0 = hardware concurrency). Duplicate specs within one
     * batch are simulated only once. Results are returned in spec
     * order.
     */
    std::vector<SimResult> runAll(const std::vector<RunSpec> &specs,
                                  int threads = 0);

    /**
     * Attach the persistent tier rooted at @p dir (created if
     * missing); an empty @p dir detaches. Re-attaching the same
     * directory is a no-op so counters survive repeated
     * configuration.
     */
    void attachDiskTier(const std::string &dir);

    /** The attached disk tier; null when memory-only. Shared
     *  ownership: the tier stays valid even if another thread
     *  re-attaches a different directory. */
    std::shared_ptr<const DiskSimCache> diskTier() const;

    /**
     * Replace the simulation backend (null restores the default
     * per-call ThreadedBackend). The backend only sees cache misses.
     */
    void setSimulationBackend(std::shared_ptr<ExecutionBackend> backend);

    /**
     * Drop every cached in-memory result and zero the counters. The
     * disk tier (and its files) survives: clearing models a fresh
     * driver invocation over a warm cache directory.
     */
    void clear();

    /** @name Counters (tests assert baseline runs exactly once) */
    /**@{*/
    /** In-memory tier hits. */
    std::uint64_t hits() const;
    /** Number of simulations actually executed ( == misses that were
     *  not on disk). */
    std::uint64_t simsRun() const;
    /** Results recalled from the disk tier. */
    std::uint64_t diskHits() const;
    /** Results persisted to the disk tier. */
    std::uint64_t diskStores() const;
    std::size_t size() const;
    /**@}*/

  private:
    static std::string keyOf(const WorkloadSpec &workload,
                             const GpuConfig &config);

    /** Run misses on the configured backend (default: threaded). */
    std::vector<SimResult>
    simulate(const std::shared_ptr<ExecutionBackend> &backend,
             const std::vector<RunSpec> &specs, int threads);

    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::string, SimResult> results;
    /** Keys claimed by a runAll() in progress; concurrent callers
     *  wait for the result instead of re-simulating. */
    std::unordered_set<std::string> inFlight;
    /** Shared so in-flight runAll() calls that snapshotted the tier
     *  survive a concurrent attachDiskTier(). */
    std::shared_ptr<DiskSimCache> disk;
    std::shared_ptr<ExecutionBackend> simBackend;
    std::uint64_t hitCount = 0;
    std::uint64_t runCount = 0;
    std::uint64_t diskHitCount = 0;
    std::uint64_t diskStoreCount = 0;
};

} // namespace bwsim

#endif // BWSIM_CORE_SIM_CACHE_HH
