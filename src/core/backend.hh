/**
 * @file
 * ExecutionBackend: the pluggable seam between "which simulations do
 * the experiments need" and "how do they get executed". The seed's
 * hardwired thread pool is now one implementation (ThreadedBackend);
 * the memoizing SimCache front is another (CachingBackend); the
 * spool-directory work queue behind --backend=queue and --jobs=N is a
 * third (WorkQueueBackend, src/core/work_queue.hh).
 */

#ifndef BWSIM_CORE_BACKEND_HH
#define BWSIM_CORE_BACKEND_HH

#include <string>
#include <vector>

#include "core/dse.hh"

namespace bwsim
{

class SimCache;

/** Executes batches of simulations; results come back in spec order. */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /** Human-readable identity for logs and --exec-stats. */
    virtual std::string name() const = 0;

    /**
     * Run every spec; results in spec order. @p threads is advisory
     * (0 = hardware concurrency); backends without an in-process
     * thread pool ignore it.
     */
    virtual std::vector<SimResult>
    runAll(const std::vector<RunSpec> &specs, int threads = 0) = 0;
};

/**
 * The in-process thread pool (the seed's behaviour, extracted from
 * dse.cc). A per-call @p threads value wins over the constructor
 * default; both treat 0 as hardware concurrency.
 */
class ThreadedBackend : public ExecutionBackend
{
  public:
    explicit ThreadedBackend(int default_threads = 0)
        : defaultThreads(default_threads)
    {
    }

    std::string name() const override { return "threaded"; }

    std::vector<SimResult> runAll(const std::vector<RunSpec> &specs,
                                  int threads = 0) override;

  private:
    int defaultThreads;
};

/**
 * Memoizing front over a SimCache (in-memory tier plus whatever disk
 * tier the cache is configured with); misses go to the cache's
 * simulation backend. This is what the experiment framework runs
 * through.
 */
class CachingBackend : public ExecutionBackend
{
  public:
    explicit CachingBackend(SimCache &cache) : cache(cache) {}

    std::string name() const override { return "caching"; }

    std::vector<SimResult> runAll(const std::vector<RunSpec> &specs,
                                  int threads = 0) override;

  private:
    SimCache &cache;
};

} // namespace bwsim

#endif // BWSIM_CORE_BACKEND_HH
