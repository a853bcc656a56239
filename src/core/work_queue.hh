/**
 * @file
 * Distributed work-queue execution: (workload, config) work units as
 * serialized job files in a shared spool directory, drained by any
 * number of `bwsim --worker` processes on any number of hosts that
 * share a filesystem, or by the workers `bwsim --jobs=N` forks over a
 * scratch spool.
 *
 * Spool layout (all files published via write-then-rename):
 *
 *   SPOOL/jobs/jb-<hex>.job      dispatched, unclaimed work units
 *   SPOOL/claimed/jb-<hex>.job   claimed by a worker; mtime is the
 *                                claim time (reclaimed by the parent
 *                                when older than the job timeout)
 *   SPOOL/replies/jb-<hex>.reply completed SimResults
 *   SPOOL/stop                   sentinel: workers drain the jobs
 *                                directory, then exit
 *
 * <hex> is fnv1a64 of the SimCache key (workload cacheKey + '\n' +
 * config cacheKey), so every participant derives the same file name
 * for the same pair. Trace jobs embed their records, so a worker
 * needs no access to the original trace file. Claims are atomic renames: exactly one worker's
 * rename(2) of a job into claimed/ succeeds, so no work unit ever
 * runs twice concurrently. Job and reply files are versioned and
 * checksummed like the on-disk SimCache header; a truncated or
 * bit-flipped file is discarded and the job re-dispatched, never
 * loaded as garbage.
 *
 * The parent side is WorkQueueBackend, an ExecutionBackend that the
 * CLI installs behind the global SimCache for --backend=queue and
 * --jobs=N: cache misses become job files, and the collected replies
 * merge into tables byte-identical to a single-process
 * --backend=threads run (simulations are deterministic and SimResult
 * serialization is bit-exact).
 */

#ifndef BWSIM_CORE_WORK_QUEUE_HH
#define BWSIM_CORE_WORK_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/backend.hh"
#include "core/dse.hh"

namespace bwsim
{

class SimCache;

/** Version of the job/reply envelope and payload layout below.
 *  v2: jobs carry a serialized WorkloadSpec (synthetic profile,
 *  embedded trace records, or generator parameters) instead of a
 *  bare BenchmarkProfile. */
constexpr std::uint32_t workQueueFormatVersion = 2;

/** Envelope magics ('BWSJ' / 'BWSR' little-endian); part of the wire
 *  format contract, exposed so tests can build tampered envelopes. */
constexpr std::uint32_t workQueueJobMagic = 0x4a535742;
constexpr std::uint32_t workQueueReplyMagic = 0x52535742;

/** Default claim-heartbeat period (seconds); see ClaimHeartbeat. */
constexpr double kDefaultClaimHeartbeatSec = 15.0;

/** Knobs shared by the parent session and the worker loop. */
struct WorkQueueConfig
{
    /** Spool directory (created, with subdirectories, on demand). */
    std::string spoolDir;
    /** A claimed job whose claim is older than this is assumed
     *  abandoned (worker crash) and reclaimed for re-dispatch. */
    double jobTimeoutSec = 300.0;
    /** Sleep between parent poll passes / idle worker scans. */
    double pollIntervalSec = 0.02;
    /** Workers touch their claim file this often while simulating, so
     *  a live long job is never mistaken for an abandoned one and
     *  --job-timeout no longer needs to out-wait the slowest
     *  simulation. <= 0 disables the heartbeat. */
    double claimHeartbeatSec = kDefaultClaimHeartbeatSec;
};

/**
 * RAII claim heartbeat: a background thread refreshes @p path's mtime
 * every @p interval_sec until destruction. The claim mtime is the
 * parent's only liveness signal for a job, so without a heartbeat the
 * job timeout must exceed the slowest simulation; with one it only
 * needs to exceed the heartbeat period. A vanished file (the claim
 * was reclaimed under us) is ignored -- the late reply is still
 * valid, and the parent resolves the race.
 */
class ClaimHeartbeat
{
  public:
    /** @p interval_sec <= 0 starts no thread (disabled). */
    ClaimHeartbeat(std::string path, double interval_sec);
    ~ClaimHeartbeat();

    ClaimHeartbeat(const ClaimHeartbeat &) = delete;
    ClaimHeartbeat &operator=(const ClaimHeartbeat &) = delete;

    /** Mtime refreshes performed so far (tests). */
    std::uint64_t beats() const;

  private:
    std::string path;
    double intervalSec;
    mutable std::mutex mtx;
    std::condition_variable cv;
    bool stopping = false;
    std::uint64_t beatCount = 0;
    std::thread thread;
};

/** @name Wire format (fuzz-tested in tests/test_fuzz_serdes.cc) */
/**@{*/
/** The SimCache key both sides derive file names from. */
std::string workKeyOf(const RunSpec &spec);
/** Job / reply file names for @p key: jb-<fnv1a64 hex>.job/.reply. */
std::string jobFileNameFor(const std::string &key);
std::string replyFileNameFor(const std::string &key);

/** Serialize one work unit (versioned, checksummed envelope). */
std::string encodeJob(const RunSpec &spec);
/**
 * Inverse of encodeJob(). False on truncation, corruption, another
 * format/layout version, or an embedded key that does not match the
 * decoded pair. @p why, when given, receives a human-readable
 * rejection reason -- in particular it distinguishes a
 * version/layout mismatch (mixed bwsim builds or ABIs sharing one
 * spool, a configuration error) from bit-rot.
 */
bool decodeJob(const std::string &bytes, RunSpec &out,
               std::string *why = nullptr);

/** Serialize one completed result under its job key. */
std::string encodeReply(const std::string &key, const SimResult &r);
/** Inverse of encodeReply(); same rejection guarantees as decodeJob. */
bool decodeReply(const std::string &bytes, std::string &key_out,
                 SimResult &out);
/**@}*/

/**
 * Parent side of one sweep: dispatches job files and collects
 * replies. Exposed separately from WorkQueueBackend so tests can
 * drive individual poll passes against a hand-crafted spool state.
 */
class WorkQueue
{
  public:
    /** Creates the spool directory tree; fatal() when impossible. */
    explicit WorkQueue(WorkQueueConfig cfg);

    const WorkQueueConfig &config() const { return cfg; }

    /**
     * Publish a job file for every not-yet-resolved unique key in
     * @p specs (pairs already resolved, in flight, or with a reply
     * waiting are not re-dispatched).
     */
    void dispatch(const std::vector<RunSpec> &specs);

    /**
     * One poll pass: consume valid replies, discard corrupt reply
     * files (their jobs are re-dispatched), reclaim claims older
     * than the job timeout, and re-publish pending jobs that
     * vanished without a reply. Returns the number of keys resolved
     * by this pass.
     */
    std::size_t poll();

    /** True once every dispatched key has a result. */
    bool done() const;

    /** Results for @p specs in spec order; fatal() on an unresolved
     *  key (call only after done()). */
    std::vector<SimResult>
    results(const std::vector<RunSpec> &specs) const;

    /** @name Counters (tests and logs) */
    /**@{*/
    std::uint64_t repliesConsumed() const { return replyCount; }
    std::uint64_t corruptReplies() const { return corruptReplyCount; }
    std::uint64_t reclaimedJobs() const { return reclaimCount; }
    std::uint64_t redispatchedJobs() const { return redispatchCount; }
    /**@}*/

  private:
    void publishJob(const std::string &key, const RunSpec &spec);

    WorkQueueConfig cfg;
    /** Unresolved keys -> their spec (for re-dispatch). */
    std::unordered_map<std::string, RunSpec> pending;
    std::unordered_map<std::string, SimResult> resolved;
    /** Per-key re-dispatch counter; a key that keeps coming back
     *  corrupt is a configuration error, not a transient fault. */
    std::unordered_map<std::string, int> redispatches;
    std::uint64_t replyCount = 0;
    std::uint64_t corruptReplyCount = 0;
    std::uint64_t reclaimCount = 0;
    std::uint64_t redispatchCount = 0;
};

/**
 * ExecutionBackend over a WorkQueue: runAll() dispatches every spec
 * and blocks polling until workers have replied to all of them.
 * @p threads is ignored -- parallelism is however many workers drain
 * the spool.
 */
class WorkQueueBackend : public ExecutionBackend
{
  public:
    explicit WorkQueueBackend(WorkQueueConfig cfg) : cfg(std::move(cfg))
    {
    }

    std::string name() const override { return "queue"; }

    std::vector<SimResult> runAll(const std::vector<RunSpec> &specs,
                                  int threads = 0) override;

  protected:
    /**
     * Called after every poll pass that resolved nothing, with the
     * seconds since the last reply. The default warns once a spool
     * has been silent for 30 s (are any workers running?); a backend
     * that supervises its own workers checks on them here instead
     * and throws to abandon a sweep they can no longer finish.
     */
    virtual void idle(double waited_sec);

  private:
    WorkQueueConfig cfg;
};

/** @name Worker side (bwsim --worker --spool-dir=DIR) */
/**@{*/
struct WorkerStats
{
    std::uint64_t jobsProcessed = 0;
    std::uint64_t corruptJobs = 0;
};

/** True once SPOOL/stop exists (drain-then-exit request). */
bool stopRequested(const std::string &spool_dir);

/**
 * Claim (atomic rename into claimed/) and run at most one job
 * through @p cache -- the two-tier SimCache, so warm pairs come from
 * memory or the shared cache directory instead of re-simulating --
 * then publish the reply. While the simulation runs, a ClaimHeartbeat
 * touches the claim file every @p heartbeat_sec so the parent's
 * stale-claim reclaim never fires on a live job. Returns true when a
 * job file was consumed (including a corrupt one, which is discarded
 * with a warning).
 */
bool workerProcessOneJob(const std::string &spool_dir, SimCache &cache,
                         WorkerStats *stats = nullptr,
                         double heartbeat_sec = kDefaultClaimHeartbeatSec);

/**
 * The worker loop: process jobs until the stop sentinel appears and
 * the jobs directory is drained, sleeping cfg.pollIntervalSec
 * between empty scans.
 */
WorkerStats runWorker(const WorkQueueConfig &cfg, SimCache &cache);
/**@}*/

} // namespace bwsim

#endif // BWSIM_CORE_WORK_QUEUE_HH
