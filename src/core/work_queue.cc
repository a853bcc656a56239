#include "core/work_queue.hh"

#include <chrono>
#include <filesystem>
#include <system_error>
#include <thread>

#include "common/atomic_file.hh"
#include "common/log.hh"
#include "core/sim_cache.hh"
#include "gpu/gpu_config.hh"
#include "workloads/workload_spec.hh"

namespace fs = std::filesystem;

namespace bwsim
{

namespace
{

constexpr std::uint32_t kJobMagic = workQueueJobMagic;
constexpr std::uint32_t kReplyMagic = workQueueReplyMagic;

/** A key re-dispatched this often is systematically corrupt (e.g. a
 *  worker build with a different key scheme), not a transient fault. */
constexpr int kMaxRedispatches = 10;

fs::path
jobsDir(const std::string &spool)
{
    return fs::path(spool) / "jobs";
}

fs::path
claimedDir(const std::string &spool)
{
    return fs::path(spool) / "claimed";
}

fs::path
repliesDir(const std::string &spool)
{
    return fs::path(spool) / "replies";
}

void
ensureSpoolDirs(const std::string &spool)
{
    for (const fs::path &d :
         {jobsDir(spool), claimedDir(spool), repliesDir(spool)}) {
        std::error_code ec;
        fs::create_directories(d, ec);
        if (ec || !fs::is_directory(d))
            fatal("spool dir '%s' cannot be created: %s",
                  d.string().c_str(), ec.message().c_str());
    }
}

double
fileAgeSeconds(const fs::path &path, std::error_code &ec)
{
    const auto mtime = fs::last_write_time(path, ec);
    if (ec)
        return 0.0;
    const auto age = fs::file_time_type::clock::now() - mtime;
    return std::chrono::duration<double>(age).count();
}

void
sleepSeconds(double s)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

} // anonymous namespace

std::string
workKeyOf(const RunSpec &spec)
{
    // Must match SimCache's internal keying so a spool shared with a
    // cache directory dedupes on the same identity.
    return spec.workload.cacheKey() + '\n' + spec.config.cacheKey();
}

std::string
jobFileNameFor(const std::string &key)
{
    return csprintf("jb-%016llx.job",
                    static_cast<unsigned long long>(fnv1a64(key)));
}

std::string
replyFileNameFor(const std::string &key)
{
    return csprintf("jb-%016llx.reply",
                    static_cast<unsigned long long>(fnv1a64(key)));
}

std::string
encodeJob(const RunSpec &spec)
{
    ByteWriter p;
    p.u32(workloadSerdesVersion);
    p.u32(gpuConfigSerdesVersion);
    p.u32(static_cast<std::uint32_t>(sizeof(WorkloadSpec)));
    p.u32(static_cast<std::uint32_t>(sizeof(GpuConfig)));
    p.str(workKeyOf(spec));
    serializeWorkload(p, spec.workload);
    serializeConfig(p, spec.config);
    return frameBlob(kJobMagic, workQueueFormatVersion, p.bytes());
}

bool
decodeJob(const std::string &bytes, RunSpec &out, std::string *why)
{
    std::string payload;
    if (!unframeBlob(kJobMagic, workQueueFormatVersion, bytes,
                     payload)) {
        if (why)
            *why = "corrupt or truncated envelope";
        return false;
    }
    // The checksum validated, so from here every mismatch is a
    // *consistent* difference between the writing and reading builds,
    // not bit-rot -- worth telling the operator apart.
    ByteReader r(payload);
    const std::uint32_t workload_v = r.u32();
    const std::uint32_t config_v = r.u32();
    const std::uint32_t workload_sz = r.u32();
    const std::uint32_t config_sz = r.u32();
    if (workload_v != workloadSerdesVersion ||
        config_v != gpuConfigSerdesVersion ||
        workload_sz != static_cast<std::uint32_t>(
                           sizeof(WorkloadSpec)) ||
        config_sz != static_cast<std::uint32_t>(sizeof(GpuConfig))) {
        if (why)
            *why = csprintf(
                "layout mismatch: job has workload/config serdes "
                "v%u/v%u sizes %u/%u, this build expects v%u/v%u "
                "sizes %u/%u (mixed bwsim builds or ABIs sharing "
                "one spool?)",
                workload_v, config_v, workload_sz, config_sz,
                workloadSerdesVersion, gpuConfigSerdesVersion,
                static_cast<std::uint32_t>(sizeof(WorkloadSpec)),
                static_cast<std::uint32_t>(sizeof(GpuConfig)));
        return false;
    }
    const std::string key = r.str();
    if (!r.ok() || !deserializeWorkload(r, out.workload) ||
        !deserializeConfig(r, out.config) || r.remaining() != 0) {
        if (why)
            *why = "payload does not decode";
        return false;
    }
    // The embedded key guards decode garbage and key-scheme drift
    // between parent and worker builds.
    if (workKeyOf(out) != key) {
        if (why)
            *why = "embedded key does not match the decoded pair "
                   "(cache-key scheme drift between builds?)";
        return false;
    }
    return true;
}

std::string
encodeReply(const std::string &key, const SimResult &r)
{
    ByteWriter p;
    p.u32(simResultSerdesVersion);
    p.u32(static_cast<std::uint32_t>(sizeof(SimResult)));
    p.str(key);
    serializeResult(p, r);
    return frameBlob(kReplyMagic, workQueueFormatVersion, p.bytes());
}

bool
decodeReply(const std::string &bytes, std::string &key_out,
            SimResult &out)
{
    std::string payload;
    if (!unframeBlob(kReplyMagic, workQueueFormatVersion, bytes, payload))
        return false;
    ByteReader r(payload);
    if (r.u32() != simResultSerdesVersion ||
        r.u32() != static_cast<std::uint32_t>(sizeof(SimResult)))
        return false;
    std::string key = r.str();
    if (!r.ok() || !deserializeResult(r, out) || r.remaining() != 0)
        return false;
    key_out = std::move(key);
    return true;
}

ClaimHeartbeat::ClaimHeartbeat(std::string path_, double interval_sec)
    : path(std::move(path_)), intervalSec(interval_sec)
{
    if (intervalSec <= 0)
        return;
    thread = std::thread([this] {
        std::unique_lock<std::mutex> lock(mtx);
        for (;;) {
            if (cv.wait_for(lock,
                            std::chrono::duration<double>(intervalSec),
                            [this] { return stopping; }))
                return;
            std::error_code ec;
            fs::last_write_time(path, fs::file_time_type::clock::now(),
                                ec);
            if (!ec)
                ++beatCount;
        }
    });
}

ClaimHeartbeat::~ClaimHeartbeat()
{
    if (!thread.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    cv.notify_all();
    thread.join();
}

std::uint64_t
ClaimHeartbeat::beats() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return beatCount;
}

WorkQueue::WorkQueue(WorkQueueConfig cfg_) : cfg(std::move(cfg_))
{
    ensureSpoolDirs(cfg.spoolDir);
}

void
WorkQueue::publishJob(const std::string &key, const RunSpec &spec)
{
    const fs::path path = jobsDir(cfg.spoolDir) / jobFileNameFor(key);
    if (!atomicWriteFile(path, encodeJob(spec)))
        fatal("spool '%s': cannot publish job '%s'",
              cfg.spoolDir.c_str(), path.filename().string().c_str());
}

void
WorkQueue::dispatch(const std::vector<RunSpec> &specs)
{
    for (const RunSpec &spec : specs) {
        const std::string key = workKeyOf(spec);
        if (resolved.count(key) || pending.count(key))
            continue;
        pending.emplace(key, spec);
        // A reply, claim, or job file already in the spool (a worker
        // beat us to it, or a previous parent dispatched the same
        // pair) makes publishing redundant; poll() picks it up.
        std::error_code ec;
        const std::string job = jobFileNameFor(key);
        if (fs::exists(repliesDir(cfg.spoolDir) / replyFileNameFor(key),
                       ec) ||
            fs::exists(claimedDir(cfg.spoolDir) / job, ec) ||
            fs::exists(jobsDir(cfg.spoolDir) / job, ec))
            continue;
        publishJob(key, spec);
    }
}

std::size_t
WorkQueue::poll()
{
    std::size_t newly_resolved = 0;
    std::vector<std::string> done_keys;

    // 1. Consume replies for pending keys.
    for (const auto &[key, spec] : pending) {
        const fs::path reply_path =
            repliesDir(cfg.spoolDir) / replyFileNameFor(key);
        std::string bytes;
        if (!readFileBytes(reply_path, bytes))
            continue;
        std::string reply_key;
        SimResult result;
        std::error_code ec;
        if (!decodeReply(bytes, reply_key, result) || reply_key != key) {
            ++corruptReplyCount;
            warn("spool '%s': discarding corrupt reply '%s'",
                 cfg.spoolDir.c_str(),
                 reply_path.filename().string().c_str());
            fs::remove(reply_path, ec);
            if (++redispatches[key] > kMaxRedispatches)
                fatal("spool '%s': job '%s' re-dispatched %d times "
                      "without a valid reply; giving up",
                      cfg.spoolDir.c_str(),
                      jobFileNameFor(key).c_str(), kMaxRedispatches);
            ++redispatchCount;
            publishJob(key, spec);
            continue;
        }
        resolved.emplace(key, std::move(result));
        ++replyCount;
        ++newly_resolved;
        done_keys.push_back(key);
        // Clean up: the reply, plus any job/claim leftover from a
        // reclaim race (the late worker still replied -- results are
        // deterministic, so whichever reply lands is correct).
        fs::remove(reply_path, ec);
        fs::remove(jobsDir(cfg.spoolDir) / jobFileNameFor(key), ec);
        fs::remove(claimedDir(cfg.spoolDir) / jobFileNameFor(key), ec);
    }
    for (const std::string &key : done_keys)
        pending.erase(key);

    // 2. Reclaim abandoned claims and re-publish vanished jobs, but
    // only for this sweep's keys: the spool may be serving other
    // parents concurrently.
    for (const auto &[key, spec] : pending) {
        const std::string job = jobFileNameFor(key);
        const fs::path claimed_path = claimedDir(cfg.spoolDir) / job;
        const fs::path job_path = jobsDir(cfg.spoolDir) / job;
        std::error_code ec;
        if (fs::exists(claimed_path, ec)) {
            if (fileAgeSeconds(claimed_path, ec) <= cfg.jobTimeoutSec ||
                ec)
                continue;
            // rename() is atomic even against the claim owner waking
            // up: either we move it back whole or the worker's own
            // cleanup already removed it.
            fs::rename(claimed_path, job_path, ec);
            if (!ec) {
                ++reclaimCount;
                warn("spool '%s': reclaimed job '%s' (claim older "
                     "than %.0fs; worker crash?)",
                     cfg.spoolDir.c_str(), job.c_str(),
                     cfg.jobTimeoutSec);
            }
            continue;
        }
        if (!fs::exists(job_path, ec) && !ec) {
            // Not in jobs/ -- but a worker may have claimed it (or
            // claimed, finished, and replied) between our claimed-
            // and jobs-directory checks. A new claim can only appear
            // while the job file exists, so re-checking claimed/ and
            // replies/ after seeing jobs/ empty closes that race;
            // only a pair absent everywhere was really lost (worker
            // discarded a corrupt job, or crashed mid-claim-rename).
            if (fs::exists(claimed_path, ec) ||
                fs::exists(repliesDir(cfg.spoolDir) /
                               replyFileNameFor(key),
                           ec))
                continue;
            if (++redispatches[key] > kMaxRedispatches)
                fatal("spool '%s': job '%s' vanished %d times without "
                      "a reply; giving up",
                      cfg.spoolDir.c_str(), job.c_str(),
                      kMaxRedispatches);
            ++redispatchCount;
            publishJob(key, spec);
        }
    }
    return newly_resolved;
}

bool
WorkQueue::done() const
{
    return pending.empty();
}

std::vector<SimResult>
WorkQueue::results(const std::vector<RunSpec> &specs) const
{
    std::vector<SimResult> out;
    out.reserve(specs.size());
    for (const RunSpec &spec : specs) {
        auto it = resolved.find(workKeyOf(spec));
        if (it == resolved.end())
            fatal("work queue: no result for '%s' / '%s' (results() "
                  "before done()?)",
                  spec.workload.name().c_str(), spec.config.name.c_str());
        out.push_back(it->second);
    }
    return out;
}

std::vector<SimResult>
WorkQueueBackend::runAll(const std::vector<RunSpec> &specs, int threads)
{
    (void)threads; // parallelism = however many workers are draining
    if (specs.empty())
        return {};
    WorkQueue queue(cfg);
    queue.dispatch(specs);
    double waited = 0.0;
    while (!queue.done()) {
        if (queue.poll() > 0) {
            waited = 0.0;
        } else {
            idle(waited);
            sleepSeconds(cfg.pollIntervalSec);
            waited += cfg.pollIntervalSec;
        }
    }
    return queue.results(specs);
}

void
WorkQueueBackend::idle(double waited_sec)
{
    constexpr double kWarnAfterSec = 30.0;
    if (waited_sec <= kWarnAfterSec &&
        waited_sec + cfg.pollIntervalSec > kWarnAfterSec)
        warn("spool '%s': no replies for %.0fs; are any "
             "`bwsim --worker --spool-dir=%s` processes running?",
             cfg.spoolDir.c_str(), kWarnAfterSec, cfg.spoolDir.c_str());
}

bool
stopRequested(const std::string &spool_dir)
{
    std::error_code ec;
    return fs::exists(fs::path(spool_dir) / "stop", ec);
}

bool
workerProcessOneJob(const std::string &spool_dir, SimCache &cache,
                    WorkerStats *stats, double heartbeat_sec)
{
    ensureSpoolDirs(spool_dir);
    std::error_code ec;
    for (fs::directory_iterator it(jobsDir(spool_dir), ec), end;
         !ec && it != end; it.increment(ec)) {
        const fs::path job_path = it->path();
        const std::string name = job_path.filename().string();
        if (name.rfind("jb-", 0) != 0 ||
            job_path.extension() != ".job")
            continue;

        // The claim: exactly one worker's rename succeeds; everyone
        // else moves on to the next job file.
        const fs::path claimed_path = claimedDir(spool_dir) / name;
        std::error_code claim_ec;
        fs::rename(job_path, claimed_path, claim_ec);
        if (claim_ec)
            continue;
        // Stamp the claim time: rename preserves the dispatch mtime,
        // which may already be older than the job timeout.
        fs::last_write_time(claimed_path,
                            fs::file_time_type::clock::now(), claim_ec);
        if (claim_ec)
            warn("spool '%s': cannot stamp claim time on '%s': %s "
                 "(a stale dispatch mtime may let the parent reclaim "
                 "this job while it runs)",
                 spool_dir.c_str(), name.c_str(),
                 claim_ec.message().c_str());

        std::string bytes;
        RunSpec spec;
        std::string why = "unreadable (concurrently removed?)";
        if (!readFileBytes(claimed_path, bytes) ||
            !decodeJob(bytes, spec, &why)) {
            warn("spool '%s': discarding job '%s': %s",
                 spool_dir.c_str(), name.c_str(), why.c_str());
            if (stats)
                ++stats->corruptJobs;
            fs::remove(claimed_path, ec);
            return true;
        }

        const std::string key = workKeyOf(spec);
        const SimResult result = [&] {
            // Keep the claim visibly alive while the (possibly long)
            // simulation runs.
            ClaimHeartbeat heartbeat(claimed_path.string(),
                                     heartbeat_sec);
            return cache.run(spec.workload, spec.config);
        }();
        const fs::path reply_path =
            repliesDir(spool_dir) / replyFileNameFor(key);
        if (!atomicWriteFile(reply_path, encodeReply(key, result)))
            fatal("spool '%s': cannot publish reply '%s'",
                  spool_dir.c_str(),
                  reply_path.filename().string().c_str());
        // Reply first, then drop the claim: a crash in between leaves
        // both a reply and a claim, which the parent cleans up; the
        // reverse order could lose the job entirely.
        fs::remove(claimed_path, ec);
        if (stats)
            ++stats->jobsProcessed;
        return true;
    }
    return false;
}

WorkerStats
runWorker(const WorkQueueConfig &cfg, SimCache &cache)
{
    ensureSpoolDirs(cfg.spoolDir);
    WorkerStats stats;
    for (;;) {
        if (workerProcessOneJob(cfg.spoolDir, cache, &stats,
                                cfg.claimHeartbeatSec))
            continue;
        if (stopRequested(cfg.spoolDir))
            break;
        sleepSeconds(cfg.pollIntervalSec);
    }
    return stats;
}

} // namespace bwsim
