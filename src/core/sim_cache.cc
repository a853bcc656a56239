#include "core/sim_cache.hh"

namespace bwsim
{

SimCache &
SimCache::global()
{
    static SimCache cache;
    return cache;
}

std::string
SimCache::keyOf(const WorkloadSpec &workload, const GpuConfig &config)
{
    return workload.cacheKey() + '\n' + config.cacheKey();
}

SimResult
SimCache::run(const WorkloadSpec &workload, const GpuConfig &config)
{
    std::vector<RunSpec> spec{{workload, config}};
    return runAll(spec, 1).front();
}

void
SimCache::attachDiskTier(const std::string &dir)
{
    // Construct outside the lock: DiskSimCache creates the directory.
    std::shared_ptr<DiskSimCache> tier;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (dir.empty()) {
            disk.reset();
            return;
        }
        if (disk && disk->dir() == dir)
            return;
    }
    tier = std::make_shared<DiskSimCache>(dir);
    std::lock_guard<std::mutex> lock(mu);
    disk = std::move(tier);
}

std::shared_ptr<const DiskSimCache>
SimCache::diskTier() const
{
    std::lock_guard<std::mutex> lock(mu);
    return disk;
}

void
SimCache::setSimulationBackend(std::shared_ptr<ExecutionBackend> backend)
{
    std::lock_guard<std::mutex> lock(mu);
    simBackend = std::move(backend);
}

std::vector<SimResult>
SimCache::simulate(const std::shared_ptr<ExecutionBackend> &backend,
                   const std::vector<RunSpec> &specs, int threads)
{
    if (backend)
        return backend->runAll(specs, threads);
    ThreadedBackend threaded;
    return threaded.runAll(specs, threads);
}

std::vector<SimResult>
SimCache::runAll(const std::vector<RunSpec> &specs, int threads)
{
    std::vector<SimResult> out(specs.size());

    // Resolve memory hits, claim the distinct missing keys, and note
    // keys a concurrent runAll() already claimed (we wait for those
    // instead of re-simulating).
    std::vector<std::string> keys(specs.size());
    std::vector<std::size_t> pending; // spec indices resolved below
    std::vector<std::size_t> waiting; // spec indices another call runs
    std::unordered_map<std::string, std::size_t> first_miss;
    std::vector<RunSpec> claimed;       // specs whose keys we claimed
    std::vector<std::string> claim_keys; // their keys, same order
    std::shared_ptr<DiskSimCache> disk_tier;
    std::shared_ptr<ExecutionBackend> backend;
    {
        std::lock_guard<std::mutex> lock(mu);
        disk_tier = disk;
        backend = simBackend;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            keys[i] = keyOf(specs[i].workload, specs[i].config);
            auto it = results.find(keys[i]);
            if (it != results.end()) {
                out[i] = it->second;
                ++hitCount;
                continue;
            }
            if (first_miss.count(keys[i])) {
                pending.push_back(i);
                continue;
            }
            if (inFlight.count(keys[i])) {
                waiting.push_back(i);
                continue;
            }
            pending.push_back(i);
            first_miss.emplace(keys[i], claimed.size());
            inFlight.insert(keys[i]);
            claimed.push_back(specs[i]);
            claim_keys.push_back(keys[i]);
        }
    }

    if (!claimed.empty()) {
        // Resolve our claimed misses outside the lock: disk tier
        // first, then the execution backend.
        std::vector<SimResult> resolved(claimed.size());
        std::uint64_t disk_hits = 0, disk_stores = 0;
        std::vector<RunSpec> to_sim;
        std::vector<std::size_t> sim_idx;
        for (std::size_t r = 0; r < claimed.size(); ++r) {
            if (disk_tier && disk_tier->load(claim_keys[r], resolved[r])) {
                ++disk_hits;
                continue;
            }
            to_sim.push_back(claimed[r]);
            sim_idx.push_back(r);
        }

        if (!to_sim.empty()) {
            // On failure the claims must be released, or waiters in
            // concurrent runAll() calls would block forever.
            std::vector<SimResult> fresh;
            try {
                fresh = simulate(backend, to_sim, threads);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                for (const auto &k : claim_keys)
                    inFlight.erase(k);
                cv.notify_all();
                throw;
            }
            for (std::size_t j = 0; j < sim_idx.size(); ++j)
                resolved[sim_idx[j]] = fresh[j];
            if (disk_tier)
                for (std::size_t j = 0; j < sim_idx.size(); ++j)
                    if (disk_tier->store(claim_keys[sim_idx[j]], fresh[j]))
                        ++disk_stores;
        }

        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t r = 0; r < claimed.size(); ++r) {
            results.emplace(claim_keys[r], resolved[r]);
            inFlight.erase(claim_keys[r]);
        }
        runCount += to_sim.size();
        diskHitCount += disk_hits;
        diskStoreCount += disk_stores;
        for (std::size_t i : pending)
            out[i] = resolved[first_miss.at(keys[i])];
        cv.notify_all();
    }

    if (!waiting.empty()) {
        std::unique_lock<std::mutex> lock(mu);
        for (std::size_t i : waiting) {
            cv.wait(lock, [&] {
                return results.count(keys[i]) > 0 ||
                       inFlight.count(keys[i]) == 0;
            });
            auto it = results.find(keys[i]);
            if (it != results.end()) {
                out[i] = it->second;
                ++hitCount;
                continue;
            }
            // The producing call failed, or clear() dropped the result
            // before we woke: resolve it ourselves.
            inFlight.insert(keys[i]);
            lock.unlock();
            SimResult r;
            bool from_disk =
                disk_tier && disk_tier->load(keys[i], r);
            if (!from_disk) {
                try {
                    r = simulate(backend, {specs[i]}, 1).front();
                } catch (...) {
                    lock.lock();
                    inFlight.erase(keys[i]);
                    cv.notify_all();
                    throw;
                }
                if (disk_tier && disk_tier->store(keys[i], r)) {
                    lock.lock();
                    ++diskStoreCount;
                    lock.unlock();
                }
            }
            lock.lock();
            if (from_disk)
                ++diskHitCount;
            else
                ++runCount;
            results.emplace(keys[i], r);
            inFlight.erase(keys[i]);
            out[i] = r;
            cv.notify_all();
        }
    }
    return out;
}

void
SimCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    results.clear();
    hitCount = 0;
    runCount = 0;
    diskHitCount = 0;
    diskStoreCount = 0;
    // inFlight keys stay claimed by their active producers; wake
    // waiters so none sleeps through a result dropped before it woke.
    cv.notify_all();
}

std::uint64_t
SimCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu);
    return hitCount;
}

std::uint64_t
SimCache::simsRun() const
{
    std::lock_guard<std::mutex> lock(mu);
    return runCount;
}

std::uint64_t
SimCache::diskHits() const
{
    std::lock_guard<std::mutex> lock(mu);
    return diskHitCount;
}

std::uint64_t
SimCache::diskStores() const
{
    std::lock_guard<std::mutex> lock(mu);
    return diskStoreCount;
}

std::size_t
SimCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return results.size();
}

} // namespace bwsim
