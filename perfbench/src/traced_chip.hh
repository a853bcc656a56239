/**
 * @file
 * TracedChip: the benchmark's outside-in replica of bwsim::Gpu, built
 * only from the simulator's public parts (SmCore, makeMemSystem,
 * MultiClock, makeWorkloadCursor), with a steady_clock span around
 * every call it makes into a layer. It runs the same program as Gpu --
 * same domain order, affects map, skip hooks and burst loop -- which
 * the benchmark proves per workload by comparing its stats dump and
 * edge counts with a real Gpu's in both scheduler modes before any of
 * its timings count.
 *
 * From outside, L1 time cannot be split from the SM front-end (both
 * are inside SmCore::tick), nor a crossbar from an L2 bank (both are
 * inside MemSystem::icntTick).
 */

#ifndef PERFBENCH_TRACED_CHIP_HH
#define PERFBENCH_TRACED_CHIP_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "gpu/gpu_config.hh"
#include "mem/mem_fetch.hh"
#include "mem/mem_system.hh"
#include "sim/clock.hh"
#include "smcore/sm_core.hh"
#include "stats/stat.hh"
#include "workloads/workload_spec.hh"

namespace perfbench
{

/** Host nanoseconds (timer cost already subtracted) and call counts
 *  per layer entry point, summed over one or more simulations. */
struct LayerTimes
{
    double smcoreTickNs = 0;     ///< SmCore::tick
    double memDeliverNs = 0;     ///< MemSystem::deliverResponses
    double memAcceptNs = 0;      ///< MemSystem::acceptRequests
    double icntTickNs = 0;       ///< MemSystem::icntTick
    double dramTickNs = 0;       ///< MemSystem::dramTick
    double horizonNs = 0;        ///< all three horizon callbacks
    double skipNs = 0;           ///< all three skip callbacks
    double clockNs = 0;          ///< MultiClock stepping outside callbacks
    double loopNs = 0;           ///< done checks and the burst loop
    std::uint64_t coreTicks = 0; ///< SmCore::tick calls
    std::uint64_t icntTicks = 0;
    std::uint64_t dramTicks = 0;
    std::uint64_t spans = 0;     ///< timer spans taken

    void add(const LayerTimes &o);
    /** Every attributed nanosecond. */
    double totalNs() const;
};

/** Cost of one span's timer reads (ns), measured once per process. */
double timerOverheadNs();

class TracedChip : public bwsim::WorkSource
{
  public:
    TracedChip(const bwsim::GpuConfig &config,
               const bwsim::WorkloadSpec &workload);
    ~TracedChip() override;

    TracedChip(const TracedChip &) = delete;
    TracedChip &operator=(const TracedChip &) = delete;

    /** Run to completion or the cycle cap, as Gpu::run() does, in the
     *  process-wide scheduler mode. */
    void run();

    bool hasWork() const override { return ctasRemaining > 0; }
    bwsim::CtaWork takeCta(int core_id) override;

    void dumpStats(std::ostream &os) const { statsRoot.dump(os); }
    const LayerTimes &times() const { return lt; }
    std::uint64_t tickedEdges() const { return clocks.tickedEdges(); }
    std::uint64_t skippedEdges() const { return clocks.skippedEdges(); }

  private:
    bool allWorkDone() const;
    void coreTick();
    std::uint64_t coreQuiesceHorizon();
    void coreSkip(std::uint64_t n);

    bwsim::GpuConfig cfg;
    bwsim::WorkloadSpec spec;
    bwsim::BenchmarkProfile prof;
    bwsim::MemFetchAllocator alloc;

    bwsim::MultiClock clocks;
    std::size_t coreDomain = 0, icntDomain = 0, dramDomain = 0;
    std::uint64_t coreCycleCount = 0;
    int lastCoreVeto = 0;

    bwsim::stats::Group statsRoot{"gpu"};
    std::vector<std::unique_ptr<bwsim::SmCore>> cores;
    std::unique_ptr<bwsim::MemSystem> memSys;

    int ctasRemaining = 0;
    std::uint64_t ctaSeq = 0;

    LayerTimes lt;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_CHIP_HH
