#include "traced_chip.hh"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "sim/sim_speed.hh"

using namespace bwsim;

namespace perfbench
{

namespace
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Uncorrected span sums; run() subtracts the timer's own cost. */
struct RawSpans
{
    std::int64_t smcore = 0, deliver = 0, accept = 0;
    std::int64_t icnt = 0, dram = 0, horizon = 0, skip = 0;
    std::int64_t step = 0, run = 0;
    std::uint64_t coreCallbacks = 0, horizons = 0, skips = 0;
    std::uint64_t bursts = 0;
};

thread_local RawSpans *raw = nullptr;

} // anonymous namespace

void
LayerTimes::add(const LayerTimes &o)
{
    smcoreTickNs += o.smcoreTickNs;
    memDeliverNs += o.memDeliverNs;
    memAcceptNs += o.memAcceptNs;
    icntTickNs += o.icntTickNs;
    dramTickNs += o.dramTickNs;
    horizonNs += o.horizonNs;
    skipNs += o.skipNs;
    clockNs += o.clockNs;
    loopNs += o.loopNs;
    coreTicks += o.coreTicks;
    icntTicks += o.icntTicks;
    dramTicks += o.dramTicks;
    spans += o.spans;
}

double
LayerTimes::totalNs() const
{
    return smcoreTickNs + memDeliverNs + memAcceptNs + icntTickNs +
           dramTickNs + horizonNs + skipNs + clockNs + loopNs;
}

double
timerOverheadNs()
{
    static const double cost = [] {
        constexpr int n = 1'000'000;
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < n; ++i)
            (void)nowNs();
        return static_cast<double>(nowNs() - t0) / n;
    }();
    return cost;
}

TracedChip::TracedChip(const GpuConfig &config, const WorkloadSpec &workload)
    : cfg(config), spec(workload), prof(spec.profile)
{
    cfg.validate();
    ctasRemaining = prof.numCtas;

    for (int c = 0; c < cfg.numCores; ++c) {
        CoreParams cp = cfg.coreParams(c);
        cp.maxCtasResident = prof.maxCtasPerCore;
        cores.push_back(std::make_unique<SmCore>(cp, &alloc));
        cores.back()->setWorkSource(this);
        cores.back()->registerStats(statsRoot);
    }
    memSys = makeMemSystem(cfg, &alloc, statsRoot);

    // Same domain order, hooks and affects map as Gpu's constructor;
    // only the spans around each call are new.
    dramDomain = clocks.addDomain("dram", cfg.dramClockMhz, [this] {
        const std::int64_t t0 = nowNs();
        memSys->dramTick(clocks.nowPs());
        raw->dram += nowNs() - t0;
        ++lt.dramTicks;
    });
    icntDomain = clocks.addDomain("icnt", cfg.icntClockMhz, [this] {
        const std::int64_t t0 = nowNs();
        memSys->icntTick(clocks.nowPs());
        raw->icnt += nowNs() - t0;
        ++lt.icntTicks;
    });
    coreDomain = clocks.addDomain("core", cfg.coreClockMhz,
                                  [this] { coreTick(); });

    auto timed_horizon = [](auto fn) {
        return [fn] {
            const std::int64_t t0 = nowNs();
            const std::uint64_t h = fn();
            raw->horizon += nowNs() - t0;
            ++raw->horizons;
            return h;
        };
    };
    auto timed_skip = [](auto fn) {
        return [fn](std::uint64_t n) {
            const std::int64_t t0 = nowNs();
            fn(n);
            raw->skip += nowNs() - t0;
            ++raw->skips;
        };
    };
    clocks.domain(dramDomain)
        .setSkipHooks(timed_horizon([this] { return memSys->dramHorizon(); }),
                      timed_skip([this](std::uint64_t n) {
                          memSys->dramSkip(n);
                      }));
    clocks.domain(icntDomain)
        .setSkipHooks(timed_horizon([this] { return memSys->icntHorizon(); }),
                      timed_skip([this](std::uint64_t n) {
                          memSys->icntSkip(n);
                      }));
    clocks.domain(coreDomain)
        .setSkipHooks(timed_horizon([this] { return coreQuiesceHorizon(); }),
                      timed_skip([this](std::uint64_t n) { coreSkip(n); }));

    clocks.setAffects(coreDomain, {coreDomain, icntDomain});
    clocks.setAffects(icntDomain, {coreDomain, icntDomain, dramDomain});
    clocks.setAffects(dramDomain, {icntDomain, dramDomain});
}

TracedChip::~TracedChip() = default;

CtaWork
TracedChip::takeCta(int core_id)
{
    --ctasRemaining;
    const std::uint64_t seq = ctaSeq++;
    CtaWork work;
    work.numWarps = prof.warpsPerCta;
    const WorkloadSpec *workload = &spec;
    const std::uint32_t line = cfg.lineBytes;
    work.makeCursor = [workload, core_id, seq, line](int warp_in_cta) {
        return makeWorkloadCursor(*workload, core_id, seq, warp_in_cta,
                                  line);
    };
    return work;
}

void
TracedChip::coreTick()
{
    // Chained spans: each timer read closes one span and opens the
    // next, so the three layers tile the callback.
    std::int64_t t = nowNs();
    ++raw->coreCallbacks;
    ++coreCycleCount;
    const double now_ps = clocks.nowPs();
    for (int c = 0; c < cfg.numCores; ++c) {
        memSys->deliverResponses(c, *cores[c], now_ps, coreCycleCount);
        const std::int64_t t1 = nowNs();
        cores[c]->tick(now_ps);
        const std::int64_t t2 = nowNs();
        memSys->acceptRequests(c, *cores[c], now_ps, coreCycleCount);
        const std::int64_t t3 = nowNs();
        raw->deliver += t1 - t;
        raw->smcore += t2 - t1;
        raw->accept += t3 - t2;
        t = t3;
    }
    lt.coreTicks += static_cast<std::uint64_t>(cfg.numCores);
}

std::uint64_t
TracedChip::coreQuiesceHorizon()
{
    std::uint64_t h = kInfiniteHorizon;
    for (int i = 0; i < cfg.numCores; ++i) {
        int c = lastCoreVeto + i;
        if (c >= cfg.numCores)
            c -= cfg.numCores;
        const std::uint64_t ch = cores[c]->quiesceHorizon();
        if (ch == 0) {
            lastCoreVeto = c;
            return 0;
        }
        h = std::min(h, ch);
        if (cores[c]->hasOutgoing() && !memSys->requestPortBlocked(c)) {
            lastCoreVeto = c;
            return 0;
        }
        const std::uint64_t mh = memSys->coreHorizon(c, coreCycleCount);
        if (mh == 0) {
            lastCoreVeto = c;
            return 0;
        }
        h = std::min(h, mh);
    }
    return h;
}

void
TracedChip::coreSkip(std::uint64_t n)
{
    coreCycleCount += n;
    for (int c = 0; c < cfg.numCores; ++c)
        cores[c]->skipCycles(n);
}

bool
TracedChip::allWorkDone() const
{
    if (ctasRemaining > 0)
        return false;
    for (const auto &c : cores)
        if (!c->done())
            return false;
    if (alloc.outstanding() != 0)
        return false;
    return memSys->drained();
}

void
TracedChip::run()
{
    RawSpans spans;
    raw = &spans;
    const bool skip = schedulerMode() == SchedulerMode::Skip;
    const std::int64_t run0 = nowNs();
    while (!allWorkDone()) {
        if (coreCycleCount >= cfg.maxCoreCycles)
            break;
        const std::uint64_t target =
            std::min(coreCycleCount + 64, cfg.maxCoreCycles);
        const std::int64_t s0 = nowNs();
        if (skip) {
            clocks.runUntil(coreDomain, target);
        } else {
            while (coreCycleCount < target)
                clocks.step();
        }
        spans.step += nowNs() - s0;
        ++spans.bursts;
    }
    spans.run = nowNs() - run0;
    raw = nullptr;

    // Every timer read costs c ns. A span's raw length carries about
    // one read; an enclosing span also carries every read made inside
    // it, which is subtracted from the enclosing span only.
    const double c = timerOverheadNs();
    auto net = [](double v) { return std::max(0.0, v); };
    const double core_ticks = static_cast<double>(spans.coreCallbacks) *
                              static_cast<double>(cfg.numCores);
    lt.smcoreTickNs = net(double(spans.smcore) - c * core_ticks);
    lt.memDeliverNs = net(double(spans.deliver) - c * core_ticks);
    lt.memAcceptNs = net(double(spans.accept) - c * core_ticks);
    lt.icntTickNs = net(double(spans.icnt) - c * double(lt.icntTicks));
    lt.dramTickNs = net(double(spans.dram) - c * double(lt.dramTicks));
    lt.horizonNs = net(double(spans.horizon) - c * double(spans.horizons));
    lt.skipNs = net(double(spans.skip) - c * double(spans.skips));
    const double leaves = double(spans.smcore + spans.deliver +
                                 spans.accept + spans.icnt + spans.dram +
                                 spans.horizon + spans.skip);
    // Reads inside a step not charged to a leaf: the opening read of
    // each core callback, the closing read of every 2-read span and
    // the step's own pair.
    const double unowned_reads =
        double(spans.coreCallbacks + lt.icntTicks + lt.dramTicks +
               spans.horizons + spans.skips + spans.bursts);
    lt.clockNs = net(double(spans.step) - leaves - c * unowned_reads);
    lt.loopNs =
        net(double(spans.run - spans.step) - c * double(spans.bursts));
    lt.spans = static_cast<std::uint64_t>(core_ticks) * 3 + lt.icntTicks +
               lt.dramTicks + spans.horizons + spans.skips + spans.bursts;
}

} // namespace perfbench
