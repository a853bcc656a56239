/**
 * @file
 * Binary serialization of SimResult for the on-disk SimCache tier and
 * work-queue reply files. Field order here *is* the format;
 * simResultSerdesVersion (sim_result.hh) must be bumped with it.
 */

#include "gpu/sim_result.hh"

namespace bwsim
{

#if defined(__GLIBCXX__) && defined(__x86_64__) && _GLIBCXX_USE_CXX11_ABI
// Trip-wire in the spirit of the GpuConfig/BenchmarkProfile cacheKey()
// guards: growing SimResult trips this assert, forcing the new field
// into serializeResult()/deserializeResult(), a simResultSerdesVersion
// bump, and an updated size here.
static_assert(sizeof(SimResult) == 512,
              "SimResult changed: update serializeResult()/"
              "deserializeResult(), bump simResultSerdesVersion, and "
              "update this size");
#endif

namespace
{

template <std::size_t N>
void
putArray(ByteWriter &w, const std::array<double, N> &a)
{
    w.u32(static_cast<std::uint32_t>(N));
    for (double v : a)
        w.f64(v);
}

template <std::size_t N>
bool
getArray(ByteReader &r, std::array<double, N> &a)
{
    if (r.u32() != N)
        return false;
    for (double &v : a)
        v = r.f64();
    return r.ok();
}

} // anonymous namespace

void
serializeResult(ByteWriter &w, const SimResult &r)
{
    w.str(r.benchmark);
    w.str(r.config);

    w.u64(r.coreCycles);
    w.f64(r.elapsedPs);
    w.u64(r.warpInstsIssued);
    w.u8(r.timedOut ? 1 : 0);
    w.f64(r.ipc);
    w.f64(r.perf);

    w.f64(r.issueStallFrac);
    w.f64(r.aml);
    w.f64(r.l2Ahl);

    putArray(w, r.issueStallDist);
    putArray(w, r.l2AccessQueueOcc);
    putArray(w, r.dramQueueOcc);
    putArray(w, r.l2StallDist);
    putArray(w, r.l1StallDist);

    w.f64(r.l1MissRate);
    w.f64(r.l2MissRate);
    w.f64(r.dramEfficiency);
    w.f64(r.dramRowHitRate);
    w.u64(r.l1Accesses);
    w.u64(r.l2Accesses);
    w.u64(r.l2ReadHits);
    w.u64(r.l2ReadMisses);
    w.u64(r.l2Merges);
    w.u64(r.dramReads);
    w.u64(r.dramWrites);
    w.u64(r.l1StallCycles);
    w.u64(r.l2StallCycles);

    w.u64(r.l1IcntBytes);
    w.u64(r.icntL2Bytes);
    w.u64(r.l2DramBytes);
    w.f64(r.l1IcntBpc);
    w.f64(r.icntL2Bpc);
    w.f64(r.l2DramBpc);
    w.f64(r.l1IcntUtil);
    w.f64(r.icntL2Util);
    w.f64(r.l2DramUtil);
}

bool
deserializeResult(ByteReader &r, SimResult &out)
{
    out.benchmark = r.str();
    out.config = r.str();

    out.coreCycles = r.u64();
    out.elapsedPs = r.f64();
    out.warpInstsIssued = r.u64();
    out.timedOut = r.u8() != 0;
    out.ipc = r.f64();
    out.perf = r.f64();

    out.issueStallFrac = r.f64();
    out.aml = r.f64();
    out.l2Ahl = r.f64();

    if (!getArray(r, out.issueStallDist) ||
        !getArray(r, out.l2AccessQueueOcc) ||
        !getArray(r, out.dramQueueOcc) ||
        !getArray(r, out.l2StallDist) ||
        !getArray(r, out.l1StallDist))
        return false;

    out.l1MissRate = r.f64();
    out.l2MissRate = r.f64();
    out.dramEfficiency = r.f64();
    out.dramRowHitRate = r.f64();
    out.l1Accesses = r.u64();
    out.l2Accesses = r.u64();
    out.l2ReadHits = r.u64();
    out.l2ReadMisses = r.u64();
    out.l2Merges = r.u64();
    out.dramReads = r.u64();
    out.dramWrites = r.u64();
    out.l1StallCycles = r.u64();
    out.l2StallCycles = r.u64();

    out.l1IcntBytes = r.u64();
    out.icntL2Bytes = r.u64();
    out.l2DramBytes = r.u64();
    out.l1IcntBpc = r.f64();
    out.icntL2Bpc = r.f64();
    out.l2DramBpc = r.f64();
    out.l1IcntUtil = r.f64();
    out.icntL2Util = r.f64();
    out.l2DramUtil = r.f64();
    return r.ok();
}

} // namespace bwsim
