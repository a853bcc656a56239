/**
 * @file
 * WorkloadSpec suite: the tagged workload union behind every
 * simulation. Four properties are load-bearing enough to pin here:
 *
 *  1. Key degradation -- a Synthetic spec's cacheKey() is
 *     byte-identical to the wrapped profile's, for every suite
 *     benchmark. This is what makes the refactor a zero-rebless
 *     change: every pre-existing disk-cache entry and golden file
 *     keeps its identity.
 *  2. Content addressing -- trace keys depend on the records, never
 *     the file name or encoding, so `bwsim trace pack` and file moves
 *     cannot invalidate cached results.
 *  3. Parser/serdes hardening -- malformed text, truncated binary and
 *     corrupted job envelopes are rejected with diagnostics, never
 *     accepted or crashed on.
 *  4. Parameter recovery -- the pointer-chase and stride generators,
 *     run through the full simulator, measure back the configured
 *     L1/L2/DRAM latency and bandwidth parameters. This validates
 *     both the generators and the hierarchy model against each other.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dse.hh"
#include "core/work_queue.hh"
#include "gpu/gpu.hh"
#include "sim/sim_speed.hh"
#include "workloads/generators.hh"
#include "workloads/profile.hh"
#include "workloads/trace_gen.hh"
#include "workloads/trace_source.hh"
#include "workloads/workload_spec.hh"

using namespace bwsim;

namespace
{

/** Restore the process-global scheduler mode on scope exit. */
struct ScopedSchedulerMode
{
    explicit ScopedSchedulerMode(SchedulerMode m) : saved(schedulerMode())
    {
        setSchedulerMode(m);
    }
    ~ScopedSchedulerMode() { setSchedulerMode(saved); }
    SchedulerMode saved;
};

std::shared_ptr<const TraceData>
parseOrDie(const std::string &text, const std::string &name = "t.trace")
{
    auto t = std::make_shared<TraceData>();
    std::istringstream in(text);
    std::string err;
    EXPECT_TRUE(parseTextTrace(in, name, *t, err)) << err;
    return t;
}

std::string
parseError(const std::string &text)
{
    TraceData t;
    std::istringstream in(text);
    std::string err;
    EXPECT_FALSE(parseTextTrace(in, "bad.trace", t, err));
    return err;
}

/** A trace big enough to put real traffic through the hierarchy. */
std::shared_ptr<const TraceData>
busyTrace()
{
    auto t = std::make_shared<TraceData>();
    t->sourceName = "busy";
    for (int i = 0; i < 600; ++i) {
        TraceRecord r;
        r.op = (i % 3 == 2) ? Op::Store : Op::Load;
        // Spread over many lines and DRAM rows, with some reuse.
        r.addr = 0x10000 + static_cast<Addr>((i * 37) % 192) * 128 +
                 static_cast<Addr>(i % 5) * 64 * 1024;
        t->records.push_back(r);
    }
    sealTrace(*t);
    return t;
}

/** One row of the parser conformance table: the input, then either
 *  the exact records it must produce or the exact diagnostic. */
struct ParseCase
{
    const char *what;
    std::string text;
    std::vector<TraceRecord> records; ///< expected when err is empty
    std::string err;                  ///< exact rejection message
};

TraceRecord
rec(Op op, Addr addr, std::int32_t cta = -1)
{
    TraceRecord r;
    r.op = op;
    r.addr = addr;
    r.cta = cta;
    return r;
}

/** A line of exactly @p bytes: a valid record padded with spaces. */
std::string
paddedLine(std::size_t bytes)
{
    std::string line = "ld 0x1000";
    line.resize(bytes, ' ');
    return line;
}

std::vector<ParseCase>
parseConformanceTable()
{
    const std::string exceeds = "bad.trace:1: line exceeds 512 bytes";
    return {
        {"tabs and runs of spaces",
         "ld\t0x10\n\t st   0x20  \t\n",
         {rec(Op::Load, 0x10), rec(Op::Store, 0x20)}, ""},
        {"vertical tab and form feed separate tokens",
         "ld\v0x10\f1\n", {rec(Op::Load, 0x10, 1)}, ""},
        {"CRLF line endings", "ld 0x10\r\nst 0x20\r\n",
         {rec(Op::Load, 0x10), rec(Op::Store, 0x20)}, ""},
        {"CRLF line endings, tagged", "ld 0x10 0\r\nst 0x20 3\r\n",
         {rec(Op::Load, 0x10, 0), rec(Op::Store, 0x20, 3)}, ""},
        {"no newline after the last record", "ld 0x10",
         {rec(Op::Load, 0x10)}, ""},
        {"whole-line and indented comments, blank lines",
         "# header\n\n   \t\n  # indented\nld 0x10\n",
         {rec(Op::Load, 0x10)}, ""},
        {"a first token starting with '#' comments the line",
         "#ld 0x10\nld 0x20\n", {rec(Op::Load, 0x20)}, ""},
        {"'#' after the address is not a comment", "ld 0x10 # note\n",
         {}, "bad.trace:1: malformed CTA tag '#'"},
        {"all type aliases",
         "ld 1\nload 2\nr 3\nst 4\nstore 5\nw 6\n",
         {rec(Op::Load, 1), rec(Op::Load, 2), rec(Op::Load, 3),
          rec(Op::Store, 4), rec(Op::Store, 5), rec(Op::Store, 6)},
         ""},
        {"hex, octal and decimal addresses",
         "ld 0x1F\nld 0X20\nld 017\nld 42\nld 0\n",
         {rec(Op::Load, 0x1f), rec(Op::Load, 0x20), rec(Op::Load, 15),
          rec(Op::Load, 42), rec(Op::Load, 0)},
         ""},
        {"strtoull accepts a sign", "ld +16\nld -1\n",
         {rec(Op::Load, 16), rec(Op::Load, ~Addr(0))}, ""},
        {"strtoull stops at an embedded NUL",
         std::string("ld 0x10\0zz\n", 11), {rec(Op::Load, 0x10)}, ""},
        {"bare hex digits are not an address", "ld ff\n", {},
         "bad.trace:1: malformed address 'ff'"},
        {"8 is not an octal digit", "ld 08\n", {},
         "bad.trace:1: malformed address '08'"},
        {"address overflow", "ld 0x10000000000000000\n", {},
         "bad.trace:1: malformed address '0x10000000000000000'"},
        {"unknown type on a later line", "ld 0x10\nfetch 0x20\n", {},
         "bad.trace:2: unknown access type 'fetch' "
         "(expected ld/load/r or st/store/w)"},
        {"types are case-sensitive", "LD 0x10\n", {},
         "bad.trace:1: unknown access type 'LD' "
         "(expected ld/load/r or st/store/w)"},
        {"missing address", "ld\n", {}, "bad.trace:1: missing address"},
        {"missing address before CRLF", "st  \r\n", {},
         "bad.trace:1: missing address"},
        {"trailing garbage", "ld 0x10 1 x\n", {},
         "bad.trace:1: trailing garbage 'x'"},
        {"hex and octal CTA tags", "ld 0x10 0x2\nld 0x20 010\n",
         {rec(Op::Load, 0x10, 2), rec(Op::Load, 0x20, 8)}, ""},
        {"largest tag", "ld 0x10 65534\n", {rec(Op::Load, 0x10, 65534)},
         ""},
        {"first tag out of range", "ld 0x10 0xffff\n", {},
         "bad.trace:1: CTA tag 65535 out of range (a trace launches at "
         "most 65535 CTAs)"},
        {"largest int32 tag", "ld 0x10 0x7fffffff\n", {},
         "bad.trace:1: CTA tag 2147483647 out of range (a trace "
         "launches at most 65535 CTAs)"},
        {"tag past int32", "ld 0x10 0x80000000\n", {},
         "bad.trace:1: malformed CTA tag '0x80000000'"},
        {"negative tag", "ld 0x10 -1\n", {},
         "bad.trace:1: malformed CTA tag '-1'"},
        {"non-numeric tag", "ld 0x10 a\n", {},
         "bad.trace:1: malformed CTA tag 'a'"},
        {"tagged and untagged records mixed", "ld 0x10 0\nld 0x20\n", {},
         "bad.trace: mixes CTA-tagged and untagged records"},
        {"empty input", "", {}, "bad.trace: trace contains no records"},
        {"only comments", "# nothing here\n\n", {},
         "bad.trace: trace contains no records"},
        {"a line of exactly 512 bytes", paddedLine(512) + "\n",
         {rec(Op::Load, 0x1000)}, ""},
        {"512 bytes plus the CR of a CRLF", paddedLine(512) + "\r\n",
         {rec(Op::Load, 0x1000)}, ""},
        {"a line of 513 bytes", paddedLine(513) + "\n", {}, exceeds},
        {"a 513-byte last line without newline", paddedLine(513), {},
         exceeds},
        {"an oversized later line",
         "ld 0x10\n" + paddedLine(513) + "\n", {},
         "bad.trace:2: line exceeds 512 bytes"},
        {"a multi-megabyte line", paddedLine(4 << 20) + "\n", {},
         exceeds},
    };
}

/** One emitted instruction, reduced to what replay decides. */
struct Emitted
{
    Op op;
    Addr line;
    int dest;
    Addr pc;
    bool operator==(const Emitted &o) const
    {
        return op == o.op && line == o.line && dest == o.dest &&
               pc == o.pc;
    }
};

std::ostream &
operator<<(std::ostream &os, const Emitted &e)
{
    return os << (e.op == Op::Store ? "st" : "ld") << " 0x" << std::hex
              << e.line << std::dec << " dest=" << e.dest
              << " pc=0x" << std::hex << e.pc << std::dec;
}

/**
 * Reference replay: a linear scan over the whole trace that keeps
 * the records owned by warp (cta_seq, warp_in_cta). Tagged traces
 * hand a CTA's records round-robin to its warps in file order;
 * untagged traces hand record i to global warp i mod totalWarps.
 */
std::vector<Emitted>
referenceReplay(const WorkloadSpec &spec, std::uint64_t cta_seq,
                int warp_in_cta, std::uint32_t line_bytes)
{
    const TraceData &t = *spec.trace;
    const std::uint64_t wpc = spec.profile.warpsPerCta;
    const std::uint64_t total = spec.profile.numCtas * wpc;
    const std::uint64_t global = cta_seq * wpc + warp_in_cta;
    std::vector<Emitted> out;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        const TraceRecord &r = t.records[i];
        bool mine;
        if (t.ctaTagged) {
            if (r.cta != static_cast<std::int32_t>(cta_seq))
                continue;
            mine = seen++ % wpc == static_cast<std::uint64_t>(warp_in_cta);
        } else {
            mine = i % total == global;
        }
        if (!mine)
            continue;
        const std::uint64_t k = out.size();
        out.push_back({r.op, r.addr & ~Addr(line_bytes - 1),
                       r.op == Op::Load
                           ? 1 + static_cast<int>(k % (numModelRegs - 1))
                           : -1,
                       wl_layout::codeBase + (k % 64) * wl_layout::instBytes});
    }
    return out;
}

std::vector<Emitted>
cursorReplay(const WorkloadSpec &spec, std::uint64_t cta_seq,
             int warp_in_cta, std::uint32_t line_bytes)
{
    auto cur = makeWorkloadCursor(spec, 0, cta_seq, warp_in_cta,
                                  line_bytes);
    std::vector<Emitted> out;
    WarpInstData inst;
    while (!cur->done()) {
        const Addr pc = cur->nextPc();
        EXPECT_TRUE(cur->next(inst));
        EXPECT_EQ(inst.pc, pc);
        EXPECT_EQ(inst.lineAddrs.size(), 1u);
        out.push_back({inst.op, inst.lineAddrs.at(0), inst.dest, inst.pc});
    }
    EXPECT_FALSE(cur->next(inst));
    return out;
}

/** Every launched warp (and one CTA past the launch) emits exactly
 *  the reference sequence, and together they cover every record. */
void
expectReplayMatchesReference(const WorkloadSpec &spec)
{
    constexpr std::uint32_t line_bytes = 128;
    std::size_t emitted = 0;
    for (int cta = 0; cta <= spec.profile.numCtas; ++cta) {
        for (int w = 0; w < spec.profile.warpsPerCta; ++w) {
            SCOPED_TRACE(::testing::Message()
                         << "cta " << cta << " warp " << w);
            const auto want = referenceReplay(spec, cta, w, line_bytes);
            EXPECT_EQ(cursorReplay(spec, cta, w, line_bytes), want);
            if (cta < spec.profile.numCtas)
                emitted += want.size();
        }
    }
    EXPECT_EQ(emitted, spec.trace->records.size());
}

/** @p n records with tags drawn from @p tags, interleaved. */
std::shared_ptr<const TraceData>
interleavedTaggedTrace(std::size_t n, const std::vector<std::int32_t> &tags)
{
    auto t = std::make_shared<TraceData>();
    t->sourceName = "interleaved";
    t->ctaTagged = true;
    std::uint64_t x = 12345;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        TraceRecord r;
        r.op = (x >> 40) % 5 < 2 ? Op::Store : Op::Load;
        r.addr = 0x100000 + (x >> 20) % 4096 * 32;
        r.cta = tags[(x >> 33) % tags.size()];
        t->records.push_back(r);
    }
    sealTrace(*t);
    return t;
}

std::shared_ptr<const TraceData>
untaggedTrace(std::size_t n)
{
    auto t = std::make_shared<TraceData>();
    t->sourceName = "untagged";
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.op = i % 3 == 1 ? Op::Store : Op::Load;
        r.addr = 0x200000 + i * 72;
        t->records.push_back(r);
    }
    sealTrace(*t);
    return t;
}

WorkloadSpec
generatorSpec(const std::string &form)
{
    WorkloadSpec s;
    EXPECT_TRUE(parseGeneratorForm(form, s)) << form;
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// 1. Key degradation: the zero-rebless guarantee.
// ---------------------------------------------------------------------

TEST(WorkloadKey, SyntheticKeyDegradesToProfileKeyForWholeSuite)
{
    for (const BenchmarkProfile &p : benchmarkSuite()) {
        const WorkloadSpec spec = p;
        EXPECT_EQ(spec.cacheKey(), p.cacheKey()) << p.name;
        // And for the shrunk variants tests and sweeps actually run.
        const BenchmarkProfile small = shrinkProfile(p, 16);
        EXPECT_EQ(WorkloadSpec(small).cacheKey(), small.cacheKey())
            << p.name;
    }
    const BenchmarkProfile tiny = makeTestProfile("tiny-compute");
    EXPECT_EQ(WorkloadSpec(tiny).cacheKey(), tiny.cacheKey());
}

TEST(WorkloadKey, NonSyntheticKeysCannotCollideWithProfileKeys)
{
    // Profile keys lead with a KeyBuilder length prefix (a digit);
    // trace and generator keys are marked with '#'.
    for (const BenchmarkProfile &p : benchmarkSuite()) {
        ASSERT_FALSE(p.cacheKey().empty());
        EXPECT_TRUE(isdigit(static_cast<unsigned char>(p.cacheKey()[0])))
            << p.name;
    }
    const WorkloadSpec trace = makeTraceWorkload(busyTrace());
    const WorkloadSpec gen = generatorSpec("pchase:8k");
    EXPECT_EQ(trace.cacheKey()[0], '#');
    EXPECT_EQ(gen.cacheKey()[0], '#');
    EXPECT_NE(trace.cacheKey(), gen.cacheKey());
}

TEST(WorkloadKey, TraceKeyIsContentAddressedNotNameAddressed)
{
    const std::string text = "ld 0x1000\nst 0x2000\nld 0x1040\n";
    auto a = parseOrDie(text, "a.trace");
    auto b = parseOrDie(text, "some/other/b.trace");
    EXPECT_EQ(a->contentHash, b->contentHash);
    EXPECT_EQ(makeTraceWorkload(a).cacheKey(),
              makeTraceWorkload(b).cacheKey());

    // Repacking through the binary encoding keeps the identity too.
    TraceData packed;
    std::string err;
    ASSERT_TRUE(unpackTrace(packTrace(*a), "a.bwtr", packed, err)) << err;
    EXPECT_EQ(packed.contentHash, a->contentHash);

    // Different records do change the key.
    auto c = parseOrDie("ld 0x1000\nst 0x2000\nld 0x1080\n");
    EXPECT_NE(makeTraceWorkload(a).cacheKey(),
              makeTraceWorkload(c).cacheKey());
    // A store is not a load at the same address.
    auto d = parseOrDie("st 0x1000\n");
    auto e = parseOrDie("ld 0x1000\n");
    EXPECT_NE(d->contentHash, e->contentHash);
    // A CTA tag changes identity even with equal addresses.
    auto f = parseOrDie("ld 0x1000 0\n");
    EXPECT_NE(e->contentHash, f->contentHash);
}

TEST(WorkloadKey, GeneratorKeyCoversParametersAndShape)
{
    EXPECT_NE(generatorSpec("pchase:8k").cacheKey(),
              generatorSpec("pchase:64k").cacheKey());
    EXPECT_NE(generatorSpec("pchase:8k:2000").cacheKey(),
              generatorSpec("pchase:8k:4000").cacheKey());
    EXPECT_NE(generatorSpec("stride:128").cacheKey(),
              generatorSpec("stride:256").cacheKey());
    EXPECT_NE(generatorSpec("pchase").cacheKey(),
              generatorSpec("stride").cacheKey());
    // Defaults are spelled out: "pchase" and "pchase:8k:2000" are the
    // same workload and must share one cache entry.
    EXPECT_EQ(generatorSpec("pchase").cacheKey(),
              generatorSpec("pchase:8k:2000").cacheKey());
}

// ---------------------------------------------------------------------
// 2. Text parser: accepted forms and hardened rejections.
// ---------------------------------------------------------------------

TEST(TraceParser, AcceptsAllDocumentedForms)
{
    auto t = parseOrDie("# header comment\n"
                        "ld 0x1000\n"
                        "load 4096\n"    // decimal, alias
                        "r 0x1040\n"     // gem5-style alias
                        "st 0x2000\n"
                        "store 0x2040\n"
                        "w 0x2080\n"
                        "\n"             // blank line
                        "  ld 0x3000  \n");
    ASSERT_EQ(t->records.size(), 7u);
    EXPECT_EQ(t->records[0].op, Op::Load);
    EXPECT_EQ(t->records[1].addr, 4096u);
    EXPECT_EQ(t->records[3].op, Op::Store);
    EXPECT_FALSE(t->ctaTagged);
    for (const auto &r : t->records)
        EXPECT_EQ(r.cta, -1);
}

TEST(TraceParser, AcceptsCrlfAndCtaTags)
{
    auto t = parseOrDie("ld 0x1000 0\r\nst 0x2000 1\r\nld 0x3000 1\r\n");
    ASSERT_EQ(t->records.size(), 3u);
    EXPECT_TRUE(t->ctaTagged);
    EXPECT_EQ(t->records[0].cta, 0);
    EXPECT_EQ(t->records[2].cta, 1);
}

TEST(TraceParser, RejectsMalformedInputWithLineDiagnostics)
{
    EXPECT_NE(parseError("ld 0x1000\nfetch 0x2000\n").find("bad.trace:2"),
              std::string::npos);
    EXPECT_NE(parseError("ld zzz\n").find("bad.trace:1"),
              std::string::npos);
    EXPECT_NE(parseError("ld\n").find(":1"), std::string::npos);
    // Trailing garbage after the address is not silently dropped.
    EXPECT_FALSE(parseError("ld 0x1000 2 extra\n").empty());
    // Tag on some lines but not others is ambiguous, not "mostly ok".
    EXPECT_NE(parseError("ld 0x1000 0\nld 0x2000\n").find("tag"),
              std::string::npos);
    // Empty trace (only comments) cannot run.
    EXPECT_FALSE(parseError("# nothing here\n\n").empty());
    // Oversized lines are bounded, not buffered.
    const std::string long_line =
        "ld 0x1000 " + std::string(2 * traceMaxLineBytes, ' ') + "\n";
    EXPECT_FALSE(parseError(long_line).empty());
}

TEST(TraceParser, ConformanceTable)
{
    for (const ParseCase &c : parseConformanceTable()) {
        SCOPED_TRACE(c.what);
        TraceData t;
        std::istringstream in(c.text);
        std::string err;
        const bool ok = parseTextTrace(in, "bad.trace", t, err);
        if (!c.err.empty()) {
            EXPECT_FALSE(ok);
            EXPECT_EQ(err, c.err);
            continue;
        }
        ASSERT_TRUE(ok) << err;
        ASSERT_EQ(t.records.size(), c.records.size());
        EXPECT_EQ(t.ctaTagged, c.records[0].cta >= 0);
        for (std::size_t i = 0; i < c.records.size(); ++i) {
            EXPECT_EQ(t.records[i].op, c.records[i].op) << i;
            EXPECT_EQ(t.records[i].addr, c.records[i].addr) << i;
            EXPECT_EQ(t.records[i].cta, c.records[i].cta) << i;
        }
    }
}

TEST(TraceParser, BinaryEnvelopeRejectsTruncationAndCorruption)
{
    auto t = busyTrace();
    const std::string packed = packTrace(*t);
    TraceData back;
    std::string err;
    ASSERT_TRUE(unpackTrace(packed, "busy.bwtr", back, err)) << err;
    EXPECT_EQ(back.records.size(), t->records.size());
    EXPECT_EQ(back.contentHash, t->contentHash);

    for (std::size_t cut : {std::size_t(1), packed.size() / 2,
                            packed.size() - 1}) {
        TraceData junk;
        EXPECT_FALSE(
            unpackTrace(packed.substr(0, cut), "cut.bwtr", junk, err))
            << "accepted a truncation at " << cut;
    }
    std::string flipped = packed;
    flipped[packed.size() / 2] ^= 0x20;
    TraceData junk;
    EXPECT_FALSE(unpackTrace(flipped, "flip.bwtr", junk, err));
}

// ---------------------------------------------------------------------
// 2b. Trace ingest: content hash, replay index and the CTA-tag bound.
// ---------------------------------------------------------------------

namespace
{

std::string
goldenTrace(const char *file)
{
    return std::string(BWSIM_GOLDEN_DIR) + "/" + file;
}

/** A tagged trace whose tags are not range-checked: sealTrace()
 *  refuses it, but the encoders write whatever they are given. */
std::shared_ptr<TraceData>
unsealedTaggedTrace(std::int32_t tag)
{
    auto t = std::make_shared<TraceData>();
    t->sourceName = "big";
    t->ctaTagged = true;
    t->records = {rec(Op::Load, 0x1000, 0), rec(Op::Store, 0x2000, tag)};
    return t;
}

std::string
writeTempFile(const std::string &name, const std::string &bytes)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
    return path;
}

} // namespace

TEST(TraceIngest, ContentHashesOfTheGoldenTracesArePinned)
{
    // Cache identity: a change here orphans every cached trace result.
    std::string err;
    auto untagged = loadTraceFile(goldenTrace("replay.trace"), err);
    ASSERT_NE(untagged, nullptr) << err;
    EXPECT_EQ(untagged->contentHash, 0xf7c1b8e1db7e14f9ull);
    auto tagged = loadTraceFile(goldenTrace("replay_tagged.trace"), err);
    ASSERT_NE(tagged, nullptr) << err;
    EXPECT_EQ(tagged->contentHash, 0xa9ef0554c8d9ec95ull);
}

TEST(TraceIngest, HashCoversExactlyTheCanonicalRecordBytes)
{
    for (const auto &t : {busyTrace(), interleavedTaggedTrace(77, {4, 1})}) {
        ByteWriter w;
        writeCanonicalTrace(w, *t);
        const std::string &blob = w.bytes();
        ASSERT_EQ(blob.size(), 4 + 13 * t->records.size());
        EXPECT_EQ(t->contentHash,
                  fnv1a64(blob.data() + 4, blob.size() - 4));
    }
}

TEST(TraceIngest, ReplayIndexGroupsRecordsByCtaInFileOrder)
{
    EXPECT_EQ(sizeof(TraceRecord), 16u);
    auto t = parseOrDie("ld 0x0 3\nld 0x1 0\nst 0x2 3\nld 0x3 0\n"
                        "ld 0x4 1\nst 0x5 3\n");
    EXPECT_EQ(t->ctaCount(), 4u);
    EXPECT_EQ(t->ctaBegin, (std::vector<std::uint32_t>{0, 2, 3, 3, 6}));
    EXPECT_EQ(t->ctaOrder,
              (std::vector<std::uint32_t>{1, 3, 4, 0, 2, 5}));
    EXPECT_EQ(makeTraceWorkload(t).profile.numCtas, 4);

    auto u = parseOrDie("ld 0x0\nst 0x1\n");
    EXPECT_EQ(u->ctaCount(), 0u);
    EXPECT_TRUE(u->ctaOrder.empty());
    EXPECT_EQ(makeTraceWorkload(u).profile.numCtas, 4);
}

TEST(TraceIngest, TextAndPackedFilesLoadIdentically)
{
    for (const char *file : {"replay.trace", "replay_tagged.trace"}) {
        SCOPED_TRACE(file);
        std::string err;
        auto text = loadTraceFile(goldenTrace(file), err);
        ASSERT_NE(text, nullptr) << err;
        const std::string path =
            writeTempFile(std::string(file) + ".bwtr", packTrace(*text));
        auto packed = loadTraceFile(path, err);
        ASSERT_NE(packed, nullptr) << err;
        EXPECT_EQ(packed->sourceName, std::string(file) + ".bwtr");
        EXPECT_EQ(packed->ctaTagged, text->ctaTagged);
        ASSERT_EQ(packed->records.size(), text->records.size());
        for (std::size_t i = 0; i < text->records.size(); ++i) {
            EXPECT_EQ(packed->records[i].op, text->records[i].op);
            EXPECT_EQ(packed->records[i].addr, text->records[i].addr);
            EXPECT_EQ(packed->records[i].cta, text->records[i].cta);
        }
        EXPECT_EQ(packed->contentHash, text->contentHash);
        EXPECT_EQ(packed->ctaOrder, text->ctaOrder);
        EXPECT_EQ(packed->ctaBegin, text->ctaBegin);
    }
}

TEST(TraceIngest, PackedTraceWithOutOfRangeTagIsRejected)
{
    const std::string want =
        "big.bwtr: CTA tag 65535 out of range (a trace launches at "
        "most 65535 CTAs)";
    const std::string packed = packTrace(*unsealedTaggedTrace(65535));
    TraceData back;
    std::string err;
    EXPECT_FALSE(unpackTrace(packed, "big.bwtr", back, err));
    EXPECT_EQ(err, want);
    // The same through the file loader.
    EXPECT_EQ(loadTraceFile(writeTempFile("big.bwtr", packed), err),
              nullptr);
    EXPECT_EQ(err, want);
    // The largest tag in range still loads.
    auto in_range = unsealedTaggedTrace(65534);
    sealTrace(*in_range);
    ASSERT_TRUE(unpackTrace(packTrace(*in_range), "ok.bwtr", back, err))
        << err;
    EXPECT_EQ(back.ctaCount(), 65535u);
}

TEST(TraceIngest, WorkloadEnvelopeWithOutOfRangeTagIsRejected)
{
    for (std::int32_t tag : {65535, 0x7fffffff}) {
        WorkloadSpec spec;
        spec.kind = WorkloadKind::Trace;
        spec.trace = unsealedTaggedTrace(tag);
        ByteWriter w;
        serializeWorkload(w, spec);
        ByteReader r(w.bytes());
        WorkloadSpec back;
        EXPECT_FALSE(deserializeWorkload(r, back)) << tag;

        RunSpec job{spec, GpuConfig::baseline()};
        RunSpec decoded;
        std::string why;
        EXPECT_FALSE(decodeJob(encodeJob(job), decoded, &why)) << tag;
        EXPECT_EQ(why, "payload does not decode");
    }
}

// ---------------------------------------------------------------------
// 3. Workload serdes and the work-queue envelope.
// ---------------------------------------------------------------------

TEST(WorkloadSerdes, RoundTripsAllThreeKinds)
{
    std::vector<WorkloadSpec> specs = {
        WorkloadSpec(makeTestProfile("tiny-mixed")),
        makeTraceWorkload(busyTrace()),
        generatorSpec("stride:256:1m"),
    };
    for (const WorkloadSpec &spec : specs) {
        ByteWriter w;
        serializeWorkload(w, spec);
        const std::string bytes = std::move(w).take();

        ByteReader r(bytes);
        WorkloadSpec back;
        ASSERT_TRUE(deserializeWorkload(r, back));
        EXPECT_EQ(back.kind, spec.kind);
        EXPECT_EQ(back.name(), spec.name());
        EXPECT_EQ(back.cacheKey(), spec.cacheKey());

        // Re-encode is byte-identical: the envelope is canonical.
        ByteWriter w2;
        serializeWorkload(w2, back);
        EXPECT_EQ(std::move(w2).take(), bytes);
    }
}

TEST(WorkloadSerdes, TraceEnvelopeIsSelfContained)
{
    // A queue worker decodes the records themselves, not a path.
    const WorkloadSpec spec = makeTraceWorkload(busyTrace());
    ByteWriter w;
    serializeWorkload(w, spec);
    const std::string bytes = std::move(w).take();
    ByteReader r(bytes);
    WorkloadSpec back;
    ASSERT_TRUE(deserializeWorkload(r, back));
    ASSERT_NE(back.trace, nullptr);
    ASSERT_EQ(back.trace->records.size(), spec.trace->records.size());
    EXPECT_EQ(back.trace->records[17].addr, spec.trace->records[17].addr);
    EXPECT_EQ(back.trace->contentHash, spec.trace->contentHash);
}

TEST(WorkloadSerdes, RejectsTruncationAndKindCorruption)
{
    const WorkloadSpec spec = makeTraceWorkload(busyTrace());
    ByteWriter w;
    serializeWorkload(w, spec);
    const std::string bytes = std::move(w).take();

    for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
        const std::string prefix = bytes.substr(0, cut);
        ByteReader r(prefix);
        WorkloadSpec junk;
        EXPECT_FALSE(deserializeWorkload(r, junk))
            << "accepted a truncation at " << cut;
    }
    // An unknown kind tag is rejected up front.
    std::string bad_kind = bytes;
    bad_kind[0] = 7;
    ByteReader r(bad_kind);
    WorkloadSpec junk;
    EXPECT_FALSE(deserializeWorkload(r, junk));
}

TEST(WorkloadSerdes, TraceHashMismatchIsRejected)
{
    // Flip one record byte but keep the stored hash: the semantic
    // guard must notice even though lengths still line up.
    const WorkloadSpec spec = makeTraceWorkload(busyTrace());
    ByteWriter w;
    serializeWorkload(w, spec);
    std::string bytes = std::move(w).take();
    // The canonical record block is the tail of the envelope.
    bytes[bytes.size() - 3] ^= 0x01;
    ByteReader r(bytes);
    WorkloadSpec junk;
    EXPECT_FALSE(deserializeWorkload(r, junk));
}

TEST(WorkQueueEnvelope, CarriesTraceAndGeneratorJobs)
{
    for (const WorkloadSpec &wl :
         {makeTraceWorkload(busyTrace()), generatorSpec("pchase:4k:64")}) {
        RunSpec spec{wl, GpuConfig::baseline()};
        const std::string bytes = encodeJob(spec);
        RunSpec back;
        std::string why;
        ASSERT_TRUE(decodeJob(bytes, back, &why)) << why;
        EXPECT_EQ(back.workload.cacheKey(), spec.workload.cacheKey());
        EXPECT_EQ(workKeyOf(back), workKeyOf(spec));
        EXPECT_EQ(encodeJob(back), bytes);
    }
}

// ---------------------------------------------------------------------
// 4. Replay and generator execution semantics.
// ---------------------------------------------------------------------

TEST(TraceReplay, SchedulerModesAreByteIdentical)
{
    const WorkloadSpec spec = makeTraceWorkload(busyTrace());
    auto dump = [&](SchedulerMode m) {
        ScopedSchedulerMode scope(m);
        Gpu gpu(GpuConfig::baseline(), spec);
        gpu.run();
        std::ostringstream os;
        gpu.dumpStats(os);
        return os.str();
    };
    EXPECT_EQ(dump(SchedulerMode::Lockstep), dump(SchedulerMode::Skip));
}

TEST(TraceReplay, EveryRecordIssuesExactlyOnce)
{
    const WorkloadSpec spec = makeTraceWorkload(busyTrace());
    Gpu gpu(GpuConfig::baseline(), spec);
    SimResult r = gpu.run();
    EXPECT_EQ(r.warpInstsIssued, busyTrace()->records.size());
    EXPECT_FALSE(r.timedOut);
}

TEST(TraceReplay, TaggedTraceRunsOneCtaPerTag)
{
    auto t = parseOrDie("ld 0x1000 0\nld 0x2000 1\nld 0x3000 2\n"
                        "st 0x4000 2\n");
    const WorkloadSpec spec = makeTraceWorkload(t);
    EXPECT_EQ(spec.profile.numCtas, 3);
    Gpu gpu(GpuConfig::baseline(), spec);
    SimResult r = gpu.run();
    EXPECT_EQ(r.warpInstsIssued, 4u);
}

TEST(TraceReplay, TaggedCursorMatchesLinearScan)
{
    // Tags arrive interleaved and CTAs 1, 4 and 5 own no records.
    WorkloadSpec spec =
        makeTraceWorkload(interleavedTaggedTrace(301, {3, 0, 6, 2, 0}));
    EXPECT_EQ(spec.profile.numCtas, 7);
    expectReplayMatchesReference(spec);
    // A warp count that divides no CTA's record count evenly.
    spec.profile.warpsPerCta = 3;
    expectReplayMatchesReference(spec);
    // One CTA, one warp: the whole trace in file order.
    spec = makeTraceWorkload(interleavedTaggedTrace(40, {0}));
    spec.profile.warpsPerCta = 1;
    expectReplayMatchesReference(spec);
}

TEST(TraceReplay, UntaggedCursorMatchesLinearScan)
{
    // 37 records over the default 4 x 4 warps: not a multiple.
    WorkloadSpec spec = makeTraceWorkload(untaggedTrace(37));
    EXPECT_EQ(spec.profile.numCtas * spec.profile.warpsPerCta, 16);
    expectReplayMatchesReference(spec);
    // Fewer records than warps: most warps are empty.
    expectReplayMatchesReference(makeTraceWorkload(untaggedTrace(5)));
    // A launch shape other than the default.
    spec.profile.numCtas = 3;
    spec.profile.warpsPerCta = 5;
    expectReplayMatchesReference(spec);
}

TEST(TraceReplay, ParsedAndPackedGoldenTracesMatchLinearScan)
{
    for (const char *file : {"replay.trace", "replay_tagged.trace"}) {
        SCOPED_TRACE(file);
        std::string err;
        auto text = loadTraceFile(
            std::string(BWSIM_GOLDEN_DIR) + "/" + file, err);
        ASSERT_NE(text, nullptr) << err;
        expectReplayMatchesReference(makeTraceWorkload(text));
        auto packed = std::make_shared<TraceData>();
        ASSERT_TRUE(unpackTrace(packTrace(*text), file, *packed, err))
            << err;
        expectReplayMatchesReference(makeTraceWorkload(packed));
    }
}

TEST(Generators, ParseRejectsUnknownNamesQuietly)
{
    // Unknown names are not generator forms -- the caller falls back
    // to the suite lookup (and its "unknown benchmark" diagnostic).
    WorkloadSpec out;
    EXPECT_FALSE(parseGeneratorForm("bfs", out));
    EXPECT_FALSE(parseGeneratorForm("", out));
    EXPECT_FALSE(parseGeneratorForm("pchaser:8k", out));
}

TEST(Generators, LaunchShapesFitEveryCoreBudget)
{
    const WorkloadSpec pchase = generatorSpec("pchase");
    EXPECT_EQ(pchase.profile.numCtas, 1);
    EXPECT_EQ(pchase.profile.warpsPerCta, 1);
    const WorkloadSpec stride = generatorSpec("stride");
    EXPECT_GT(stride.profile.numCtas * stride.profile.warpsPerCta, 100);
}

// ---------------------------------------------------------------------
// 5. Parameter recovery: the generators measure back the configured
//    hierarchy. Expected values derive from GpuConfig::baseline():
//    16 KB L1 (1-cycle hits), 768 KB L2 (4 L2-cycles), 128 B lines.
// ---------------------------------------------------------------------

TEST(ParamRecovery, PointerChaseWalksUpTheLatencyHierarchy)
{
    const GpuConfig cfg = GpuConfig::baseline();

    // 8 KB chain: resident in the 16 KB L1 after one cold pass.
    SimResult l1 = runOne(generatorSpec("pchase:8k:4000"), cfg);
    EXPECT_LT(l1.l1MissRate, 0.05); // 64 cold lines / 4000 loads
    const double l1_cpi = 1.0 / l1.ipc;
    EXPECT_LT(l1_cpi, 20.0); // a few cycles per dependent L1 hit

    // 64 KB chain: spills L1, resident in the 768 KB L2.
    SimResult l2 = runOne(generatorSpec("pchase:64k:4000"), cfg);
    EXPECT_GT(l2.l1MissRate, 0.95);
    EXPECT_LT(l2.l2MissRate, 0.2); // 512 cold lines / 4000 loads
    const double l2_cpi = 1.0 / l2.ipc;

    // 8 MB chain: spills both caches; every load is a DRAM round trip.
    SimResult dram = runOne(generatorSpec("pchase:8m:4000"), cfg);
    EXPECT_GT(dram.l2MissRate, 0.95);
    const double dram_cpi = 1.0 / dram.ipc;

    // The ladder is strict and well separated: each level costs
    // multiples of the one above (measured ~5.5 / ~149 / ~246).
    EXPECT_GT(l2_cpi, 5 * l1_cpi);
    EXPECT_GT(dram_cpi, l2_cpi + 50);

    // AML averages L1-miss round trips, so the L2- and DRAM-resident
    // probes read the two upper levels directly.
    EXPECT_GT(l2.aml, 100.0);
    EXPECT_LT(l2.aml, 200.0);
    EXPECT_GT(dram.aml, l2.aml + 50);
    EXPECT_LT(dram.aml, 400.0);
}

TEST(ParamRecovery, PointerChaseSeesConfiguredLatencyDeltas)
{
    const GpuConfig base = GpuConfig::baseline();

    // +10 cycles of L1 hit latency: every chained load pays exactly
    // once, so cycles-per-load grows by ~10.
    GpuConfig l1slow = base;
    l1slow.l1dHitLatency += 10;
    const WorkloadSpec probe = generatorSpec("pchase:8k:4000");
    const double d_cpi =
        1.0 / runOne(probe, l1slow).ipc - 1.0 / runOne(probe, base).ipc;
    EXPECT_GT(d_cpi, 8.0);
    EXPECT_LT(d_cpi, 12.0);

    // +100 L2 cycles of L2 hit latency: the L2 clock runs at half the
    // core clock, so the L2-resident probe's AML (in core cycles)
    // grows by exactly 200.
    GpuConfig l2slow = base;
    l2slow.l2HitLatency += 100;
    const WorkloadSpec probe2 = generatorSpec("pchase:64k:4000");
    const double d_aml =
        runOne(probe2, l2slow).aml - runOne(probe2, base).aml;
    EXPECT_GT(d_aml, 195.0);
    EXPECT_LT(d_aml, 205.0);
}

TEST(ParamRecovery, StrideSweepSaturatesAndScalesWithTheDramBus)
{
    // On a narrow 8 B/cycle bus the default sweep is bus-bound: the
    // measured L2<->DRAM bandwidth pins the configured peak
    // (measured ~90% of it; the last few % are refresh and turnaround).
    GpuConfig narrow = GpuConfig::baseline();
    narrow.dramBusBytesPerCycle = 8;
    SimResult r = runOne(generatorSpec("stride"), narrow);
    EXPECT_GT(r.l2DramUtil, 0.8);
    EXPECT_LE(r.l2DramUtil, 1.0);

    // The baseline 32 B/cycle bus is not the bottleneck for the same
    // sweep -- utilization drops well below saturation while absolute
    // bandwidth grows.
    SimResult wide = runOne(generatorSpec("stride"), GpuConfig::baseline());
    EXPECT_LT(wide.l2DramUtil, 0.5);
    EXPECT_GT(wide.l2DramBpc, r.l2DramBpc);
}

TEST(ParamRecovery, StrideSweepReadsRowBufferLocality)
{
    const GpuConfig cfg = GpuConfig::baseline();
    // Sequential 128 B strides stream through each DRAM row.
    SimResult seq = runOne(generatorSpec("stride:128:64m"), cfg);
    EXPECT_GT(seq.dramRowHitRate, 0.9);
    // 8 KB strides leave a row before ever reusing it.
    SimResult jump = runOne(generatorSpec("stride:8k:256m"), cfg);
    EXPECT_LT(jump.dramRowHitRate, 0.05);
}
