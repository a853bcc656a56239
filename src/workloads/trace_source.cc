#include "workloads/trace_source.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <vector>

#include "common/log.hh"
#include "common/serdes.hh"
#include "workloads/trace_gen.hh"

namespace bwsim
{

namespace
{

/** Fixed canonical record width: u8 op + u64 addr + u32 cta. */
constexpr std::size_t canonRecordBytes = 13;

/** The canonical bytes of one record, little-endian like ByteWriter;
 *  -1 (untagged) encodes as CTA 0 so tagged and untagged records never
 *  collide. */
void
encodeRecord(const TraceRecord &r, unsigned char out[canonRecordBytes])
{
    out[0] = r.op == Op::Store ? 1 : 0;
    for (int i = 0; i < 8; ++i)
        out[1 + i] = static_cast<unsigned char>(r.addr >> (8 * i));
    const std::uint32_t cta = static_cast<std::uint32_t>(r.cta) + 1;
    for (int i = 0; i < 4; ++i)
        out[9 + i] = static_cast<unsigned char>(cta >> (8 * i));
}

std::string
ctaRangeError(unsigned long long tag)
{
    return csprintf("CTA tag %llu out of range (a trace launches at "
                    "most %d CTAs)",
                    tag, static_cast<int>(traceMaxCtas));
}

bool
parseAccessType(std::string_view tok, Op &out)
{
    if (tok == "ld" || tok == "load" || tok == "r") {
        out = Op::Load;
        return true;
    }
    if (tok == "st" || tok == "store" || tok == "w") {
        out = Op::Store;
        return true;
    }
    return false;
}

/** Whitespace as the classic locale's istream extraction sees it. */
bool
isTraceSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * Cut the next whitespace-delimited token out of [p, end), where
 * *end == '\0'. The token is NUL-terminated in place for strtoull and
 * diagnostics; its view keeps any embedded NUL for exact matching.
 * Empty once only whitespace is left.
 */
std::string_view
nextToken(char *&p, char *end)
{
    while (p < end && isTraceSpace(*p))
        ++p;
    char *tok = p;
    while (p < end && !isTraceSpace(*p))
        ++p;
    const std::string_view out(tok, static_cast<std::size_t>(p - tok));
    if (p < end)
        *p++ = '\0';
    return out;
}

/** Parse a whole token with strtoull(.., 0); false on any leftover. */
bool
parseNumber(std::string_view tok, unsigned long long &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(tok.data(), &end, 0);
    return errno == 0 && end != tok.data() && *end == '\0';
}

std::string
baseName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // anonymous namespace

void
sealTrace(TraceData &t)
{
    const std::size_t n = t.records.size();
    bwsim_assert(n <= UINT32_MAX, "sealTrace: %zu records", n);
    std::uint64_t h = fnv1a64Basis;
    std::int32_t max_tag = 0;
    for (const TraceRecord &r : t.records) {
        unsigned char bytes[canonRecordBytes];
        encodeRecord(r, bytes);
        h = fnv1a64(bytes, sizeof(bytes), h);
        bwsim_assert(t.ctaTagged ? r.cta >= 0 && r.cta < traceMaxCtas
                                 : r.cta == -1,
                     "sealTrace: CTA tag %d in a%s trace", r.cta,
                     t.ctaTagged ? " tagged" : "n untagged");
        max_tag = std::max(max_tag, r.cta);
    }
    t.contentHash = h;

    t.ctaOrder.clear();
    t.ctaBegin.clear();
    if (!t.ctaTagged)
        return;
    // Counting sort: count each CTA's records, prefix-sum the counts
    // into slice offsets, then scatter indices in file order.
    t.ctaBegin.assign(static_cast<std::size_t>(max_tag) + 2, 0);
    for (const TraceRecord &r : t.records)
        ++t.ctaBegin[r.cta + 1];
    for (std::size_t c = 1; c < t.ctaBegin.size(); ++c)
        t.ctaBegin[c] += t.ctaBegin[c - 1];
    std::vector<std::uint32_t> fill(t.ctaBegin.begin(),
                                    t.ctaBegin.end() - 1);
    t.ctaOrder.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        t.ctaOrder[fill[t.records[i].cta]++] = static_cast<std::uint32_t>(i);
}

void
writeCanonicalTrace(ByteWriter &w, const TraceData &t)
{
    const std::uint64_t bytes = t.records.size() * canonRecordBytes;
    bwsim_assert(bytes <= UINT32_MAX,
                 "writeCanonicalTrace: %zu records overflow the blob "
                 "length",
                 t.records.size());
    w.u32(static_cast<std::uint32_t>(bytes));
    for (const TraceRecord &r : t.records) {
        unsigned char rec[canonRecordBytes];
        encodeRecord(r, rec);
        for (unsigned char b : rec)
            w.u8(b);
    }
}

bool
decodeCanonicalTrace(std::string_view canon, std::uint64_t count,
                     TraceData &t, std::string *why)
{
    if (canon.size() % canonRecordBytes != 0 ||
        canon.size() / canonRecordBytes != count)
        return false;
    t.records.resize(count);
    ByteReader r(canon.data(), canon.size());
    for (TraceRecord &rec : t.records) {
        const std::uint8_t op = r.u8();
        rec.addr = r.u64();
        const std::uint32_t cta = r.u32();
        if (op > 1 || (cta == 0) == t.ctaTagged)
            return false;
        if (cta > static_cast<std::uint32_t>(traceMaxCtas)) {
            if (why)
                *why = ctaRangeError(cta - 1ull);
            return false;
        }
        rec.op = op ? Op::Store : Op::Load;
        rec.cta = static_cast<std::int32_t>(cta) - 1;
    }
    return r.ok();
}

bool
parseTextTrace(std::istream &in, const std::string &name, TraceData &out,
               std::string &err)
{
    out = TraceData();
    out.sourceName = name;
    bool saw_tagged = false, saw_untagged = false;

    // Room for a full line, the CR of a CRLF, and the NUL getline
    // stores; a longer line stops getline with failbit, unbuffered.
    char buf[traceMaxLineBytes + 2];
    for (std::size_t lineno = 1;; ++lineno) {
        in.getline(buf, sizeof(buf));
        if (in.fail()) {
            if (in.eof() || in.bad())
                break; // end of input: nothing was extracted
            err = csprintf("%s:%zu: line exceeds %zu bytes", name.c_str(),
                           lineno, traceMaxLineBytes);
            return false;
        }
        // gcount() counts the newline when one ended the line.
        std::size_t len = static_cast<std::size_t>(in.gcount()) -
                          (in.eof() ? 0 : 1);
        if (len > 0 && buf[len - 1] == '\r')
            --len;
        if (len > traceMaxLineBytes) {
            err = csprintf("%s:%zu: line exceeds %zu bytes", name.c_str(),
                           lineno, traceMaxLineBytes);
            return false;
        }
        buf[len] = '\0';
        char *p = buf;
        char *const end = buf + len;

        const std::string_view type_tok = nextToken(p, end);
        if (type_tok.empty() || type_tok[0] == '#')
            continue; // blank line or comment

        TraceRecord rec;
        if (!parseAccessType(type_tok, rec.op)) {
            err = csprintf("%s:%zu: unknown access type '%s' "
                           "(expected ld/load/r or st/store/w)",
                           name.c_str(), lineno, type_tok.data());
            return false;
        }

        const std::string_view addr_tok = nextToken(p, end);
        if (addr_tok.empty()) {
            err = csprintf("%s:%zu: missing address", name.c_str(),
                           lineno);
            return false;
        }
        unsigned long long addr;
        if (!parseNumber(addr_tok, addr)) {
            err = csprintf("%s:%zu: malformed address '%s'",
                           name.c_str(), lineno, addr_tok.data());
            return false;
        }
        rec.addr = addr;

        const std::string_view cta_tok = nextToken(p, end);
        if (!cta_tok.empty()) {
            unsigned long long tag;
            if (!parseNumber(cta_tok, tag) || tag > 0x7fffffffull) {
                err = csprintf("%s:%zu: malformed CTA tag '%s'",
                               name.c_str(), lineno, cta_tok.data());
                return false;
            }
            if (tag >= static_cast<unsigned long long>(traceMaxCtas)) {
                err = csprintf("%s:%zu: %s", name.c_str(), lineno,
                               ctaRangeError(tag).c_str());
                return false;
            }
            rec.cta = static_cast<std::int32_t>(tag);
            saw_tagged = true;
        } else {
            saw_untagged = true;
        }

        const std::string_view extra = nextToken(p, end);
        if (!extra.empty()) {
            err = csprintf("%s:%zu: trailing garbage '%s'",
                           name.c_str(), lineno, extra.data());
            return false;
        }
        out.records.push_back(rec);
    }

    if (out.records.empty()) {
        err = csprintf("%s: trace contains no records", name.c_str());
        return false;
    }
    if (saw_tagged && saw_untagged) {
        err = csprintf("%s: mixes CTA-tagged and untagged records",
                       name.c_str());
        return false;
    }
    out.ctaTagged = saw_tagged;
    sealTrace(out);
    return true;
}

std::string
packTrace(const TraceData &t)
{
    ByteWriter w;
    w.u8(t.ctaTagged ? 1 : 0);
    w.u64(t.contentHash);
    w.u64(t.records.size());
    writeCanonicalTrace(w, t);
    return frameBlob(traceFileMagic, traceFileVersion,
                     std::move(w).take());
}

bool
unpackTrace(const std::string &bytes, const std::string &name,
            TraceData &out, std::string &err)
{
    std::string_view payload;
    if (!unframeBlob(traceFileMagic, traceFileVersion, bytes, payload)) {
        err = csprintf("%s: not a packed trace (bad magic, version, "
                       "checksum, or truncated)",
                       name.c_str());
        return false;
    }
    out = TraceData();
    out.sourceName = name;
    ByteReader r(payload.data(), payload.size());
    out.ctaTagged = r.u8() != 0;
    const std::uint64_t stored_hash = r.u64();
    const std::uint64_t count = r.u64();
    const std::string_view canon = r.blob();
    std::string why;
    if (!r.ok() || r.remaining() != 0 ||
        !decodeCanonicalTrace(canon, count, out, &why)) {
        err = why.empty()
                  ? csprintf("%s: corrupt packed-trace payload",
                             name.c_str())
                  : csprintf("%s: %s", name.c_str(), why.c_str());
        return false;
    }
    if (out.records.empty()) {
        err = csprintf("%s: trace contains no records", name.c_str());
        return false;
    }
    sealTrace(out);
    if (out.contentHash != stored_hash) {
        err = csprintf("%s: content hash mismatch (stored %016llx, "
                       "computed %016llx)",
                       name.c_str(),
                       static_cast<unsigned long long>(stored_hash),
                       static_cast<unsigned long long>(out.contentHash));
        return false;
    }
    return true;
}

std::shared_ptr<const TraceData>
loadTraceFile(const std::string &path, std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = csprintf("cannot open trace file '%s'", path.c_str());
        return nullptr;
    }
    const std::string name = baseName(path);

    char magic[4] = {};
    in.read(magic, sizeof(magic));
    std::uint32_t head = 0;
    for (int i = 0; i < 4; ++i)
        head |= static_cast<std::uint32_t>(
                    static_cast<unsigned char>(magic[i]))
                << (8 * i);

    auto t = std::make_shared<TraceData>();
    if (in.gcount() == 4 && head == traceFileMagic) {
        // One read at the file's size; unpackTrace decodes in place.
        in.seekg(0, std::ios::end);
        std::string bytes(static_cast<std::size_t>(in.tellg()), '\0');
        in.seekg(0);
        in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        bytes.resize(static_cast<std::size_t>(in.gcount()));
        if (!unpackTrace(bytes, name, *t, err))
            return nullptr;
        return t;
    }

    in.clear();
    in.seekg(0);
    if (!parseTextTrace(in, name, *t, err))
        return nullptr;
    return t;
}

TraceReplayCursor::TraceReplayCursor(std::shared_ptr<const TraceData> trace_,
                                     int num_ctas, int warps_per_cta,
                                     std::uint64_t cta_seq,
                                     int warp_in_cta,
                                     std::uint32_t line_bytes)
    : trace(std::move(trace_)), line(line_bytes)
{
    bwsim_assert(trace != nullptr, "TraceReplayCursor: null trace");
    if (trace->ctaTagged) {
        order = trace->ctaOrder.data();
        stride = static_cast<std::size_t>(warps_per_cta);
        if (cta_seq < trace->ctaCount()) {
            pos = trace->ctaBegin[cta_seq] +
                  static_cast<std::size_t>(warp_in_cta);
            end = trace->ctaBegin[cta_seq + 1];
        }
    } else {
        const std::uint64_t total_warps =
            static_cast<std::uint64_t>(num_ctas) * warps_per_cta;
        const std::uint64_t global_warp =
            cta_seq * warps_per_cta + warp_in_cta;
        stride = total_warps;
        if (global_warp < total_warps) {
            pos = global_warp;
            end = trace->records.size();
        }
    }
}

bool
TraceReplayCursor::next(WarpInstData &out)
{
    if (pos >= end)
        return false;
    const TraceRecord &rec = trace->records[order ? order[pos] : pos];
    pos += stride;
    out = WarpInstData();
    out.op = rec.op;
    // Rotate destinations so replayed loads never serialize on a
    // false register dependency.
    out.dest = rec.op == Op::Load
                   ? 1 + static_cast<int>(instSeq % (numModelRegs - 1))
                   : -1;
    out.src = -1;
    out.pc = nextPc();
    out.lineAddrs.push_back(rec.addr & ~static_cast<Addr>(line - 1));
    ++instSeq;
    return true;
}

Addr
TraceReplayCursor::nextPc() const
{
    // A small instruction loop, like the synthetic kernels' bodies.
    return wl_layout::codeBase +
           (instSeq % 64) * wl_layout::instBytes;
}

} // namespace bwsim
