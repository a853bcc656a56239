/**
 * @file
 * TraceSource: file-backed workloads. Two on-disk encodings share one
 * in-memory TraceData (and one content hash):
 *
 * Text ("classic type addr" format), parsed line by line:
 *
 *     # comment
 *     ld 0x1000        <- load
 *     st 0x2000        <- store
 *     ld 0x3000 2      <- optional third column: CTA tag
 *
 * Types accept ld/load/r and st/store/w. Addresses and tags parse as
 * strtoull base 0: "0x" hex, a leading 0 for octal, else decimal. A
 * line whose first token starts with '#' is a comment. A trace is
 * CTA-tagged iff every record carries a tag (mixing is a parse
 * error). Tags must be below traceMaxCtas.
 *
 * Binary (`bwsim trace pack`): a frameBlob envelope (magic, version,
 * FNV-1a checksum) around a small header plus the canonical record
 * bytes -- exactly the bytes the content hash covers, so packing
 * cannot change a trace's cache identity.
 *
 * TraceReplayCursor feeds the records to warps either round-robin
 * over all launched warps (untagged) or by CTA tag with round-robin
 * among the CTA's warps (tagged). Replay is fully deterministic, so
 * like every workload it is bit-identical across scheduler modes.
 *
 * Cost model. Loading is O(bytes): text lines are tokenized in place
 * in one fixed traceMaxLineBytes buffer, a packed file is read once
 * and decoded where it lies, and sealTrace() hashes the records one
 * at a time (no canonical-bytes copy) and builds the replay index.
 * The index is a stable counting sort of record indices by CTA tag
 * (4 bytes per record plus 4 per CTA), shared by all warps, so replay
 * is O(records) per simulation: every cursor starts at its first
 * record and steps straight from one of its records to the next.
 */

#ifndef BWSIM_WORKLOADS_TRACE_SOURCE_HH
#define BWSIM_WORKLOADS_TRACE_SOURCE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "common/serdes.hh"
#include "smcore/isa.hh"
#include "workloads/workload_spec.hh"

namespace bwsim
{

/** Envelope identity of packed binary traces ("BWTR"). */
constexpr std::uint32_t traceFileMagic = 0x52545742;
constexpr std::uint32_t traceFileVersion = 1;

/** Longest accepted text line; longer input is a parse error. */
constexpr std::size_t traceMaxLineBytes = 512;

/**
 * CTA tags must be below this: a tagged trace launches its largest
 * tag + 1 CTAs, at most Fermi's 65535-block grid dimension. Every
 * ingest path (text parse, unpackTrace, deserializeWorkload) rejects
 * larger tags, which also bounds the replay index at 256 KiB.
 */
constexpr std::int32_t traceMaxCtas = 65535;

/**
 * Recompute @p t.contentHash from its records and rebuild the replay
 * index. Every record's tag must already be in range: -1 for an
 * untagged trace, 0 .. traceMaxCtas - 1 for a tagged one.
 */
void sealTrace(TraceData &t);

/**
 * Append the canonical record encoding of @p t to @p w as one
 * length-prefixed blob: u8 op, u64 addr, u32 cta + 1 per record. The
 * content hash covers exactly these record bytes, and the text and
 * packed encodings of the same accesses produce identical ones, so
 * `bwsim trace pack` never invalidates a cache.
 */
void writeCanonicalTrace(ByteWriter &w, const TraceData &t);

/**
 * Decode @p count canonical records from @p canon into @p t.records,
 * checking each tag against @p t.ctaTagged and traceMaxCtas. False on
 * a size mismatch, a bad op or a bad tag; when the fault is a tag out
 * of range and @p why is set, it receives that diagnostic.
 */
bool decodeCanonicalTrace(std::string_view canon, std::uint64_t count,
                          TraceData &t, std::string *why);

/**
 * Parse the text format from @p in (streaming; the file is never
 * slurped). On success fills a sealed @p out and returns true; on any
 * malformed input fills @p err with a "<name>:<line>: ..." message
 * and returns false. An empty trace (no records) is an error.
 */
bool parseTextTrace(std::istream &in, const std::string &name,
                    TraceData &out, std::string &err);

/** Serialize @p t to the packed binary encoding. */
std::string packTrace(const TraceData &t);

/**
 * Inverse of packTrace(), decoding in place from @p bytes. False with
 * a diagnostic in @p err on a bad envelope, truncation, a CTA tag out
 * of range, or a content-hash mismatch.
 */
bool unpackTrace(const std::string &bytes, const std::string &name,
                 TraceData &out, std::string &err);

/**
 * Load @p path, sniffing the packed-binary magic and falling back to
 * the text parser. A packed file is read once, whole; a text file is
 * streamed. Null with a diagnostic in @p err on any failure.
 */
std::shared_ptr<const TraceData> loadTraceFile(const std::string &path,
                                               std::string &err);

/**
 * One warp's replay of a sealed trace. A tagged warp steps through
 * its CTA's slice of the replay index with stride warpsPerCta from
 * warp_in_cta; an untagged one steps through the records with stride
 * num_ctas * warps_per_cta from its global warp index.
 */
class TraceReplayCursor final : public TraceCursor
{
  public:
    TraceReplayCursor(std::shared_ptr<const TraceData> trace,
                      int num_ctas, int warps_per_cta,
                      std::uint64_t cta_seq, int warp_in_cta,
                      std::uint32_t line_bytes);

    bool next(WarpInstData &out) override;
    Addr nextPc() const override;
    bool done() const override { return pos >= end; }

  private:
    std::shared_ptr<const TraceData> trace;
    /** Tagged: the trace's ctaOrder; untagged: null (file order). */
    const std::uint32_t *order = nullptr;
    std::size_t pos = 0;    ///< next position in order / records
    std::size_t end = 0;    ///< one past this warp's last position
    std::size_t stride = 1; ///< distance between this warp's positions
    std::uint32_t line;
    std::uint64_t instSeq = 0; ///< instructions emitted (PC loop)
};

} // namespace bwsim

#endif // BWSIM_WORKLOADS_TRACE_SOURCE_HH
