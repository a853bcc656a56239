/**
 * @file
 * Minimal binary serialization primitives: a bounds-checked
 * little-endian ByteWriter/ByteReader pair plus FNV-1a hashing.
 * Shared by the on-disk SimCache tier and the work-queue job and
 * reply files so every persisted SimResult uses one byte format.
 *
 * The format is deliberately simple: fixed-width little-endian
 * integers, doubles as their IEEE-754 bit pattern, strings and blobs
 * length-prefixed with a u32. A ByteReader never reads past the end
 * of its buffer; the first short read latches ok() == false and every
 * subsequent read returns a zero value, so corrupt or truncated input
 * degrades to a clean rejection instead of undefined behaviour.
 */

#ifndef BWSIM_COMMON_SERDES_HH
#define BWSIM_COMMON_SERDES_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace bwsim
{

/** FNV-1a 64-bit offset basis: the hash of zero bytes. */
constexpr std::uint64_t fnv1a64Basis = 0xcbf29ce484222325ull;

/**
 * FNV-1a 64-bit hash; content checksums and spool file names. Pass
 * the previous result as @p h to continue a hash over a further
 * chunk: hashing in pieces equals hashing the concatenation.
 */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len, std::uint64_t h = fnv1a64Basis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

inline std::uint64_t
fnv1a64(const std::string &s)
{
    return fnv1a64(s.data(), s.size());
}

/** Appends little-endian fields to an in-memory buffer. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** IEEE-754 bit pattern: the round trip is exact, NaNs included. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** u32 length prefix + raw bytes; also used for nested blobs. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf.append(s);
    }

    const std::string &bytes() const { return buf; }
    std::string take() && { return std::move(buf); }

  private:
    std::string buf;
};

/** Bounds-checked reader over a borrowed byte buffer. */
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t size)
        : p(data), n(size)
    {
    }

    explicit ByteReader(const std::string &s) : ByteReader(s.data(), s.size())
    {
    }
    /** The reader borrows its buffer, so a temporary would dangle. */
    explicit ByteReader(std::string &&) = delete;

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return static_cast<std::uint8_t>(p[pos - 1]);
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(p[pos - 4 + i]))
                 << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(p[pos - 8 + i]))
                 << (8 * i);
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str() { return std::string(blob()); }

    /** Like str(), but borrows the bytes from the buffer instead of
     *  copying them; the view lives as long as the buffer does. */
    std::string_view
    blob()
    {
        std::uint32_t len = u32();
        if (!take(len))
            return std::string_view();
        return std::string_view(p + pos - len, len);
    }

    /** False once any read ran past the end of the buffer. */
    bool ok() const { return !fail; }
    std::size_t remaining() const { return n - pos; }

  private:
    /** Advance @p count bytes; latch failure when they are not there. */
    bool
    take(std::size_t count)
    {
        if (fail || count > n - pos) {
            fail = true;
            return false;
        }
        pos += count;
        return true;
    }

    const char *p;
    std::size_t n;
    std::size_t pos = 0;
    bool fail = false;
};

/**
 * Wrap @p payload in a self-validating envelope: magic, format
 * version, FNV-1a checksum of the payload, then the length-prefixed
 * payload itself. The shape mirrors the on-disk SimCache header, and
 * the work-queue job/reply files use it directly.
 */
inline std::string
frameBlob(std::uint32_t magic, std::uint32_t version,
          const std::string &payload)
{
    ByteWriter w;
    w.u32(magic);
    w.u32(version);
    w.u64(fnv1a64(payload));
    w.str(payload);
    return std::move(w).take();
}

/**
 * Inverse of frameBlob(). True and point @p payload_out into @p data
 * (no copy) only when the magic and version match, the checksum
 * validates, and no bytes trail the envelope; any truncation or bit
 * flip is a clean false.
 */
inline bool
unframeBlob(std::uint32_t magic, std::uint32_t version,
            std::string_view data, std::string_view &payload_out)
{
    ByteReader r(data.data(), data.size());
    if (r.u32() != magic || r.u32() != version)
        return false;
    const std::uint64_t checksum = r.u64();
    const std::string_view payload = r.blob();
    if (!r.ok() || r.remaining() != 0 ||
        fnv1a64(payload.data(), payload.size()) != checksum)
        return false;
    payload_out = payload;
    return true;
}

/** unframeBlob() into an owned copy of the payload. */
inline bool
unframeBlob(std::uint32_t magic, std::uint32_t version,
            const std::string &data, std::string &payload_out)
{
    std::string_view payload;
    if (!unframeBlob(magic, version, data, payload))
        return false;
    payload_out.assign(payload);
    return true;
}

} // namespace bwsim

#endif // BWSIM_COMMON_SERDES_HH
