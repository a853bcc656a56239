/**
 * @file
 * Tests for the binary serialization primitives (common/serdes.hh):
 * exact round trips, bounds-checked reads on truncated input, and the
 * FNV-1a hash used for checksums and spool file names.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/serdes.hh"

using namespace bwsim;

TEST(Serdes, IntegerRoundTrip)
{
    ByteWriter w;
    w.u8(0);
    w.u8(255);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.u64(std::numeric_limits<std::uint64_t>::max());

    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.u8(), 255u);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serdes, DoubleRoundTripIsBitExact)
{
    const double values[] = {0.0,
                             -0.0,
                             1.0,
                             -3.14159265358979,
                             1e-300,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity()};
    ByteWriter w;
    for (double v : values)
        w.f64(v);
    w.f64(std::nan(""));

    ByteReader r(w.bytes());
    for (double v : values) {
        double got = r.f64();
        EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
    }
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_TRUE(r.ok());
}

TEST(Serdes, StringRoundTrip)
{
    ByteWriter w;
    w.str("");
    w.str("hello");
    w.str(std::string("emb\0edded", 9));

    ByteReader r(w.bytes());
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), std::string("emb\0edded", 9));
    EXPECT_TRUE(r.ok());
}

TEST(Serdes, TruncatedReadLatchesFailure)
{
    ByteWriter w;
    w.u32(7);
    std::string bytes = w.bytes().substr(0, 2); // half a u32

    ByteReader r(bytes);
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_FALSE(r.ok());
    // Failure latches: every later read is a zero value, no matter
    // how many bytes remain.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

TEST(Serdes, StringLengthBeyondBufferFails)
{
    ByteWriter w;
    w.u32(1000); // claims 1000 bytes follow
    w.u8('x');

    ByteReader r(w.bytes());
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
}

TEST(Serdes, EmptyBufferFailsCleanly)
{
    ByteReader r("", 0);
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(Serdes, Fnv1a64KnownVectors)
{
    // Reference values of the standard 64-bit FNV-1a parameters.
    EXPECT_EQ(fnv1a64(std::string()), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64(std::string("a")), 0xaf63dc4c8601ec8cull);
    EXPECT_NE(fnv1a64(std::string("abc")), fnv1a64(std::string("acb")));
}
