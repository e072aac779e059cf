#include "util/serialize.h"

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/rng.h"
#include "util/time.h"

namespace concilium::util {
namespace {

TEST(Serialize, ScalarRoundTrip) {
    ByteWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.f64(3.14159);

    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
    EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, StringAndBytesRoundTrip) {
    ByteWriter w;
    w.str("hello overlay");
    const std::vector<std::uint8_t> blob{1, 2, 3, 255};
    w.bytes(blob);
    w.str("");  // empty strings are legal

    ByteReader r(w.data());
    EXPECT_EQ(r.str(), "hello overlay");
    EXPECT_EQ(r.bytes(), blob);
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, NodeIdRoundTrip) {
    Rng rng(1);
    const NodeId id = NodeId::random(rng);
    ByteWriter w;
    w.node_id(id);
    EXPECT_EQ(w.size(), static_cast<std::size_t>(NodeId::kBytes));
    ByteReader r(w.data());
    EXPECT_EQ(r.node_id(), id);
}

TEST(Serialize, TruncatedReadsThrow) {
    ByteWriter w;
    w.u32(7);
    {
        ByteReader r(w.data());
        EXPECT_THROW(r.u64(), std::out_of_range);
    }
    // Length prefix claiming more bytes than present.
    ByteWriter w2;
    w2.u32(100);  // looks like a 100-byte string header
    ByteReader r2(w2.data());
    EXPECT_THROW(r2.str(), std::out_of_range);
}

TEST(Serialize, CountMustFitTheBytesLeft) {
    ByteWriter w;
    w.u32(2);
    w.u32(0xAAAAAAAA);
    w.u32(0xBBBBBBBB);
    {
        ByteReader r(w.data());
        EXPECT_EQ(r.count(4), 2u);  // two u32 elements fit exactly
    }
    {
        ByteReader r(w.data());
        EXPECT_THROW(r.count(5), std::out_of_range);
    }
    ByteWriter huge;
    huge.u32(0xFFFFFFFF);
    huge.u8(0);
    ByteReader r(huge.data());
    EXPECT_THROW(r.count(), std::out_of_range);
}

TEST(Serialize, RemainingTracksProgress) {
    ByteWriter w;
    w.u32(1);
    w.u32(2);
    ByteReader r(w.data());
    EXPECT_EQ(r.remaining(), 8u);
    r.u32();
    EXPECT_EQ(r.remaining(), 4u);
    r.u32();
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, LittleEndianLayout) {
    ByteWriter w;
    w.u32(0x01020304u);
    ASSERT_EQ(w.size(), 4u);
    EXPECT_EQ(w.data()[0], 0x04);
    EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Serialize, RandomizedRoundTripFuzz) {
    Rng rng(99);
    for (int round = 0; round < 50; ++round) {
        ByteWriter w;
        std::vector<std::uint64_t> values;
        const int n = 1 + static_cast<int>(rng.uniform_index(20));
        for (int i = 0; i < n; ++i) {
            values.push_back(rng.uniform_u64());
            w.u64(values.back());
        }
        ByteReader r(w.data());
        for (const std::uint64_t v : values) EXPECT_EQ(r.u64(), v);
        EXPECT_TRUE(r.exhausted());
    }
}

TEST(SimTime, UnitConversions) {
    EXPECT_EQ(kSecond, 1'000'000);
    EXPECT_EQ(kMinute, 60 * kSecond);
    EXPECT_EQ(kHour, 3600 * kSecond);
    EXPECT_DOUBLE_EQ(to_seconds(90 * kSecond), 90.0);
    EXPECT_EQ(from_seconds(2.5), 2'500'000);
}

TEST(Logging, LevelGateWorks) {
    const LogLevel old = log_level();
    set_log_level(LogLevel::kError);
    EXPECT_EQ(log_level(), LogLevel::kError);
    // Below-threshold logging is a no-op (no crash, no assertion).
    log_debug("invisible ", 42);
    log_info("also invisible");
    set_log_level(old);
}

}  // namespace
}  // namespace concilium::util
