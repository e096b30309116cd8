// Tests for the byte codec (io/codec.h): varint coding, and the Reader's
// latched failure on a truncated or overlong varint and on a count the
// bytes left cannot hold.  The fixed-width and string layouts are pinned
// by the format goldens (core_checkpoint_test, svc_journal_test,
// svc_wire_fuzz_test, svc_daemon_test) and the latching by the wire fuzz.

#include "io/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace flashroute::io {
namespace {

TEST(Varint, RoundTripsBoundaryValues) {
  for (const std::uint64_t value :
       {0ull, 1ull, 127ull, 128ull, 129ull, 16383ull, 16384ull,
        0xFFFFFFFFull, 0x100000000ull, ~0ull}) {
    Writer out;
    out.put_varint(value);
    Reader in(out.str());
    EXPECT_EQ(in.varint(), value);
    EXPECT_TRUE(in.done()) << value;
  }
}

TEST(Varint, SmallValuesAreOneByte) {
  Writer out;
  out.put_varint(100);
  EXPECT_EQ(out.str().size(), 1u);
  out.put_varint(1000);
  EXPECT_EQ(out.str().size(), 3u);  // 1 + 2
}

TEST(Varint, ReadFailsOnTruncation) {
  Reader in("\x80");  // continuation bit, then the end
  EXPECT_EQ(in.varint(), 0u);
  EXPECT_FALSE(in.ok());
}

TEST(Varint, ReadFailsOnOverlongInput) {
  const std::string eleven(11, static_cast<char>(0xFF));
  Reader in(eleven);
  EXPECT_EQ(in.varint(), 0u);
  EXPECT_FALSE(in.ok());
}

TEST(ByteCodec, CountsAreCheckedAgainstTheirItemsMinimumSize) {
  Writer out;
  out.put_varint(2);
  out.put_raw("12345678");  // two items of 4 bytes fit, three do not
  EXPECT_EQ(Reader(out.str()).count(4), 2u);

  Writer over;
  over.put_varint(3);
  over.put_raw("12345678");
  Reader in(over.str());
  EXPECT_EQ(in.count(4), 0u);
  EXPECT_FALSE(in.ok());
}

}  // namespace
}  // namespace flashroute::io
