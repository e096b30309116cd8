// Robustness tests: every parser in the receive path must survive
// adversarial bytes without crashing or reading out of bounds.  A live
// scanner's raw socket hands it arbitrary Internet traffic; "parse or
// reject, never misbehave" is a hard requirement.

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "core/probe_codec.h"
#include "io/pcap.h"
#include "io/scan_archive.h"
#include "net/headers.h"
#include "net/icmp.h"
#include "net/packet.h"
#include "util/rng.h"

namespace flashroute {
namespace {

std::vector<std::byte> random_bytes(util::Xoshiro256& rng,
                                    std::size_t length) {
  std::vector<std::byte> bytes(length);
  for (auto& b : bytes) b = std::byte(rng.bounded(256));
  return bytes;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, ParseResponseNeverMisbehavesOnRandomBytes) {
  util::Xoshiro256 rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, rng.bounded(120));
    // Must not crash; accepted packets must be self-consistent.
    const auto parsed = net::parse_response(bytes);
    if (parsed && parsed->is_icmp) {
      EXPECT_TRUE(parsed->icmp_type == net::kIcmpTimeExceeded ||
                  parsed->icmp_type == net::kIcmpDestUnreachable);
    }
  }
}

TEST_P(FuzzSeeds, ParseResponseOnMutatedRealResponses) {
  util::Xoshiro256 rng(GetParam());
  const core::ProbeCodec codec(net::Ipv4Address(0xCB00710A));
  std::array<std::byte, core::ProbeCodec::kMaxProbeSize> buf;
  const std::size_t size = codec.encode_udp(net::Ipv4Address(0x01020304), 16,
                                            false, 123456, buf);
  const auto response = net::craft_icmp_response(
      net::kIcmpTimeExceeded, net::kIcmpCodeTtlExceeded,
      net::Ipv4Address(0xC8000001),
      std::span<const std::byte>(buf.data(), size), 1);
  ASSERT_TRUE(response);

  for (int i = 0; i < 2000; ++i) {
    auto mutated = *response;
    // Flip 1-4 random bytes and possibly truncate.
    const int flips = 1 + static_cast<int>(rng.bounded(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.bounded(mutated.size())] ^= std::byte(1 + rng.bounded(255));
    }
    if (rng.chance(0.3)) {
      mutated.resize(rng.bounded(mutated.size() + 1));
    }
    const auto parsed = net::parse_response(mutated);
    if (parsed && parsed->is_icmp) {
      // Whatever survived must still decode without misbehaving.
      (void)codec.decode(*parsed);
    }
  }
}

TEST_P(FuzzSeeds, HeaderParsersRejectOrAcceptCleanly) {
  util::Xoshiro256 rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const auto bytes = random_bytes(rng, rng.bounded(64));
    {
      net::ByteReader reader(bytes);
      (void)net::Ipv4Header::parse(reader);
    }
    {
      net::ByteReader reader(bytes);
      (void)net::UdpHeader::parse(reader);
    }
    {
      net::ByteReader reader(bytes);
      (void)net::TcpHeader::parse(reader);
    }
    {
      net::ByteReader reader(bytes);
      (void)net::IcmpHeader::parse(reader);
    }
    (void)net::verify_ipv4_checksum(bytes);
  }
}

TEST_P(FuzzSeeds, ArchiveReaderSurvivesGarbage) {
  util::Xoshiro256 rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    auto bytes = random_bytes(rng, rng.bounded(400));
    if (rng.chance(0.5) && bytes.size() >= 4) {
      // Give it the right magic so it digs deeper before failing.
      bytes[0] = std::byte{'F'};
      bytes[1] = std::byte{'R'};
      bytes[2] = std::byte{'S'};
      bytes[3] = std::byte{'C'};
    }
    const std::string_view archive(
        reinterpret_cast<const char*>(bytes.data()), bytes.size());
    (void)io::read_archive(archive);  // must not crash or hang
  }
}

TEST_P(FuzzSeeds, PcapReaderSurvivesGarbage) {
  util::Xoshiro256 rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    auto bytes = random_bytes(rng, rng.bounded(400));
    if (rng.chance(0.5) && bytes.size() >= 4) {
      bytes[0] = std::byte{0x4D};  // little-endian nanosecond magic
      bytes[1] = std::byte{0x3C};
      bytes[2] = std::byte{0xB2};
      bytes[3] = std::byte{0xA1};
    }
    std::stringstream stream(
        std::string(reinterpret_cast<const char*>(bytes.data()),
                    bytes.size()));
    (void)io::read_pcap(stream);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace flashroute
