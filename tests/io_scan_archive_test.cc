// Tests for scan persistence (io/scan_archive.h): the binary archive
// round-trip (including on real scan results), every declared length past
// the end refused before anything is allocated for it, archive files (one
// CRC-checked frame, published atomically), and the text/CSV writers.

#include "io/scan_archive.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/tracer.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"
#include "thread_allocations.h"

namespace flashroute::io {
namespace {

core::ScanResult sample_result() {
  core::ScanResult result;
  result.interfaces = {0xC8000001, 0xC8000005, 0x01020301};
  result.routes.resize(4);
  result.routes[0] = {{0xC8000001, 1, 0},
                      {0xC8000005, 2, core::RouteHop::kExtraScan}};
  result.routes[2] = {{0x01020301, 9, core::RouteHop::kFromDestination}};
  result.destination_distance = {0, 0, 9, 0};
  result.trigger_ttl = {0, 0, 9, 0};
  result.measured_distance = {0, 0, 9, 0};
  result.predicted_distance = {9, 0, 0, 9};
  result.probes_sent = 12345;
  result.preprobe_probes = 4;
  result.responses = 100;
  result.mismatches = 2;
  result.destinations_reached = 1;
  result.distances_measured = 1;
  result.distances_predicted = 2;
  result.convergence_stops = 3;
  result.scan_time = 98'765'432'100;
  result.preprobe_time = 1'234'567;
  return result;
}

TEST(Archive, RoundTripsSyntheticResult) {
  const auto original = sample_result();
  const ArchiveHeader header{0x010200, 2, 77};
  Writer bytes;
  write_archive(original, header, bytes);

  const auto loaded = read_archive(bytes.str());
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->header.first_prefix, header.first_prefix);
  EXPECT_EQ(loaded->header.prefix_bits, header.prefix_bits);
  EXPECT_EQ(loaded->header.seed, header.seed);

  const auto& result = loaded->result;
  EXPECT_EQ(result.interfaces, original.interfaces);
  EXPECT_EQ(result.destination_distance, original.destination_distance);
  EXPECT_EQ(result.trigger_ttl, original.trigger_ttl);
  EXPECT_EQ(result.measured_distance, original.measured_distance);
  EXPECT_EQ(result.predicted_distance, original.predicted_distance);
  EXPECT_EQ(result.probes_sent, original.probes_sent);
  EXPECT_EQ(result.scan_time, original.scan_time);
  EXPECT_EQ(result.preprobe_time, original.preprobe_time);
  ASSERT_EQ(result.routes.size(), original.routes.size());
  for (std::size_t i = 0; i < result.routes.size(); ++i) {
    ASSERT_EQ(result.routes[i].size(), original.routes[i].size());
    for (std::size_t h = 0; h < result.routes[i].size(); ++h) {
      EXPECT_EQ(result.routes[i][h].ip, original.routes[i][h].ip);
      EXPECT_EQ(result.routes[i][h].ttl, original.routes[i][h].ttl);
      EXPECT_EQ(result.routes[i][h].flags, original.routes[i][h].flags);
    }
  }
}

TEST(Archive, RoundTripsRealScan) {
  sim::SimParams params;
  params.prefix_bits = 8;
  const sim::Topology topology(params);
  core::TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, params.prefix_bits);
  config.preprobe = core::PreprobeMode::kRandom;
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second);
  core::Tracer tracer(config, runtime);
  const auto original = tracer.run();

  Writer bytes;
  write_archive(original, {config.first_prefix, config.prefix_bits, 1},
                bytes);
  const auto loaded = read_archive(bytes.str());
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->result.interfaces, original.interfaces);
  EXPECT_EQ(loaded->result.probes_sent, original.probes_sent);
  EXPECT_EQ(loaded->result.destination_distance,
            original.destination_distance);
  std::size_t original_hops = 0, loaded_hops = 0;
  for (const auto& route : original.routes) original_hops += route.size();
  for (const auto& route : loaded->result.routes) loaded_hops += route.size();
  EXPECT_EQ(loaded_hops, original_hops);
}

TEST(Archive, RejectsBadMagicAndTruncation) {
  EXPECT_FALSE(read_archive("NOPE...."));

  const auto original = sample_result();
  Writer bytes;
  write_archive(original, {0, 1, 0}, bytes);
  const std::string& full = bytes.str();
  for (const std::size_t cut : {4ul, 8ul, full.size() / 2, full.size() - 1}) {
    EXPECT_FALSE(read_archive(full.substr(0, cut))) << "cut at " << cut;
  }
  // Bytes after the archive are damage too.
  EXPECT_FALSE(read_archive(full + '\0'));
}

TEST(Archive, RejectsWrongVersion) {
  Writer bytes;
  bytes.put_raw("FRSC");
  bytes.put_varint(99);  // unsupported version
  EXPECT_FALSE(read_archive(bytes.str()));
}

// --- Declared lengths --------------------------------------------------------

/// The length fields of an archive that size an allocation, in write
/// order.  The interface count sizes none: each is inserted as it is read.
const std::vector<std::string> kLengthFields = {
    "destination_distance", "trigger_ttl", "measured_distance",
    "predicted_distance", "routes", "hops"};

/// An archive of an empty result whose `field` declares `declared` items
/// with only 8 bytes behind them; the hops are those of one route.
std::string archive_declaring(const std::string& field,
                              std::uint64_t declared) {
  Writer bytes;
  bytes.put_raw("FRSC");
  bytes.put_varint(1);  // format version
  for (int i = 0; i < 3 + 10 + 1; ++i) {
    bytes.put_varint(0);  // header, counters, no interfaces
  }
  for (const std::string& length : kLengthFields) {
    if (length == field) break;
    bytes.put_varint(length == "routes" ? 1 : 0);
  }
  bytes.put_varint(declared);
  bytes.put_u64(0);
  return bytes.str();
}

class ArchiveLength : public ::testing::TestWithParam<std::string> {};

// 2^20 items would take 1 MiB as bytes, 8 MiB as hops and 24 MiB as
// routes; none of it may be allocated before the bytes are there.
TEST_P(ArchiveLength, PastTheEndIsRefusedBeforeAllocating) {
  const std::string bytes =
      archive_declaring(GetParam(), std::uint64_t{1} << 20);
  g_thread_largest_allocation = 0;
  EXPECT_FALSE(read_archive(bytes).has_value());
  EXPECT_LT(g_thread_largest_allocation, std::size_t{1} << 16);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ArchiveLength, ::testing::ValuesIn(kLengthFields),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// --- Archive files -----------------------------------------------------------

std::string temp_path(const char* tag) {
  return "/tmp/fr_scan_archive_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".frsc";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string archive_bytes(const core::ScanResult& result,
                          const ArchiveHeader& header) {
  Writer out;
  write_archive(result, header, out);
  return out.str();
}

bool exists(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0;
}

TEST(ArchiveFile, RoundTripsThroughOneVerifiedFrame) {
  const std::string path = temp_path("roundtrip");
  const core::ScanResult original = sample_result();
  const ArchiveHeader header{0x010200, 2, 77};
  ASSERT_TRUE(save_archive_file(path, original, header));
  EXPECT_FALSE(exists(path + ".tmp"));
  // The file is one frame around exactly the FRSC bytes.
  EXPECT_EQ(read_frame_file(path, "FRSA"), archive_bytes(original, header));

  const auto loaded = load_archive_file(path);
  ASSERT_TRUE(loaded);
  EXPECT_EQ(archive_bytes(loaded->result, loaded->header),
            archive_bytes(original, header));
  std::remove(path.c_str());
}

TEST(ArchiveFile, EveryFlippedByteAndABareFrscFileAreRefused) {
  const std::string path = temp_path("flip");
  ASSERT_TRUE(save_archive_file(path, sample_result(), {0x010200, 2, 77}));
  const std::string good = read_file(path);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    write_file(path, bad);
    EXPECT_FALSE(load_archive_file(path)) << "flip at byte " << i;
  }
  // What --archive wrote before archive files carried a CRC.
  write_file(path, archive_bytes(sample_result(), {0x010200, 2, 77}));
  EXPECT_FALSE(load_archive_file(path));
  std::remove(path.c_str());
}

TEST(ArchiveFile, FailedPublishReportsFalseAndLeavesNoTempFile) {
  const std::string missing_dir =
      "/tmp/fr_scan_archive_missing_" +
      std::to_string(static_cast<long>(::getpid()));
  const std::string in_missing = missing_dir + "/a.frsc";
  EXPECT_FALSE(save_archive_file(in_missing, sample_result(), {0, 1, 0}));
  EXPECT_FALSE(exists(missing_dir));
  EXPECT_FALSE(load_archive_file(in_missing));

  // The rename fails when the target is a directory: the directory stays,
  // and the written temp file is removed.
  const std::string dir = temp_path("dir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  EXPECT_FALSE(save_archive_file(dir, sample_result(), {0, 1, 0}));
  EXPECT_FALSE(exists(dir + ".tmp"));
  EXPECT_EQ(::rmdir(dir.c_str()), 0);
}

TEST(TextWriter, ListsRoutesWithAnnotations) {
  const auto result = sample_result();
  std::ostringstream out;
  write_routes_text(
      result, [](std::uint32_t offset) { return (0x010200u + offset) << 8 | 7; },
      0x010200, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("target 1.2.0.7 (prefix 1.2.0.0/24)"),
            std::string::npos);
  EXPECT_NE(text.find("200.0.0.1"), std::string::npos);
  EXPECT_NE(text.find("[extra]"), std::string::npos);
  EXPECT_NE(text.find("[dest]"), std::string::npos);
  EXPECT_NE(text.find("distance 9"), std::string::npos);
  // Empty routes produce no block.
  EXPECT_EQ(text.find("1.2.1.0/24"), std::string::npos);
}

TEST(CsvWriter, OneRowPerHop) {
  const auto result = sample_result();
  std::ostringstream out;
  write_routes_csv(
      result, [](std::uint32_t offset) { return (0x010200u + offset) << 8 | 7; },
      0x010200, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("prefix,target,ttl,hop,kind"), std::string::npos);
  EXPECT_NE(text.find("1.2.0.0,1.2.0.7,1,200.0.0.1,hop"), std::string::npos);
  EXPECT_NE(text.find("1.2.0.0,1.2.0.7,2,200.0.0.5,extra"),
            std::string::npos);
  EXPECT_NE(text.find("1.2.2.0,1.2.2.7,9,1.2.3.1,dest"), std::string::npos);
  // 1 header + 3 hop rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

}  // namespace
}  // namespace flashroute::io
