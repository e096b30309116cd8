// Tests for the multi-job archive (io::JobArchive): framed append +
// round-trip, latest-record-wins lookups, concurrent appends from many
// threads keeping the index in file order, the job-id index surviving
// any single-bit flip, and an archive in the previous (CRC-less) format
// refused untouched.  The framing and recovery rules themselves (torn
// tails, foreign files) are io_record_log_test's.

#include "io/scan_archive.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace flashroute::io {
namespace {

std::string temp_path(const char* tag) {
  return "/tmp/fr_job_archive_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".bin";
}

core::ScanResult sample_result(std::uint64_t salt) {
  core::ScanResult result;
  result.probes_sent = 100 + salt;
  result.responses = 50 + salt;
  result.interfaces.insert(static_cast<std::uint32_t>(0x0A000001 + salt));
  result.interfaces.insert(static_cast<std::uint32_t>(0x0A000100 + salt));
  result.destination_distance.assign(4, static_cast<std::uint8_t>(salt % 30));
  return result;
}

ArchiveHeader sample_header() {
  ArchiveHeader header;
  header.first_prefix = 0x010000;
  header.prefix_bits = 2;
  header.seed = 7;
  return header;
}

TEST(JobArchive, AppendsAndLoadsFramedRecords) {
  const std::string path = temp_path("roundtrip");
  std::remove(path.c_str());
  {
    JobArchive archive(path);
    ASSERT_TRUE(archive.ok());
    EXPECT_EQ(archive.torn_bytes(), 0u);
    EXPECT_TRUE(archive.index().empty());
    EXPECT_FALSE(archive.load(1).has_value());

    ASSERT_TRUE(archive.append(1, sample_result(1), sample_header()));
    ASSERT_TRUE(archive.append(2, sample_result(2), sample_header()));

    const auto index = archive.index();
    ASSERT_EQ(index.size(), 2u);
    EXPECT_EQ(index[0].job_id, 1u);
    EXPECT_EQ(index[1].job_id, 2u);

    const auto loaded = archive.load(2);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->result.probes_sent, 102u);
    EXPECT_EQ(loaded->header.first_prefix, 0x010000u);

    // The stored payload is exactly the standalone FRSC encoding.
    Writer expected;
    write_archive(sample_result(1), sample_header(), expected);
    const auto payload = archive.payload_bytes(1);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, expected.str());
  }
  // Reopen: the index is rebuilt from the frames on disk.
  {
    JobArchive archive(path);
    ASSERT_TRUE(archive.ok());
    EXPECT_EQ(archive.torn_bytes(), 0u);
    EXPECT_EQ(archive.index().size(), 2u);
    EXPECT_TRUE(archive.load(1).has_value());
  }
  std::remove(path.c_str());
}

TEST(JobArchive, LatestRecordWinsForARepeatedJobId) {
  const std::string path = temp_path("latest");
  std::remove(path.c_str());
  JobArchive archive(path);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive.append(5, sample_result(1), sample_header()));
  ASSERT_TRUE(archive.append(5, sample_result(9), sample_header()));
  const auto loaded = archive.load(5);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->result.probes_sent, 109u);
  std::remove(path.c_str());
}

TEST(JobArchive, ConcurrentAppendsNeverInterleave) {
  const std::string path = temp_path("concurrent");
  std::remove(path.c_str());
  std::vector<JobArchive::Entry> index;
  {
    JobArchive archive(path);
    ASSERT_TRUE(archive.ok());

    constexpr int kThreads = 8;
    constexpr int kPerThread = 16;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&archive, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const auto job =
              static_cast<std::uint64_t>(t * kPerThread + i + 1);
          ASSERT_TRUE(archive.append(job, sample_result(job),
                                     sample_header()));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    index = archive.index();
    ASSERT_EQ(index.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    // Every record is intact and attributed to the right job.
    for (std::uint64_t job = 1; job <= kThreads * kPerThread; ++job) {
      const auto loaded = archive.load(job);
      ASSERT_TRUE(loaded.has_value()) << "job " << job;
      EXPECT_EQ(loaded->result.probes_sent, 100 + job);
    }
  }
  // The file on disk is frame-clean, and the live index was already in
  // the file order a reopen rebuilds.
  {
    JobArchive archive(path);
    ASSERT_TRUE(archive.ok());
    EXPECT_EQ(archive.torn_bytes(), 0u);
    const auto rebuilt = archive.index();
    ASSERT_EQ(rebuilt.size(), index.size());
    for (std::size_t i = 0; i < index.size(); ++i) {
      EXPECT_EQ(rebuilt[i].job_id, index[i].job_id) << "entry " << i;
      EXPECT_EQ(rebuilt[i].frame.offset, index[i].frame.offset);
    }
  }
  std::remove(path.c_str());
}

// Every single-bit flip of a three-record archive costs exactly the
// record it lands in: the other two jobs stay indexed and load their
// original bytes.
TEST(JobArchive, EverySingleBitFlipCostsOnlyThatRecord) {
  const std::string path = temp_path("bitflip");
  std::remove(path.c_str());
  std::vector<std::string> payloads;
  std::vector<std::uint64_t> ends;
  {
    JobArchive archive(path);
    for (std::uint64_t job = 1; job <= 3; ++job) {
      ASSERT_TRUE(archive.append(job, sample_result(job), sample_header()));
      payloads.push_back(*archive.payload_bytes(job));
    }
    for (const JobArchive::Entry& entry : archive.index()) {
      ends.push_back(entry.frame.offset + entry.frame.size + 4);
    }
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(ends.back(), bytes.size());

  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    const std::uint64_t damaged =
        1 + static_cast<std::uint64_t>(
                std::upper_bound(ends.begin(), ends.end(), bit / 8) -
                ends.begin());
    JobArchive archive(path);
    ASSERT_TRUE(archive.ok()) << "bit=" << bit;
    ASSERT_EQ(archive.index().size(), 2u) << "bit=" << bit;
    for (std::uint64_t job = 1; job <= 3; ++job) {
      const auto payload = archive.payload_bytes(job);
      if (job == damaged) {
        EXPECT_FALSE(payload.has_value()) << "bit=" << bit;
      } else {
        EXPECT_EQ(payload, payloads[job - 1]) << "bit=" << bit;
      }
    }
  }
  std::remove(path.c_str());
}

// Archives written before frames carried a CRC framed each payload as
// magic, size, job id, payload, "JEND", size.  No such frame verifies, so
// an older archive — whole, or one record long — is refused and left
// byte-identical rather than taken for a torn tail and cut.
TEST(JobArchive, PreviousFormatArchiveIsRefusedAndLeftUntouched) {
  const std::string path = temp_path("previous");
  std::remove(path.c_str());
  std::vector<std::string> frames;
  {
    JobArchive archive(path);
    for (std::uint64_t job = 1; job <= 2; ++job) {
      ASSERT_TRUE(archive.append(job, sample_result(job), sample_header()));
      const std::string payload = *archive.payload_bytes(job);
      std::string size;
      for (int i = 0; i < 4; ++i) {
        size.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xFF));
      }
      std::string id(8, '\0');
      id[0] = static_cast<char>(job);
      frames.push_back("FRSJ" + size + id + payload + "JEND" + size);
    }
  }
  for (const std::string& bytes : {frames[0] + frames[1], frames[0]}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    {
      JobArchive archive(path);
      EXPECT_FALSE(archive.ok());
      EXPECT_FALSE(archive.append(3, sample_result(3), sample_header()));
    }
    std::ifstream in(path, std::ios::binary);
    EXPECT_EQ(std::string((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>()),
              bytes);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flashroute::io
