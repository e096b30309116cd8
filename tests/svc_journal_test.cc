// Tests for the write-ahead job journal (svc/journal.h): every record kind
// round-trips across a reopen and is handed over exactly once, appends
// after recovery extend the file,
// every durability mode writes a readable journal, a single-bit flip
// costs exactly the record it lands in, and a journal in the previous
// (CRC-less) format is refused untouched.  The framing and recovery rules
// themselves (truncation prefixes, the mutation fuzz) are
// io_record_log_test's.

#include "svc/journal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "svc/wire.h"

namespace flashroute::svc {
namespace {

std::string temp_path(const char* tag) {
  return "/tmp/fr_journal_test_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".frwj";
}

JournalRecord sample_record(JournalKind kind, std::uint64_t job_id) {
  JournalRecord record;
  record.kind = kind;
  record.job_id = job_id;
  record.spec.name = "journal-job-" + std::to_string(job_id);
  record.spec.prefix_bits = 10;
  record.spec.first_prefix = 0x0a000000u + static_cast<std::uint32_t>(job_id);
  record.spec.scan_seed = 40 + job_id;
  record.spec.probes_per_second = 5000.0 + static_cast<double>(job_id);
  record.spec.priority = static_cast<int>(job_id % 3);
  record.spec.request_key = "key-" + std::to_string(job_id);
  record.reason = "reason " + std::to_string(static_cast<int>(kind));
  record.detail = "detail for job " + std::to_string(job_id);
  record.probes = 1000 * job_id;
  record.slices = job_id;
  return record;
}

std::string spec_bytes(const JobSpec& spec) {
  io::Writer w;
  encode_spec(w, spec);
  return w.str();
}

/// `a` is `b` read back, with `b`'s spec only when its kind carries one.
void expect_records_equal(const JournalRecord& a, const JournalRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  const bool carries_spec =
      b.kind == JournalKind::kAdmitted || b.kind == JournalKind::kRejected;
  EXPECT_EQ(spec_bytes(a.spec), spec_bytes(carries_spec ? b.spec : JobSpec{}));
  EXPECT_EQ(a.job_id, b.job_id);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.slices, b.slices);
}

std::vector<JournalRecord> all_kinds_fixture() {
  std::vector<JournalRecord> records;
  records.push_back(sample_record(JournalKind::kAdmitted, 1));
  records.push_back(sample_record(JournalKind::kRejected, 2));
  records.push_back(sample_record(JournalKind::kStarted, 1));
  records.push_back(sample_record(JournalKind::kBarrier, 1));
  records.push_back(sample_record(JournalKind::kCompleted, 1));
  records.push_back(sample_record(JournalKind::kCancelled, 3));
  records.push_back(sample_record(JournalKind::kFailed, 4));
  return records;
}

/// Writes the fixture through a real journal and returns the file bytes.
std::string build_fixture_file(const std::string& path,
                               Durability durability = Durability::kFlush) {
  std::remove(path.c_str());
  {
    JobJournal journal(path, durability);
    EXPECT_TRUE(journal.ok());
    for (const JournalRecord& record : all_kinds_fixture()) {
      EXPECT_TRUE(journal.append(record));
    }
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty());
  return bytes;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(JobJournal, ParseDurabilityCoversCliValues) {
  EXPECT_EQ(io::parse_durability("flush"), Durability::kFlush);
  EXPECT_EQ(io::parse_durability("fsync"), Durability::kFsync);
  EXPECT_FALSE(io::parse_durability("none").has_value());
  EXPECT_FALSE(io::parse_durability("").has_value());
  EXPECT_FALSE(io::parse_durability("fsync ").has_value());
  EXPECT_FALSE(io::parse_durability("paranoid").has_value());
}

TEST(JobJournal, RecordsRoundTripAcrossReopenForEveryKind) {
  const std::string path = temp_path("roundtrip");
  const std::vector<JournalRecord> written = all_kinds_fixture();
  build_fixture_file(path);

  JobJournal journal(path, Durability::kFlush);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal.torn_bytes(), 0u);
  const std::vector<JournalRecord> records = journal.take_records();
  ASSERT_EQ(records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    expect_records_equal(records[i], written[i]);
  }
  // Handed over once: the journal keeps no copy.
  EXPECT_TRUE(journal.take_records().empty());
  std::remove(path.c_str());
}

TEST(JobJournal, AppendAfterRecoveryExtendsTheFile) {
  const std::string path = temp_path("extend");
  build_fixture_file(path);
  {
    JobJournal journal(path, Durability::kFlush);
    ASSERT_TRUE(journal.ok());
    EXPECT_TRUE(journal.append(sample_record(JournalKind::kAdmitted, 9)));
  }
  JobJournal reopened(path, Durability::kFlush);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.torn_bytes(), 0u);
  const std::vector<JournalRecord> records = reopened.take_records();
  ASSERT_EQ(records.size(), all_kinds_fixture().size() + 1);
  expect_records_equal(records.back(),
                       sample_record(JournalKind::kAdmitted, 9));
  std::remove(path.c_str());
}

TEST(JobJournal, DurabilityModesAllProduceReadableJournals) {
  for (const char* name : {"flush", "fsync"}) {
    const std::string path = temp_path(name);
    build_fixture_file(path, *io::parse_durability(name));
    JobJournal reopened(path, Durability::kFlush);
    ASSERT_TRUE(reopened.ok()) << name;
    EXPECT_EQ(reopened.torn_bytes(), 0u);
    EXPECT_EQ(reopened.take_records().size(), all_kinds_fixture().size());
    std::remove(path.c_str());
  }
}

// Pins every byte of the journal format: one record of each kind, the
// admission ones carrying a spec whose every field differs from JobSpec's
// default.  Re-recorded when JobSpec became a ScanSpec plus its scheduling
// fields (it was 0x6e085276e51689c5): the magic went from "FRWJ" to
// "FRJ2", the spec gained the preprobe mode, proximity span, extra scans,
// redundancy removal, forward probing, retransmit timeout and the eight
// faults, and only admitted and rejected records carry it.
TEST(JobJournal, FileOfEveryKindMatchesItsGoldenBytes) {
  const std::string path = temp_path("golden");
  std::remove(path.c_str());
  {
    JobJournal journal(path, Durability::kFlush);
    ASSERT_TRUE(journal.ok());
    for (JournalRecord record : all_kinds_fixture()) {
      JobSpec& spec = record.spec;
      spec.topology_seed = 100 + record.job_id;
      spec.target_seed = 200 + record.job_id;
      spec.split_ttl = 12;
      spec.gap_limit = 3;
      spec.max_ttl = 24;
      spec.preprobe = core::PreprobeMode::kRandom;
      spec.proximity_span = 4;
      spec.extra_scans = 1;
      spec.redundancy_removal = false;
      spec.forward_probing = false;
      spec.collect_routes = false;
      spec.min_round_duration = 7 * util::kMillisecond;
      spec.max_retransmits = 2;
      spec.retransmit_timeout = 90 * util::kMillisecond;
      spec.adaptive_backoff = true;
      spec.checkpoint_interval = 300 * util::kMillisecond;
      spec.fault_probe_loss = 0.01;
      spec.fault_response_loss = 0.02;
      spec.fault_duplicate = 0.03;
      spec.fault_reorder = 0.04;
      spec.fault_corrupt = 0.05;
      spec.fault_blackhole = 0.06;
      spec.fault_flap = 0.07;
      spec.fault_send_fail = 0.08;
      spec.priority = 1 + static_cast<int>(record.job_id);
      spec.weight = 0.5 + static_cast<double>(record.job_id);
      ASSERT_TRUE(journal.append(record));
    }
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(digest, 0x5bb7cfbf47c53a48ULL) << std::hex << digest;
  std::remove(path.c_str());
}

// A started, barrier or terminal record carries its counters, reason and
// detail, and no spec: the frame's payload is 27 bytes plus the two
// strings, where a spec-carrying payload once took 104 for an empty pair.
TEST(JobJournal, OnlyAdmissionRecordsCarryTheSpec) {
  const std::string path = temp_path("per_kind");
  for (const JournalKind kind :
       {JournalKind::kAdmitted, JournalKind::kStarted, JournalKind::kBarrier,
        JournalKind::kCompleted, JournalKind::kFailed}) {
    std::remove(path.c_str());
    JournalRecord record;
    record.kind = kind;
    record.job_id = 5;
    record.probes = 1234;
    record.slices = 2;
    record.detail = "why";
    {
      JobJournal journal(path, Durability::kFlush);
      ASSERT_TRUE(journal.append(record));
    }
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const std::size_t payload = bytes.size() - 12;  // magic, size, CRC
    io::Writer spec;
    encode_spec(spec, record.spec);
    const std::size_t expected =
        27 + record.detail.size() +
        (kind == JournalKind::kAdmitted ? spec.str().size() : 0);
    EXPECT_EQ(payload, expected) << static_cast<int>(kind);
    JobJournal reopened(path, Durability::kFlush);
    const std::vector<JournalRecord> records = reopened.take_records();
    ASSERT_EQ(records.size(), 1u);
    expect_records_equal(records[0], record);
  }
  std::remove(path.c_str());
}

// Every single-bit flip of a three-record journal costs exactly the
// record it lands in; the other two are recovered intact.
TEST(JobJournal, EverySingleBitFlipCostsOnlyThatRecord) {
  const std::string path = temp_path("bitflip");
  std::remove(path.c_str());
  const std::vector<JournalRecord> written = {
      sample_record(JournalKind::kAdmitted, 1),
      sample_record(JournalKind::kBarrier, 1),
      sample_record(JournalKind::kCompleted, 1)};
  std::vector<std::size_t> ends;
  {
    JobJournal journal(path, Durability::kFlush);
    for (const JournalRecord& record : written) {
      ASSERT_TRUE(journal.append(record));
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      ends.push_back(static_cast<std::size_t>(in.tellg()));
    }
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());

  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
    write_bytes(path, flipped);
    const std::size_t damaged = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), bit / 8) - ends.begin());
    JobJournal journal(path, Durability::kFlush);
    ASSERT_TRUE(journal.ok()) << "bit=" << bit;
    const std::vector<JournalRecord> records = journal.take_records();
    ASSERT_EQ(records.size(), 2u) << "bit=" << bit;
    std::size_t next = 0;
    for (std::size_t i = 0; i < written.size(); ++i) {
      if (i != damaged) expect_records_equal(records[next++], written[i]);
    }
  }
  std::remove(path.c_str());
}

// Journals written before frames carried a CRC end each frame with a copy
// of its size instead.  No such frame verifies, so an older journal —
// whole, or one record long — is refused and left byte-identical rather
// than taken for a torn tail and cut.
TEST(JobJournal, PreviousFormatJournalIsRefusedAndLeftUntouched) {
  const std::string path = temp_path("previous");
  std::string previous = build_fixture_file(path);
  std::size_t first_end = 0;
  for (std::size_t at = 0; at < previous.size();) {
    const std::string size = previous.substr(at + 4, 4);
    std::size_t payload = 0;
    for (int i = 3; i >= 0; --i) {
      payload = payload << 8 | static_cast<unsigned char>(size[i]);
    }
    at += 12 + payload;
    previous.replace(at - 4, 4, size);  // the size echo, not a CRC
    if (first_end == 0) first_end = at;
  }
  for (const std::string& bytes : {previous, previous.substr(0, first_end)}) {
    write_bytes(path, bytes);
    {
      JobJournal journal(path, Durability::kFlush);
      EXPECT_FALSE(journal.ok());
      EXPECT_FALSE(journal.append(sample_record(JournalKind::kAdmitted, 9)));
    }
    std::ifstream in(path, std::ios::binary);
    EXPECT_EQ(std::string((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>()),
              bytes);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flashroute::svc
