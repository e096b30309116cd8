// Format-level tests for io::RecordLog, the one framed log under the job
// journal, the job archive and checkpoint files: every truncation prefix
// recovers the longest whole-frame prefix; every single-bit flip is
// detected and costs only its frame; a damaged frame mid-file is skipped
// and left in place; a foreign file, or a lone frame that fails its CRC,
// is refused untouched; seeded byte mutations never trap and never yield
// a record that was not written; concurrent appends never interleave.
// Seeds are fixed
// (util::Xoshiro256), so any failure is a deterministic repro.  CI runs
// this suite under ASan (the mutation fuzz) and TSan (the concurrent
// appends).

#include "io/record_log.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace flashroute::io {
namespace {

constexpr char kMagic[] = "TLOG";

std::string temp_path(const char* tag) {
  return "/tmp/fr_record_log_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".log";
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

/// What one open of a log recovered.
struct Opened {
  bool ok = false;
  std::vector<std::string> heads;
  std::vector<RecordLog::Frame> frames;
  std::uint64_t torn = 0;
  std::uint64_t corrupt = 0;
};

Opened open_log(const std::string& path,
                std::size_t peek = std::numeric_limits<std::size_t>::max()) {
  Opened opened;
  RecordLog log(path, kMagic, Durability::kFlush, "test.append", peek,
                [&opened](const RecordLog::Frame& frame,
                          std::string_view head) {
                  opened.frames.push_back(frame);
                  opened.heads.emplace_back(head);
                });
  opened.ok = log.ok();
  opened.torn = log.torn_bytes();
  opened.corrupt = log.corrupt_bytes();
  return opened;
}

std::vector<std::string> fixture_payloads(std::size_t count) {
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < count; ++i) {
    // Distinct lengths and contents; never the magic.
    payloads.push_back("payload-" + std::to_string(i) + "-" +
                       std::string(5 + 7 * i, static_cast<char>('a' + i)));
  }
  return payloads;
}

/// Writes `payloads` through a fresh log; returns the file bytes and each
/// frame's end offset.
std::string build_log(const std::string& path,
                      const std::vector<std::string>& payloads,
                      std::vector<std::uint64_t>* ends = nullptr) {
  std::remove(path.c_str());
  {
    RecordLog log(path, kMagic, Durability::kFlush, "test.append", 0,
                  [](const RecordLog::Frame&, std::string_view) {});
    EXPECT_TRUE(log.ok());
    for (const std::string& payload : payloads) {
      const auto frame = log.append(payload);
      EXPECT_TRUE(frame.has_value());
      if (ends != nullptr && frame.has_value()) {
        ends->push_back(frame->offset + frame->size + 4);
      }
    }
  }
  return read_file(path);
}

TEST(RecordLog, Crc32cMatchesTheCastagnoliCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(0, check), 0xE3069283u);
  // Continuing a checksum across any split gives the one-shot value, so
  // the slice-by-8 body and the byte tail agree.
  const std::string text = "record log frames are checked by CRC32C!";
  const std::uint32_t whole = crc32c(0, text);
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::string_view view(text);
    EXPECT_EQ(crc32c(crc32c(0, view.substr(0, cut)), view.substr(cut)), whole)
        << "cut=" << cut;
  }
}

// For EVERY truncation prefix, recovery keeps exactly the frames that fit
// whole within it, cuts the rest in place, and leaves a file a second open
// reads back clean.
TEST(RecordLog, EveryTruncationPrefixRecoversLongestValidPrefix) {
  const std::string path = temp_path("trunc");
  const std::vector<std::string> payloads = fixture_payloads(7);
  std::vector<std::uint64_t> ends;
  const std::string bytes = build_log(path, payloads, &ends);
  ASSERT_EQ(ends.size(), payloads.size());
  ASSERT_EQ(ends.back(), bytes.size());

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    write_file(path, bytes.substr(0, cut));
    std::size_t expect_frames = 0;
    std::uint64_t expect_kept = 0;
    for (std::size_t i = 0; i < ends.size(); ++i) {
      if (ends[i] <= cut) {
        expect_frames = i + 1;
        expect_kept = ends[i];
      }
    }

    const Opened first = open_log(path);
    ASSERT_TRUE(first.ok) << "cut=" << cut;
    ASSERT_EQ(first.heads.size(), expect_frames) << "cut=" << cut;
    for (std::size_t i = 0; i < expect_frames; ++i) {
      EXPECT_EQ(first.heads[i], payloads[i]) << "cut=" << cut;
    }
    EXPECT_EQ(first.torn, cut - expect_kept) << "cut=" << cut;
    EXPECT_EQ(first.corrupt, 0u) << "cut=" << cut;
    EXPECT_EQ(read_file(path), bytes.substr(0, expect_kept)) << "cut=" << cut;

    const Opened second = open_log(path);
    ASSERT_TRUE(second.ok) << "cut=" << cut;
    EXPECT_EQ(second.torn, 0u) << "cut=" << cut;
    EXPECT_EQ(second.heads, first.heads) << "cut=" << cut;
  }
  std::remove(path.c_str());
}

// Seeded structure-unaware mutations: flip/overwrite/truncate/extend the
// file bytes and reopen.  Recovery must never trap (ASan/UBSan enforce),
// never return a record that was not written, and either refuse the file
// untouched or leave one a second open reads identically.
TEST(RecordLog, SeededByteMutationsNeverTrapAndAlwaysLeaveConsistentFile) {
  const std::string path = temp_path("fuzz");
  const std::vector<std::string> payloads = fixture_payloads(7);
  const std::string pristine = build_log(path, payloads);

  util::Xoshiro256 rng(0xF1A5'11CE'5EEDULL);
  int refused = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    std::string bytes = pristine;
    const int edits = 1 + static_cast<int>(rng.bounded(8));
    for (int edit = 0; edit < edits && !bytes.empty(); ++edit) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.bounded(bytes.size()));
      switch (rng.bounded(6)) {
        case 0:
          bytes[pos] = static_cast<char>(
              static_cast<unsigned char>(bytes[pos]) ^
              (1u << (rng.bounded(8))));
          break;
        case 1:
          bytes[pos] = '\x00';
          break;
        case 2:
          bytes[pos] = '\xFF';
          break;
        case 3:
          bytes[pos] = static_cast<char>(rng() & 0xFF);
          break;
        case 4:
          bytes.resize(pos);  // truncate
          break;
        default:
          bytes.append(1 + rng.bounded(16),
                       static_cast<char>(rng() & 0xFF));
          break;
      }
    }
    write_file(path, bytes);

    const Opened first = open_log(path);
    if (!first.ok) {
      ++refused;
      EXPECT_EQ(read_file(path), bytes) << "iteration=" << iteration;
      EXPECT_FALSE(open_log(path).ok) << "iteration=" << iteration;
      continue;
    }
    for (const std::string& head : first.heads) {
      EXPECT_NE(std::find(payloads.begin(), payloads.end(), head),
                payloads.end())
          << "iteration=" << iteration;
    }
    const Opened second = open_log(path);
    ASSERT_TRUE(second.ok) << "iteration=" << iteration;
    EXPECT_EQ(second.torn, 0u) << "iteration=" << iteration;
    EXPECT_EQ(second.heads, first.heads) << "iteration=" << iteration;
    EXPECT_EQ(second.corrupt, first.corrupt) << "iteration=" << iteration;
  }
  // Most rounds keep the log recognisable; the refusals are the ones whose
  // edits hit the first frame's magic and every later frame.
  EXPECT_LT(refused, 4000);
  std::remove(path.c_str());
}

TEST(RecordLog, TruncationRecoveryDropsOnlyTheTornTail) {
  const std::string path = temp_path("torn");
  const std::vector<std::string> payloads = fixture_payloads(2);
  std::vector<std::uint64_t> ends;
  const std::string bytes = build_log(path, payloads, &ends);
  // Tear the second frame: keep its header but drop its tail, as a crash
  // mid-append would.
  write_file(path, bytes.substr(0, bytes.size() - 5));

  {
    RecordLog log(path, kMagic, Durability::kFlush, "test.append", 0,
                  [](const RecordLog::Frame&, std::string_view) {});
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(log.torn_bytes(), ends[1] - ends[0] - 5);
    EXPECT_EQ(log.corrupt_bytes(), 0u);
    // Cut in place: the first frame's bytes are exactly as written.
    EXPECT_EQ(read_file(path), bytes.substr(0, ends[0]));

    // The next append lands cleanly on the recovered boundary.
    const auto frame = log.append("after the tear");
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->offset, ends[0] + 8);
    EXPECT_EQ(log.read(*frame), "after the tear");
  }
  const Opened reopened = open_log(path);
  ASSERT_TRUE(reopened.ok);
  EXPECT_EQ(reopened.torn, 0u);
  EXPECT_EQ(reopened.heads,
            (std::vector<std::string>{payloads[0], "after the tear"}));
  std::remove(path.c_str());
}

TEST(RecordLog, ForeignFileIsRefusedAndLeftUntouched) {
  const std::string path = temp_path("foreign");
  const std::string other = temp_path("other_log");
  std::remove(other.c_str());
  {
    // A well-formed log of another kind is foreign too.
    RecordLog log(other, "OTHR", Durability::kFlush, "test.append", 0,
                  [](const RecordLog::Frame&, std::string_view) {});
    ASSERT_TRUE(log.append("a record of another log").has_value());
  }
  for (const std::string& foreign :
       {std::string("this is not a record log at all"), read_file(other),
        std::string("TLX")}) {
    write_file(path, foreign);
    RecordLog log(path, kMagic, Durability::kFlush, "test.append", 0,
                  [](const RecordLog::Frame&, std::string_view) {});
    EXPECT_FALSE(log.ok()) << foreign;
    EXPECT_FALSE(log.append("must not land").has_value());
    EXPECT_EQ(read_file(path), foreign);
  }
  // A prefix of the magic is this log's torn first append, not a stranger.
  write_file(path, "TL");
  const Opened torn = open_log(path);
  EXPECT_TRUE(torn.ok);
  EXPECT_EQ(torn.torn, 2u);
  EXPECT_TRUE(read_file(path).empty());
  std::remove(path.c_str());
  std::remove(other.c_str());
}

// A crash during a log's first append leaves a file shorter than the frame
// its header declares.  A lone whole frame that fails its CRC is not that:
// for every single-bit flip it is refused and left byte-identical, except
// a flip that grows the declared size past the file, which is
// indistinguishable from a torn first append and is cut like one.
TEST(RecordLog, LoneDamagedFrameIsRefusedNotCut) {
  const std::string path = temp_path("lone");
  const std::string bytes = build_log(path, fixture_payloads(1));
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
    write_file(path, flipped);
    const bool size_grows =
        bit / 8 >= 4 && bit / 8 < 8 &&
        ((static_cast<unsigned char>(bytes[bit / 8]) >> (bit % 8)) & 1u) == 0;

    const Opened opened = open_log(path);
    EXPECT_TRUE(opened.heads.empty()) << "bit=" << bit;
    if (size_grows) {
      EXPECT_TRUE(opened.ok) << "bit=" << bit;
      EXPECT_EQ(opened.torn, bytes.size()) << "bit=" << bit;
      EXPECT_TRUE(read_file(path).empty()) << "bit=" << bit;
    } else {
      EXPECT_FALSE(opened.ok) << "bit=" << bit;
      EXPECT_EQ(read_file(path), flipped) << "bit=" << bit;
    }
  }
  std::remove(path.c_str());
}

// Every single-bit flip anywhere in a three-frame file is detected: the
// flipped frame is never returned, and the other two always are.  A flip
// in the last frame reads as a torn tail and is cut; a flip in an earlier
// frame is mid-file corruption and stays in the file.
TEST(RecordLog, EverySingleBitFlipIsDetected) {
  const std::string path = temp_path("bitflip");
  const std::vector<std::string> payloads = fixture_payloads(3);
  std::vector<std::uint64_t> ends;
  const std::string bytes = build_log(path, payloads, &ends);

  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
    write_file(path, flipped);
    const std::size_t damaged = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), bit / 8) - ends.begin());
    std::vector<std::string> expect = payloads;
    expect.erase(expect.begin() + static_cast<std::ptrdiff_t>(damaged));
    const std::uint64_t frame_bytes =
        ends[damaged] - (damaged == 0 ? 0 : ends[damaged - 1]);

    const Opened opened = open_log(path);
    ASSERT_TRUE(opened.ok) << "bit=" << bit;
    EXPECT_EQ(opened.heads, expect) << "bit=" << bit;
    if (damaged + 1 == payloads.size()) {
      EXPECT_EQ(opened.torn, frame_bytes) << "bit=" << bit;
      EXPECT_EQ(opened.corrupt, 0u) << "bit=" << bit;
    } else {
      EXPECT_EQ(opened.torn, 0u) << "bit=" << bit;
      EXPECT_EQ(opened.corrupt, frame_bytes) << "bit=" << bit;
      EXPECT_EQ(read_file(path), flipped) << "bit=" << bit;
    }
  }
  std::remove(path.c_str());
}

TEST(RecordLog, DamagedMiddleFrameCostsOnlyThatFrame) {
  const std::string path = temp_path("middle");
  std::remove(path.c_str());
  const std::vector<std::string> payloads = fixture_payloads(3);
  RecordLog::Frame middle;
  std::string damaged;
  {
    RecordLog log(path, kMagic, Durability::kFlush, "test.append", 0,
                  [](const RecordLog::Frame&, std::string_view) {});
    std::vector<RecordLog::Frame> frames;
    for (const std::string& payload : payloads) {
      frames.push_back(*log.append(payload));
    }
    middle = frames[1];
    damaged = read_file(path);
    std::fill_n(damaged.begin() + static_cast<std::ptrdiff_t>(middle.offset),
                middle.size, 'X');
    write_file(path, damaged);
    // Reads verify: the damage is seen without reopening.
    EXPECT_FALSE(log.read(middle).has_value());
    EXPECT_EQ(log.read(frames[0]), payloads[0]);
    EXPECT_EQ(log.read(frames[2]), payloads[2]);
  }

  const Opened opened = open_log(path);
  ASSERT_TRUE(opened.ok);
  EXPECT_EQ(opened.heads,
            (std::vector<std::string>{payloads[0], payloads[2]}));
  EXPECT_EQ(opened.corrupt, 8 + middle.size + 4u);
  EXPECT_EQ(opened.torn, 0u);
  EXPECT_EQ(read_file(path), damaged);  // the damaged bytes stay in place

  // Appends still land after the last frame; the damage stays counted.
  {
    RecordLog log(path, kMagic, Durability::kFlush, "test.append", 0,
                  [](const RecordLog::Frame&, std::string_view) {});
    ASSERT_TRUE(log.append("fourth").has_value());
  }
  const Opened reopened = open_log(path);
  EXPECT_EQ(reopened.heads,
            (std::vector<std::string>{payloads[0], payloads[2], "fourth"}));
  EXPECT_EQ(reopened.corrupt, opened.corrupt);
  std::remove(path.c_str());
}

// Payloads far larger than the open walk's read buffer stream through it:
// the visitor sees only the `peek` bytes it asked for, read() returns the
// whole payload, and a flip deep inside one is still caught.
TEST(RecordLog, LargePayloadsStreamThroughABoundedBuffer) {
  const std::string path = temp_path("large");
  std::string large(300'000, '\0');
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<char>('a' + i % 23);
  }
  const std::vector<std::string> payloads = {large, "small"};
  std::vector<std::uint64_t> ends;
  std::string bytes = build_log(path, payloads, &ends);

  const Opened opened = open_log(path, /*peek=*/6);
  ASSERT_TRUE(opened.ok);
  ASSERT_EQ(opened.frames.size(), 2u);
  EXPECT_EQ(opened.heads,
            (std::vector<std::string>{large.substr(0, 6), "small"}));
  EXPECT_EQ(opened.frames[0].size, large.size());
  {
    RecordLog log(path, kMagic, Durability::kFlush, "test.append", 0,
                  [](const RecordLog::Frame&, std::string_view) {});
    EXPECT_EQ(log.read(opened.frames[0]), large);
  }

  bytes[250'000] = static_cast<char>(bytes[250'000] ^ 0x10);
  write_file(path, bytes);
  const Opened flipped = open_log(path);
  ASSERT_TRUE(flipped.ok);
  EXPECT_EQ(flipped.heads, (std::vector<std::string>{"small"}));
  EXPECT_EQ(flipped.corrupt, ends[0]);
  std::remove(path.c_str());
}

TEST(RecordLog, ConcurrentAppendsNeverInterleave) {
  const std::string path = temp_path("concurrent");
  std::remove(path.c_str());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::vector<std::string> written;
  {
    RecordLog log(path, kMagic, Durability::kFlush, "test.append", 0,
                  [](const RecordLog::Frame&, std::string_view) {});
    ASSERT_TRUE(log.ok());
    std::mutex mutex;
    std::vector<std::pair<RecordLog::Frame, std::string>> placed;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string payload =
              "thread " + std::to_string(t) + " record " + std::to_string(i) +
              std::string(static_cast<std::size_t>(t * 97 + i),
                          static_cast<char>('A' + t));
          const auto frame = log.append(payload);
          ASSERT_TRUE(frame.has_value());
          const std::lock_guard<std::mutex> lock(mutex);
          placed.emplace_back(*frame, payload);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    ASSERT_EQ(placed.size(), static_cast<std::size_t>(kThreads * kPerThread));
    // Every frame is intact where append said it landed.
    for (const auto& [frame, payload] : placed) {
      EXPECT_EQ(log.read(frame), payload);
      written.push_back(payload);
    }
  }
  // The file is frame-clean: a reopen cuts and skips nothing.
  Opened reopened = open_log(path);
  ASSERT_TRUE(reopened.ok);
  EXPECT_EQ(reopened.torn, 0u);
  EXPECT_EQ(reopened.corrupt, 0u);
  std::sort(written.begin(), written.end());
  std::sort(reopened.heads.begin(), reopened.heads.end());
  EXPECT_EQ(reopened.heads, written);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flashroute::io
