// Deterministic structure-aware fuzz of the frd wire codec (svc/wire.h):
// seeded byte mutations over valid frames, every truncation prefix, and
// crafted varint / length-prefix edge cases around the 1 MiB kMaxFrame
// cap.  The contract under test is wire.h's "a malformed payload never
// traps": io::Reader must stay in-bounds for arbitrary input (its latched
// failure yields zeros), and the message decoders must return either
// nullopt or a value that survives an encode/decode round trip.  Seeds
// are fixed (util::Xoshiro256), so a failure is a unit-test failure with
// a printable seed+iteration, not a flaky repro.  CI runs this under
// ASan/UBSan, which turns any out-of-bounds read into a hard fault.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "svc/wire.h"
#include "util/rng.h"

namespace flashroute::svc {
namespace {

JobSpec sample_spec() {
  JobSpec spec;
  spec.name = "fuzz-corpus-job";
  spec.prefix_bits = 12;
  spec.first_prefix = 0x0a0000;
  spec.topology_seed = 11;
  spec.scan_seed = 22;
  spec.target_seed = 33;
  spec.probes_per_second = 12'345.5;
  spec.split_ttl = 14;
  spec.gap_limit = 4;
  spec.max_ttl = 30;
  spec.preprobe = core::PreprobeMode::kHitlist;
  spec.proximity_span = 3;
  spec.extra_scans = 2;
  spec.redundancy_removal = false;
  spec.forward_probing = false;
  spec.collect_routes = false;
  spec.min_round_duration = 9 * util::kMillisecond;
  spec.max_retransmits = 2;
  spec.retransmit_timeout = 300 * util::kMillisecond;
  spec.adaptive_backoff = true;
  spec.checkpoint_interval = 250 * util::kMillisecond;
  spec.fault_probe_loss = 0.125;
  spec.fault_response_loss = 0.25;
  spec.fault_duplicate = 0.0625;
  spec.fault_reorder = 0.5;
  spec.fault_corrupt = 0.03125;
  spec.fault_blackhole = 0.75;
  spec.fault_flap = 0.375;
  spec.fault_send_fail = 0.015625;
  spec.priority = 3;
  spec.weight = 2.5;
  spec.request_key = "fuzz-request-key";
  return spec;
}

JobView sample_view() {
  JobView view;
  view.id = 77;
  view.state = JobState::kRunning;
  view.name = "fuzz-view";
  view.priority = 1;
  view.probes_per_second = 999.25;
  view.probes = 123456;
  view.slices = 9;
  view.has_checkpoint = true;
  view.detail = "slice 9 of many";
  return view;
}

/// A spec's bytes in encode_spec's layout: what two specs must share to
/// be the same spec on the wire and in the journal.
std::string spec_bytes(const JobSpec& spec) {
  io::Writer w;
  encode_spec(w, spec);
  return w.str();
}

std::string valid_submit_payload() {
  io::Writer w = message(MsgType::kSubmit);
  encode_spec(w, sample_spec());
  return w.str();
}

std::string valid_view_payload() {
  io::Writer w = message(MsgType::kListReply);
  encode_view(w, sample_view());
  return w.str();
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

// Pins every byte of the two field groups the daemon and the client share:
// every field of the corpus spec and view differs from its default.  The
// submit digest was re-recorded when JobSpec became a ScanSpec plus its
// scheduling fields: the submit took a new type byte (kSubmit, 16), and
// the spec gained the preprobe mode, proximity span, extra scans,
// redundancy removal, forward probing, retransmit timeout and the eight
// faults (it was 0x24bed5456e790040).  The view digest did not move.
TEST(SvcWireFuzz, CorpusEncodesToItsGoldenBytes) {
  EXPECT_EQ(fnv1a(valid_submit_payload()), 0xe47f0099e1a91b34ULL)
      << std::hex << fnv1a(valid_submit_payload());
  EXPECT_EQ(fnv1a(valid_view_payload()), 0xb98ec133d5c7bf16ULL)
      << std::hex << fnv1a(valid_view_payload());
}

// Runs a payload through the full decode surface.  The assertions are the
// no-trap contract: decoders return nullopt or a round-trippable value;
// Reader primitives afterwards still behave (sticky error, zero yields).
void exercise_payload(std::string_view payload, const std::string& context) {
  SCOPED_TRACE(context);
  (void)peek_type(payload);

  {
    io::Reader r(payload);
    r.u8();  // type byte, as Daemon::handle_request does
    const std::optional<JobSpec> spec = decode_spec(r);
    if (spec.has_value()) {
      ASSERT_TRUE(r.ok());
      // Canonicalization: whatever bytes produced it, a decoded spec
      // round-trips exactly through its own encoding.
      io::Writer w = message(MsgType::kSubmit);
      encode_spec(w, *spec);
      io::Reader r2(w.str());
      r2.u8();
      const std::optional<JobSpec> again = decode_spec(r2);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(spec_bytes(*spec), spec_bytes(*again));
    }
  }
  {
    io::Reader r(payload);
    r.u8();
    (void)decode_view(r);
  }
  {
    // Drain with mismatched primitive types: sticky error, zeros after.
    io::Reader r(payload);
    (void)r.string();
    (void)r.varint();
    (void)r.u64();
    (void)r.f64();
    (void)r.u32();
    (void)r.boolean();
    if (!r.ok()) {
      EXPECT_EQ(r.u64(), 0u);       // error is sticky: reads yield zero
      EXPECT_EQ(r.string(), "");    // and empty
      EXPECT_FALSE(r.done());
    }
  }
}

TEST(SvcWireFuzz, EveryTruncationPrefixIsRejectedCleanly) {
  for (const std::string& payload :
       {valid_submit_payload(), valid_view_payload()}) {
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view prefix(payload.data(), cut);
      exercise_payload(prefix, "truncate at " + std::to_string(cut));
      if (cut > 1) {
        // A strictly truncated submit can never decode to a spec: the
        // field sequence ends with a non-empty length-prefixed string
        // after fixed-width integers, so any cut starves some read.
        io::Reader r(prefix);
        r.u8();
        EXPECT_FALSE(decode_spec(r).has_value());
      }
    }
    // The untruncated payload still decodes (the corpus is live).
    exercise_payload(payload, "full payload");
  }
}

TEST(SvcWireFuzz, SeededByteMutationsNeverTrap) {
  const std::string submit = valid_submit_payload();
  const std::string view = valid_view_payload();
  util::Xoshiro256 rng(0xF1A5'11CE'5EEDULL);
  constexpr int kIterations = 4000;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::string bytes = (iteration % 2 == 0) ? submit : view;
    // 1-8 point mutations: flip, overwrite, truncate, or extend.
    const int edits = 1 + static_cast<int>(rng.bounded(8));
    for (int e = 0; e < edits; ++e) {
      switch (rng.bounded(4)) {
        case 0: {  // bit flip
          const std::size_t at = rng.bounded(bytes.size());
          bytes[at] = static_cast<char>(
              static_cast<std::uint8_t>(bytes[at]) ^
              static_cast<std::uint8_t>(1u << rng.bounded(8)));
          break;
        }
        case 1: {  // byte overwrite (0x00/0xFF/random — length-prefix bait)
          const std::size_t at = rng.bounded(bytes.size());
          const std::uint8_t pick[] = {0x00, 0xFF, 0x80,
                                       static_cast<std::uint8_t>(rng())};
          bytes[at] = static_cast<char>(pick[rng.bounded(4)]);
          break;
        }
        case 2:  // truncate a random tail
          bytes.resize(rng.bounded(bytes.size()) + 1);
          break;
        default:  // extend with random garbage
          for (std::uint64_t n = rng.bounded(9); n > 0; --n) {
            bytes += static_cast<char>(rng());
          }
          break;
      }
      if (bytes.empty()) bytes = "\x01";
    }
    exercise_payload(bytes, "seeded mutation iteration " +
                                std::to_string(iteration));
  }
}

TEST(SvcWireFuzz, VarintAndLengthPrefixEdgesAroundTheFrameCap) {
  // String length claims straddling kMaxFrame: 1 MiB is the framing cap,
  // so any claim above it (or any claim the buffer cannot satisfy) must
  // flip the sticky error, not allocate or walk out of bounds.
  const std::uint64_t claims[] = {
      0,  1,  kMaxFrame - 1, kMaxFrame, std::uint64_t{kMaxFrame} + 1,
      std::uint64_t{1} << 32, ~std::uint64_t{0}};
  for (const std::uint64_t claim : claims) {
    io::Writer w = message(MsgType::kSubmit);
    w.put_varint(claim);
    // Supply only 4 bytes of "string" body regardless of the claim.
    w.put_u32(0xDEADBEEF);
    io::Reader r(w.str());
    r.u8();
    const std::string s = r.string();
    if (claim <= 4) {
      EXPECT_TRUE(r.ok()) << claim;
      EXPECT_EQ(s.size(), claim);
    } else {
      EXPECT_FALSE(r.ok()) << claim;
      EXPECT_TRUE(s.empty());
    }
  }

  // Over-long varint: eleven continuation bytes exceed the 64-bit shift
  // budget; the Reader must stop with the sticky error set.
  {
    std::string bytes(1, static_cast<char>(MsgType::kSubmit));
    bytes.append(11, static_cast<char>(0xFF));
    io::Reader r(bytes);
    r.u8();
    EXPECT_EQ(r.varint(), 0u);
    EXPECT_FALSE(r.ok());
  }

  // A varint that terminates exactly at the shift limit stays valid.
  {
    io::Writer w = message(MsgType::kSubmit);
    w.put_varint(~std::uint64_t{0});
    io::Reader r(w.str());
    r.u8();
    EXPECT_EQ(r.varint(), ~std::uint64_t{0});
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.done());
  }
}

}  // namespace
}  // namespace flashroute::svc
