// Tests for checkpoint/resume (io/checkpoint.h + core::Tracer resume):
// FRCK round-trips and golden bytes, declared lengths past the end refused
// before allocating, kill-at-checkpoint resume equivalence under an active
// fault plane, a scan paused at every barrier and continued, config-digest
// validation, and a barrier's allocations staying flat in the scan's
// result.
//
// The equivalence contract (DESIGN.md §9): a checkpointing scan quiesces at
// every checkpoint barrier, so the reference for a killed-and-resumed scan
// is the *same checkpointing scan left uninterrupted* — both follow one
// timeline, and the resumed run must reproduce its results exactly.

#include "io/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/tracer.h"
#include "sim/network.h"
#include "sim/runtime.h"
#include "sim/topology.h"
#include "thread_allocations.h"

namespace flashroute::core {
namespace {

sim::SimParams world_params() {
  sim::SimParams params;
  params.prefix_bits = 8;
  params.seed = 12;
  params.faults.probe_loss = 0.2;
  params.faults.response_loss = 0.15;
  return params;
}

TracerConfig checkpointing_config(const sim::SimParams& params) {
  TracerConfig config;
  config.first_prefix = params.first_prefix;
  config.prefix_bits = params.prefix_bits;
  config.vantage = net::Ipv4Address(params.vantage_address);
  config.probes_per_second = 20'000.0;
  config.preprobe = PreprobeMode::kNone;
  config.min_round_duration = 50 * util::kMillisecond;
  config.max_retransmits = 2;
  config.checkpoint_interval = 200 * util::kMillisecond;
  return config;
}

ScanResult run_once(const sim::Topology& topology, TracerConfig config,
                    util::Nanos start_time = 0,
                    std::optional<io::ScanCheckpoint> resume = std::nullopt) {
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, config.probes_per_second, start_time);
  Tracer tracer(config, runtime);
  return tracer.run(std::move(resume));
}

void expect_equal_results(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.interfaces, b.interfaces);
  EXPECT_EQ(a.routes, b.routes);
  EXPECT_EQ(a.destination_distance, b.destination_distance);
  EXPECT_EQ(a.trigger_ttl, b.trigger_ttl);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.destinations_reached, b.destinations_reached);
  EXPECT_EQ(a.convergence_stops, b.convergence_stops);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.probe_timeouts, b.probe_timeouts);
  EXPECT_EQ(a.send_failures, b.send_failures);
  EXPECT_EQ(a.scan_time, b.scan_time);
}

TEST(Checkpoint, RoundTripsThroughBytes) {
  io::ScanCheckpoint cp;
  cp.header = {0x010000, 8, 42};
  cp.config_digest = 0xDEADBEEFCAFEull;
  cp.virtual_now = 123456789;
  cp.scan_elapsed = 987654321;
  cp.rounds_completed = 17;
  cp.backoff_level = 2;
  cp.ring_head = 7;
  cp.next_backward = {1, 2, 3, 0};
  cp.next_forward = {17, 18, 19, 20};
  cp.forward_horizon = {21, 22, 0, 24};
  cp.dcb_flags = {0, 1, 2, 3};
  cp.retransmit_left = {2, 2, 0, 1};
  cp.result.probes_sent = 1000;
  cp.result.responses = 900;
  cp.result.retransmits = 55;
  cp.result.probe_timeouts = 44;
  cp.result.send_failures = 3;
  cp.result.rate_backoffs = 1;
  cp.result.interfaces = {10, 20, 30};
  cp.result.destination_distance = {4, 0, 9, 0};
  cp.result.trigger_ttl = {1, 0, 2, 0};
  cp.result.routes = {{{0xAABB, 3, 0}}, {}, {{0xCCDD, 5, 1}}, {}};
  cp.result.probe_log = {{100, 0x01000001, 8, false},
                         {200, 0x01000102, 9, true}};

  io::Writer bytes;
  io::write_checkpoint(cp, bytes);
  const auto loaded = io::read_checkpoint(bytes.str());
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->header.first_prefix, cp.header.first_prefix);
  EXPECT_EQ(loaded->header.prefix_bits, cp.header.prefix_bits);
  EXPECT_EQ(loaded->header.seed, cp.header.seed);
  EXPECT_EQ(loaded->config_digest, cp.config_digest);
  EXPECT_EQ(loaded->virtual_now, cp.virtual_now);
  EXPECT_EQ(loaded->scan_elapsed, cp.scan_elapsed);
  EXPECT_EQ(loaded->rounds_completed, cp.rounds_completed);
  EXPECT_EQ(loaded->backoff_level, cp.backoff_level);
  EXPECT_EQ(loaded->ring_head, cp.ring_head);
  EXPECT_EQ(loaded->next_backward, cp.next_backward);
  EXPECT_EQ(loaded->next_forward, cp.next_forward);
  EXPECT_EQ(loaded->forward_horizon, cp.forward_horizon);
  EXPECT_EQ(loaded->dcb_flags, cp.dcb_flags);
  EXPECT_EQ(loaded->retransmit_left, cp.retransmit_left);
  EXPECT_EQ(loaded->result.probes_sent, cp.result.probes_sent);
  EXPECT_EQ(loaded->result.retransmits, cp.result.retransmits);
  EXPECT_EQ(loaded->result.probe_timeouts, cp.result.probe_timeouts);
  EXPECT_EQ(loaded->result.send_failures, cp.result.send_failures);
  EXPECT_EQ(loaded->result.rate_backoffs, cp.result.rate_backoffs);
  EXPECT_EQ(loaded->result.interfaces, cp.result.interfaces);
  EXPECT_EQ(loaded->result.routes, cp.result.routes);
  EXPECT_EQ(loaded->result.probe_log, cp.result.probe_log);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

// Pins every byte of the FRCK format on a real scan: the lossy
// checkpointing scan's checkpoint at its second barrier carries routes,
// retransmit state and a probe log.
TEST(Checkpoint, LossyScanAtItsSecondBarrierMatchesItsGoldenBytes) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);
  TracerConfig config = checkpointing_config(params);
  io::Writer bytes;
  int seen = 0;
  config.checkpoint_sink = [&](const io::ScanCheckpoint& cp) {
    if (++seen < 2) return true;
    io::write_checkpoint(cp, bytes);
    return false;
  };
  (void)run_once(topology, config);
  ASSERT_EQ(seen, 2);
  EXPECT_EQ(fnv1a(bytes.str()), 0x692706292e5d5e30ULL)
      << std::hex << fnv1a(bytes.str());
}

TEST(Checkpoint, RejectsGarbage) {
  EXPECT_FALSE(io::read_checkpoint("not a checkpoint at all").has_value());
}

// --- Declared lengths --------------------------------------------------------

/// The per-DCB vectors of a checkpoint, in write order.
const std::vector<std::string> kDcbVectors = {
    "next_backward", "next_forward", "forward_horizon", "dcb_flags",
    "retransmit_left"};

/// Checkpoint bytes up to `field` (a per-DCB vector, or "probe_log"),
/// which declares `declared` items with only 8 bytes behind them.
std::string checkpoint_declaring(const std::string& field,
                                 std::uint64_t declared) {
  io::Writer bytes;
  bytes.put_raw("FRCK");
  bytes.put_varint(1);  // format version
  for (int i = 0; i < 6; ++i) {
    bytes.put_varint(0);  // digest, clocks, rounds, backoff, ring head
  }
  for (const std::string& vector : kDcbVectors) {
    if (vector == field) break;
    bytes.put_varint(0);
  }
  bytes.put_varint(declared);
  bytes.put_u64(0);
  return bytes.str();
}

class CheckpointLength : public ::testing::TestWithParam<std::string> {};

// 2^20 bytes would take 1 MiB; none of it may be allocated before the
// bytes are there.
TEST_P(CheckpointLength, PastTheEndIsRefusedBeforeAllocating) {
  const std::string bytes =
      checkpoint_declaring(GetParam(), std::uint64_t{1} << 20);
  g_thread_largest_allocation = 0;
  EXPECT_FALSE(io::read_checkpoint(bytes).has_value());
  EXPECT_LT(g_thread_largest_allocation, std::size_t{1} << 16);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, CheckpointLength, ::testing::ValuesIn(kDcbVectors),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// A probe-log count no vector can hold is a corrupt checkpoint, not a
// std::length_error out of a resume.
TEST(Checkpoint, ProbeLogCountPastTheEndIsRefused) {
  const std::string bytes =
      checkpoint_declaring("probe_log", std::uint64_t{1} << 62);
  g_thread_largest_allocation = 0;
  EXPECT_FALSE(io::read_checkpoint(bytes).has_value());
  EXPECT_LT(g_thread_largest_allocation, std::size_t{1} << 16);
}

// std::stable_sort takes its merge buffer from the nothrow operator new
// and returns it through operator delete.  The allocation hook replaces
// both, so a sanitizer sees the buffer come from malloc and go to free.
TEST(Checkpoint, StableSortBufferPassesThroughTheAllocationHook) {
  std::vector<std::uint64_t> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i * 7919 % 1000;
  const std::uint64_t before = g_thread_allocations;
  std::stable_sort(values.begin(), values.end());
  EXPECT_GT(g_thread_allocations, before);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

/// Flips every bit of the checkpoint file at `path` in turn and counts the
/// flipped files the loader still accepts; the pristine file must load.
int accepted_bit_flips(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_TRUE(io::load_checkpoint_file(path).has_value());
  int accepted = 0;
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << flipped;
    if (io::load_checkpoint_file(path).has_value()) ++accepted;
  }
  std::remove(path.c_str());
  return accepted;
}

TEST(Checkpoint, SavedFilesRejectEverySingleBitFlip) {
  const std::string path = "/tmp/fr_checkpoint_bitflip_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".frck";
  io::ScanCheckpoint cp;
  cp.header = {0x010000, 2, 42};
  cp.virtual_now = 123456789;
  cp.rounds_completed = 3;
  cp.next_backward = {1, 2, 3, 0};
  cp.dcb_flags = {0, 1, 2, 3};
  cp.result.probes_sent = 1000;
  cp.result.interfaces = {10, 20};
  cp.result.destination_distance = {4, 0, 9, 0};

  ASSERT_TRUE(io::save_checkpoint_atomic(path, cp, /*sync=*/false));
  EXPECT_EQ(accepted_bit_flips(path), 0);
}

TEST(Checkpoint, KillAndResumeReproducesTheUninterruptedScan) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);

  // Reference: the checkpointing scan runs to completion, capturing every
  // checkpoint it takes along the way.
  std::vector<io::ScanCheckpoint> taken;
  TracerConfig config = checkpointing_config(params);
  config.checkpoint_sink = [&taken](const io::ScanCheckpoint& cp) {
    taken.push_back(cp);
    return true;
  };
  const ScanResult reference = run_once(topology, config);
  ASSERT_GE(taken.size(), 3u) << "scan too short to exercise checkpoints";

  // Kill the scan at several checkpoints, resume from the captured state,
  // and require the merged outcome to match the uninterrupted run exactly.
  for (const std::size_t kill_at : {std::size_t{0}, taken.size() / 2,
                                    taken.size() - 1}) {
    std::size_t seen = 0;
    TracerConfig killed = checkpointing_config(params);
    io::ScanCheckpoint at_kill;
    killed.checkpoint_sink = [&](const io::ScanCheckpoint& cp) {
      if (seen++ == kill_at) {
        at_kill = cp;
        return false;  // simulate the process dying at this barrier
      }
      return true;
    };
    const ScanResult partial = run_once(topology, killed);
    // The last barrier can fall after the final probe of the scan, so only
    // an early kill is guaranteed to truncate the probe stream.
    if (kill_at == 0) {
      EXPECT_LT(partial.probes_sent, reference.probes_sent)
          << "kill at checkpoint " << kill_at << " aborted nothing";
    }

    // Serialize through bytes, as a real resume would.
    io::Writer bytes;
    io::write_checkpoint(at_kill, bytes);
    const auto loaded = io::read_checkpoint(bytes.str());
    ASSERT_TRUE(loaded.has_value());

    TracerConfig resumed = checkpointing_config(params);
    resumed.checkpoint_sink = [](const io::ScanCheckpoint&) { return true; };
    const util::Nanos start = loaded->virtual_now;
    const ScanResult completed =
        run_once(topology, resumed, start, std::move(*loaded));
    expect_equal_results(completed, reference);
  }
}

std::string frsc_bytes(const ScanResult& result) {
  io::Writer bytes;
  io::write_archive(result, io::ArchiveHeader{}, bytes);
  return bytes.str();
}

// A sink that stops the scan and leaves the checkpoint whole pauses it, and
// continue_run() carries on from that barrier on the same engine.  A
// faulted scan paused at every barrier and continued to its end is the
// uninterrupted scan, byte for byte, and so is the scan restored from any
// one barrier's checkpoint: the two ways a preempted frd job resumes.
TEST(Checkpoint, ScanPausedAtEveryBarrierContinuesToTheUninterruptedBytes) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);
  TracerConfig config = checkpointing_config(params);
  config.adaptive_backoff = true;
  // Probes time out inside the round that sent them, so the round's loss
  // ratio sees them before the next quiesce drains them, and backs off.
  config.retransmit_timeout = 20 * util::kMillisecond;

  std::vector<std::string> barriers;
  TracerConfig uninterrupted = config;
  uninterrupted.checkpoint_sink = [&barriers](const io::ScanCheckpoint& cp) {
    io::Writer bytes;
    io::write_checkpoint(cp, bytes);
    barriers.push_back(bytes.str());
    return true;
  };
  const ScanResult reference = run_once(topology, uninterrupted);
  ASSERT_GE(barriers.size(), 3u) << "scan too short to exercise checkpoints";
  ASSERT_GT(reference.retransmits, 0u);
  ASSERT_GT(reference.rate_backoffs, 0u);

  std::size_t pauses = 0;
  TracerConfig pausing = config;
  pausing.checkpoint_sink = [&pauses](const io::ScanCheckpoint&) {
    ++pauses;
    return false;
  };
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, pausing.probes_per_second);
  Tracer tracer(pausing, runtime);
  ScanResult continued = tracer.run();
  while (tracer.aborted() && pauses <= barriers.size()) {
    continued = tracer.continue_run(std::move(continued));
  }
  ASSERT_FALSE(tracer.aborted()) << "still paused after every barrier";
  EXPECT_EQ(pauses, barriers.size());
  expect_equal_results(continued, reference);
  EXPECT_EQ(frsc_bytes(continued), frsc_bytes(reference));

  for (std::size_t i = 0; i < barriers.size(); ++i) {
    auto loaded = io::read_checkpoint(barriers[i]);
    ASSERT_TRUE(loaded.has_value());
    TracerConfig resumed = config;
    resumed.checkpoint_sink = [](const io::ScanCheckpoint&) { return true; };
    const util::Nanos start = loaded->virtual_now;
    const ScanResult restored =
        run_once(topology, resumed, start, std::move(*loaded));
    expect_equal_results(restored, reference);
    EXPECT_EQ(frsc_bytes(restored), frsc_bytes(reference))
        << "restored from barrier " << i;
  }
}

TEST(Checkpoint, DigestMismatchStartsFresh) {
  const sim::SimParams params = world_params();
  const sim::Topology topology(params);

  std::vector<io::ScanCheckpoint> taken;
  TracerConfig config = checkpointing_config(params);
  config.checkpoint_sink = [&taken](const io::ScanCheckpoint& cp) {
    taken.push_back(cp);
    return false;  // stop at the first checkpoint
  };
  (void)run_once(topology, config);
  ASSERT_EQ(taken.size(), 1u);

  // A config with a different gap limit must not resume from this state.
  TracerConfig other = checkpointing_config(params);
  other.gap_limit = 7;
  other.checkpoint_interval = 0;
  const ScanResult resumed =
      run_once(topology, other, 0, std::move(taken.front()));

  TracerConfig fresh = checkpointing_config(params);
  fresh.gap_limit = 7;
  fresh.checkpoint_interval = 0;
  const ScanResult from_scratch = run_once(topology, fresh);
  expect_equal_results(resumed, from_scratch);
}

// A barrier lends the scan's result to its checkpoint instead of copying
// it.  The quiesce runs with or without a sink, so a scan whose sink keeps
// nothing follows the sinkless scan's timeline and may allocate only the
// checkpoint's per-DCB state on top: a few vectors per barrier, however
// many routes and interfaces the scan has found by then.
TEST(Checkpoint, BarrierAllocationsDoNotGrowWithTheResult) {
  sim::SimParams params;
  params.prefix_bits = 10;
  params.seed = 12;
  const sim::Topology topology(params);
  TracerConfig config = checkpointing_config(params);
  config.checkpoint_interval = config.min_round_duration;
  ASSERT_TRUE(config.collect_routes);

  std::uint64_t barriers = 0;
  const auto scan = [&](bool with_sink, std::uint64_t& allocations) {
    TracerConfig run = config;
    if (with_sink) {
      run.checkpoint_sink = [&barriers](const io::ScanCheckpoint&) {
        ++barriers;
        return true;
      };
    }
    sim::SimNetwork network(topology);
    sim::SimScanRuntime runtime(network, run.probes_per_second);
    Tracer tracer(run, runtime);
    const std::uint64_t before = g_thread_allocations;
    ScanResult result = tracer.run();
    allocations = g_thread_allocations - before;
    return result;
  };
  std::uint64_t with_sink = 0;
  std::uint64_t without_sink = 0;
  const ScanResult lent = scan(true, with_sink);
  const ScanResult plain = scan(false, without_sink);
  expect_equal_results(lent, plain);

  std::size_t routed = 0;
  for (const auto& route : plain.routes) routed += route.empty() ? 0 : 1;
  ASSERT_GE(barriers, 3u) << "scan too short to exercise checkpoints";
  ASSERT_GT(routed, 100u) << "too few routes to show a copy";
  constexpr std::uint64_t kPerBarrier = 8;
  EXPECT_LE(with_sink, without_sink + kPerBarrier * barriers)
      << barriers << " barriers, " << routed << " /24s with routes";
}

}  // namespace
}  // namespace flashroute::core
