// Golden digests of the one probe path (DESIGN.md §11).
//
// Every engine puts its probes on the wire through core::ProbeSender, which
// gathers them into ProbeBatch blocks.  The contract is byte-identity with
// the scalar cadence — one try_send per probe and a drain wherever the
// engine's loop marks one — so each case below runs twice and must match a
// digest recorded from the scalar send loops:
//
//  * over sim::SimScanRuntime, whose batch budget lets the sender gather;
//  * over ScalarCadenceRuntime, a decorator that leaves batch_budget() and
//    try_send_batch() at the ScanRuntime defaults (budget 1, per-packet
//    shim): the scalar cadence, kept executable.
//
// How the digests were recorded: every case was run on the commit before
// ProbeSender existed, with the engines' former `batch_probes` option set
// to false (their scalar send loops), over SimScanRuntime, in a Release
// build; the scalar-cadence decorator reproduced each digest there too.  A
// digest is FNV-1a over the FRSC archive bytes of the ScanResult, then the
// resilience counters, preprobe_time and the probe log (result_digest); the
// telemetry case hashes the exported JSONL stream.  The simulator calls no
// libm transcendental functions, so the digests hold on every compiler: a
// mismatch is a behaviour change, never a reason to re-record.  The two
// cases re-recorded for a deliberate change carry the proof of their new
// values in their comments.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/scamper.h"
#include "baselines/yarrp.h"
#include "core/probe_sender.h"
#include "core/runtime.h"
#include "core/sharded_tracer.h"
#include "core/tracer.h"
#include "io/checkpoint.h"
#include "io/scan_archive.h"
#include "obs/metrics.h"
#include "obs/scan_metrics.h"
#include "obs/scan_tracer.h"
#include "obs/snapshot_exporter.h"
#include "sim/network.h"
#include "sim/params.h"
#include "sim/runtime.h"
#include "sim/topology.h"

namespace flashroute {
namespace {

// --- Digests ---------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  return fnv1a(h, &word, sizeof word);
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t digest_string(const std::string& bytes) {
  return fnv1a(kFnvBasis, bytes.data(), bytes.size());
}

std::uint64_t result_digest(const core::ScanResult& r) {
  io::Writer archive;
  io::write_archive(r, io::ArchiveHeader{}, archive);
  std::uint64_t h = digest_string(archive.str());
  for (const std::uint64_t word :
       {r.send_failures, r.retransmits, r.probe_timeouts, r.rate_backoffs,
        static_cast<std::uint64_t>(r.preprobe_time),
        static_cast<std::uint64_t>(r.probe_log.size())}) {
    h = fnv1a(h, word);
  }
  for (const core::ProbeLogEntry& entry : r.probe_log) {
    h = fnv1a(h, static_cast<std::uint64_t>(entry.time));
    h = fnv1a(h, (std::uint64_t{entry.destination} << 16) |
                     (std::uint64_t{entry.ttl} << 8) |
                     std::uint64_t{entry.preprobe});
  }
  return h;
}

std::string hex(std::uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

// --- The two cadences --------------------------------------------------------

/// The scalar cadence: forwards the clock, the per-packet send, send-slot
/// stamping, rate changes and delivery, and leaves batch_budget() and
/// try_send_batch() at the base defaults, so every drain the engine marks
/// happens and every probe goes through one try_send.
class ScalarCadenceRuntime final : public core::ScanRuntime {
 public:
  explicit ScalarCadenceRuntime(core::ScanRuntime& inner) : inner_(inner) {}

  util::Nanos now() const noexcept override { return inner_.now(); }
  [[nodiscard]] bool try_send(std::span<const std::byte> packet) override {
    return inner_.try_send(packet);
  }
  util::Nanos send_time_of(std::uint32_t k) const noexcept override {
    return inner_.send_time_of(k);
  }
  void set_rate(double probes_per_second) override {
    inner_.set_rate(probes_per_second);
  }
  void drain(const Sink& sink) override { inner_.drain(sink); }
  void idle_until(util::Nanos t, const Sink& sink) override {
    inner_.idle_until(t, sink);
  }

 private:
  core::ScanRuntime& inner_;
};

enum class Cadence { kBatched, kScalar };

/// Runs `scan` against a fresh sim runtime, seen through the scalar-cadence
/// decorator when `cadence` asks for it.
template <typename Scan>
auto on_sim(const sim::Topology& topology, double pps, Cadence cadence,
            Scan&& scan, util::Nanos start_time = 0) {
  sim::SimNetwork network(topology);
  sim::SimScanRuntime runtime(network, pps, start_time);
  if (cadence == Cadence::kBatched) return scan(runtime);
  ScalarCadenceRuntime scalar(runtime);
  return scan(scalar);
}

/// Both cadences must reproduce the digest recorded from the scalar loops.
void expect_golden(std::uint64_t golden,
                   const std::function<std::uint64_t(Cadence)>& digest_of) {
  EXPECT_EQ(hex(digest_of(Cadence::kBatched)), hex(golden)) << "batched";
  EXPECT_EQ(hex(digest_of(Cadence::kScalar)), hex(golden))
      << "scalar cadence";
}

sim::SimParams world_params(int bits, std::uint64_t seed) {
  sim::SimParams params;
  params.prefix_bits = bits;
  params.seed = seed;
  return params;
}

sim::FaultParams adversity() {
  sim::FaultParams faults;
  faults.probe_loss = 0.2;
  faults.response_loss = 0.15;
  faults.duplicate_prob = 0.1;
  faults.reorder_prob = 0.1;
  faults.send_fail_prob = 0.1;
  faults.blackhole_fraction = 0.05;
  return faults;
}

// --- Tracer ----------------------------------------------------------------

core::TracerConfig tracer_config(const sim::Topology& topology) {
  core::TracerConfig config;
  config.first_prefix = topology.params().first_prefix;
  config.prefix_bits = topology.params().prefix_bits;
  config.vantage = net::Ipv4Address(topology.params().vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, topology.params().prefix_bits);
  config.collect_routes = true;
  return config;
}

core::ScanResult run_tracer(
    const sim::Topology& topology, const core::TracerConfig& config,
    Cadence cadence, util::Nanos start_time = 0,
    std::optional<io::ScanCheckpoint> resume = std::nullopt) {
  return on_sim(
      topology, config.probes_per_second, cadence,
      [&](core::ScanRuntime& runtime) {
        return core::Tracer(config, runtime).run(std::move(resume));
      },
      start_time);
}

void expect_tracer_golden(const sim::Topology& topology,
                          const core::TracerConfig& config,
                          std::uint64_t golden) {
  expect_golden(golden, [&](Cadence cadence) {
    return result_digest(run_tracer(topology, config, cadence));
  });
}

TEST(BatchEquivalence, TracerBatchedScanIsBitIdenticalToScalar) {
  const sim::Topology topology(world_params(9, 77));
  expect_tracer_golden(topology, tracer_config(topology),
                       0x7b3f502f59cdcdefULL);
}

TEST(BatchEquivalence, TracerBatchedScanWithPreprobeAndExtraScans) {
  // Re-recorded once, for the destinations_reached fix: the engine used to
  // count a destination again each time an extra scan reached it (14 here,
  // digest 0xcf45991593e31889), and now counts each /24 once, when it first
  // gets a destination distance (9).  Proof of the new value: run this case
  // on the commit before core::ResponseRecorder, set destinations_reached
  // to the number of nonzero destination_distance entries (9 instead of
  // 14), and hash the result with result_digest: 0x22db4780a20c9aba, in
  // both cadences.  Nothing else in the result moved.
  const sim::Topology topology(world_params(8, 21));
  core::TracerConfig config = tracer_config(topology);
  config.preprobe = core::PreprobeMode::kRandom;
  config.extra_scans = 2;
  expect_tracer_golden(topology, config, 0x22db4780a20c9abaULL);
}

TEST(BatchEquivalence, TracerBatchedScanUnderFaultPlane) {
  sim::SimParams params = world_params(9, 5);
  params.faults = adversity();
  const sim::Topology topology(params);
  expect_tracer_golden(topology, tracer_config(topology),
                       0xeddc323e5f44d961ULL);
}

TEST(BatchEquivalence, TracerUnthrottledBatchedScanMatchesScalar) {
  // Sub-nanosecond pacing truncates the probe interval to 0; the budget
  // arithmetic clamps it to 1 ns, which must stay conservative.
  const sim::Topology topology(world_params(8, 13));
  core::TracerConfig config = tracer_config(topology);
  config.probes_per_second = 1e9;
  expect_tracer_golden(topology, config, 0x0ec741eb1ebb175cULL);
}

/// perfbench's scan_lossy configuration shrunk to 2^10 prefixes: hitlist
/// preprobing, 10% probe and response loss, two retransmits and adaptive
/// backoff.  It keeps the probe rate of the 2^20 workload, so the sim's
/// batch budget allows real gathers, and collects routes so the digest
/// covers them.
struct LossyScan {
  sim::Topology topology;
  std::vector<std::uint32_t> hitlist;
  core::TracerConfig config;

  LossyScan() : topology(params()), hitlist(topology.generate_hitlist()) {
    const sim::SimParams& p = topology.params();
    config.first_prefix = p.first_prefix;
    config.prefix_bits = p.prefix_bits;
    config.vantage = net::Ipv4Address(p.vantage_address);
    config.probes_per_second = sim::scaled_probe_rate(100'000.0, 20);
    config.preprobe = core::PreprobeMode::kHitlist;
    config.hitlist = &hitlist;
    config.split_ttl = 16;
    config.gap_limit = 5;
    config.seed = 1;
    config.target_seed = 43;
    config.max_retransmits = 2;
    config.adaptive_backoff = true;
  }

  static sim::SimParams params() {
    sim::SimParams p;
    p.seed = 1;
    p.topology_mode = sim::TopologyMode::kSuccinct;
    p.prefix_bits = 10;
    p.faults.probe_loss = 0.10;
    p.faults.response_loss = 0.10;
    p.faults.fault_seed = 1 ^ 0xFA17;
    return p;
  }
};

TEST(BatchEquivalence, TracerRetransmitAndBackoffScan) {
  const LossyScan lossy;
  expect_tracer_golden(lossy.topology, lossy.config, 0x6865dd54aabc1f80ULL);
}

TEST(BatchEquivalence, TracerProbeLogScan) {
  sim::SimParams params = world_params(8, 33);
  params.faults.send_fail_prob = 0.05;
  const sim::Topology topology(params);
  core::TracerConfig config = tracer_config(topology);
  config.probes_per_second = 100'000.0;
  config.preprobe = core::PreprobeMode::kRandom;
  config.collect_probe_log = true;
  config.max_retransmits = 1;
  expect_tracer_golden(topology, config, 0xae803199f7bf7464ULL);
}

TEST(BatchEquivalence, TracerCheckpointResumeWithRetransmits) {
  // core_checkpoint_test's lossy checkpointing scan, killed at its second
  // checkpoint and resumed from the serialized state.
  sim::SimParams params = world_params(8, 12);
  params.faults.probe_loss = 0.2;
  params.faults.response_loss = 0.15;
  const sim::Topology topology(params);
  core::TracerConfig config = tracer_config(topology);
  config.probes_per_second = 20'000.0;
  config.preprobe = core::PreprobeMode::kNone;
  config.min_round_duration = 50 * util::kMillisecond;
  config.max_retransmits = 2;
  config.adaptive_backoff = true;
  config.checkpoint_interval = 200 * util::kMillisecond;

  expect_golden(0xc37bc757fc1b2306ULL, [&](Cadence cadence) {
    int seen = 0;
    io::Writer bytes;
    core::TracerConfig killed = config;
    killed.checkpoint_sink = [&](const io::ScanCheckpoint& checkpoint) {
      if (++seen < 2) return true;
      io::write_checkpoint(checkpoint, bytes);
      return false;
    };
    const core::ScanResult partial = run_tracer(topology, killed, cadence);
    const auto loaded = io::read_checkpoint(bytes.str());
    EXPECT_TRUE(loaded.has_value()) << "the scan never reached a checkpoint";
    if (!loaded) return result_digest(partial);
    const util::Nanos start = loaded->virtual_now;
    const core::ScanResult completed =
        run_tracer(topology, config, cadence, start, std::move(*loaded));
    return fnv1a(result_digest(completed), result_digest(partial));
  });
}

TEST(BatchEquivalence, TelemetryStreamOfPreprobingRetransmittingScan) {
  // Interval records capture counter deltas and the sim runtime's gauges at
  // virtual-time ticks, so the stream pins which interval every send,
  // retransmit and timeout lands in, and what the simulator had processed
  // when each capture ran; a 1 ms interval at 100 Kpps puts tick boundaries
  // inside gathers.  Wired as the CLI wires it.
  //
  // Re-recorded when the simulator lost its route cache and with it the
  // three gauges the cache registered: its hits, misses and hit rate (was
  // 0xf44f6916178e26a3).  Proof: on the commit before, deleting exactly
  // those three entries from every interval record's "gauges" object and
  // from the summary's "gauges" list, then digesting as below, gives the
  // new value in both cadences.
  sim::SimParams params = world_params(8, 47);
  params.faults.probe_loss = 0.15;
  params.faults.response_loss = 0.1;
  params.faults.send_fail_prob = 0.05;
  const sim::Topology topology(params);
  core::TracerConfig config = tracer_config(topology);
  config.probes_per_second = 100'000.0;
  config.preprobe = core::PreprobeMode::kRandom;
  config.max_retransmits = 2;
  config.adaptive_backoff = true;

  expect_golden(0xadd08e24d76ef2e5ULL, [&](Cadence cadence) {
    obs::MetricsRegistry registry;
    core::TracerConfig metered = config;
    metered.telemetry.registry = &registry;
    metered.telemetry.ids =
        obs::register_scan_metrics(registry, /*resilience=*/true);
    registry.freeze(1);
    obs::ScanTracer tracer(registry, util::kMillisecond);
    metered.telemetry.tracer = &tracer;
    metered.telemetry.lane = registry.lane(0);

    sim::SimNetwork network(topology);
    sim::SimScanRuntime runtime(network, metered.probes_per_second);
    runtime.register_gauges(registry, 0);
    ScalarCadenceRuntime scalar(runtime);
    core::ScanRuntime& engine_runtime =
        cadence == Cadence::kBatched ? static_cast<core::ScanRuntime&>(runtime)
                                     : scalar;
    const core::ScanResult result =
        core::Tracer(metered, engine_runtime).run();

    std::ostringstream stream;
    obs::SnapshotExporter exporter(stream);
    exporter.write_intervals(tracer, registry);
    exporter.write_summary(tracer, registry, result.scan_time);
    return fnv1a(digest_string(stream.str()), result_digest(result));
  });
}

// --- Sharded Tracer --------------------------------------------------------

/// Every shard lane of the sim provider, seen through the scalar cadence.
class ScalarCadenceProvider final : public core::ShardRuntimeProvider {
 public:
  ScalarCadenceProvider(sim::SimShardRuntimeProvider& inner,
                        const core::ShardedTracerConfig& config) {
    for (const core::ShardInfo& shard : core::ShardedTracer::plan(config)) {
      views_.push_back(
          std::make_unique<ScalarCadenceRuntime>(inner.runtime_for(shard)));
    }
  }

  core::ScanRuntime& runtime_for(const core::ShardInfo& shard) override {
    return *views_[static_cast<std::size_t>(shard.index)];
  }

 private:
  std::vector<std::unique_ptr<ScalarCadenceRuntime>> views_;
};

void expect_sharded_golden(const sim::Topology& topology,
                           const core::TracerConfig& base,
                           std::uint64_t golden) {
  expect_golden(golden, [&](Cadence cadence) {
    core::ShardedTracerConfig config;
    config.base = base;
    config.shard_prefix_bits = topology.params().prefix_bits - 2;
    config.num_workers = 2;
    sim::SimShardRuntimeProvider provider(topology, config);
    if (cadence == Cadence::kBatched) {
      return result_digest(core::ShardedTracer(config, provider).run());
    }
    ScalarCadenceProvider scalar(provider, config);
    return result_digest(core::ShardedTracer(config, scalar).run());
  });
}

TEST(BatchEquivalenceSharded, ShardedBatchedScanIsBitIdenticalToScalar) {
  const sim::Topology topology(world_params(8, 41));
  expect_sharded_golden(topology, tracer_config(topology),
                        0x81bfdc7002181bfdULL);
}

TEST(BatchEquivalenceSharded, ShardedBatchedScanUnderFaultPlane) {
  sim::SimParams params = world_params(8, 29);
  params.faults = adversity();
  const sim::Topology topology(params);
  expect_sharded_golden(topology, tracer_config(topology),
                        0x653faee648b10b3eULL);
}

TEST(BatchEquivalenceSharded, ShardedScanWithRetransmits) {
  sim::SimParams params = world_params(8, 29);
  params.faults = adversity();
  const sim::Topology topology(params);
  core::TracerConfig config = tracer_config(topology);
  config.probes_per_second = 100'000.0;
  config.max_retransmits = 2;
  config.adaptive_backoff = true;
  expect_sharded_golden(topology, config, 0xaf0bcdd21ead6e61ULL);
}

// --- Yarrp -----------------------------------------------------------------

baselines::YarrpConfig yarrp_config(const sim::Topology& topology) {
  baselines::YarrpConfig config;
  config.first_prefix = topology.params().first_prefix;
  config.prefix_bits = topology.params().prefix_bits;
  config.vantage = net::Ipv4Address(topology.params().vantage_address);
  config.probes_per_second =
      sim::scaled_probe_rate(100'000.0, topology.params().prefix_bits);
  config.exhaustive_ttl = 12;
  return config;
}

void expect_yarrp_golden(const sim::Topology& topology,
                         const baselines::YarrpConfig& config,
                         std::uint64_t golden) {
  expect_golden(golden, [&](Cadence cadence) {
    return result_digest(on_sim(topology, config.probes_per_second, cadence,
                                [&](core::ScanRuntime& runtime) {
                                  return baselines::Yarrp(config, runtime)
                                      .run();
                                }));
  });
}

TEST(BatchEquivalence, YarrpBatchedWalkIsBitIdenticalToScalarTcp) {
  const sim::Topology topology(world_params(8, 61));
  baselines::YarrpConfig config = yarrp_config(topology);
  config.collect_probe_log = true;
  expect_yarrp_golden(topology, config, 0x41e9eb52c30a0046ULL);
}

TEST(BatchEquivalence, YarrpBatchedWalkIsBitIdenticalToScalarUdp) {
  const sim::Topology topology(world_params(8, 62));
  baselines::YarrpConfig config = yarrp_config(topology);
  config.probe_type = baselines::YarrpConfig::ProbeType::kUdp;
  expect_yarrp_golden(topology, config, 0xb2f486e381d261bdULL);
}

TEST(BatchEquivalence, YarrpBatchedWalkUnderFaultPlane) {
  sim::SimParams params = world_params(8, 63);
  params.faults = adversity();
  const sim::Topology topology(params);
  expect_yarrp_golden(topology, yarrp_config(topology), 0x00d6b6c4661b2ddeULL);
}

TEST(BatchEquivalence, YarrpFillModeMatchesScalarDigest) {
  const sim::Topology topology(world_params(8, 64));
  baselines::YarrpConfig config = yarrp_config(topology);
  config.probes_per_second = 100'000.0;
  config.fill_mode = true;
  config.exhaustive_ttl = 8;
  config.fill_max_ttl = 16;
  expect_yarrp_golden(topology, config, 0x0074bf4a4010bdf3ULL);
}

TEST(BatchEquivalence, YarrpNeighborhoodProtectionMatchesScalarDigest) {
  const sim::Topology topology(world_params(8, 65));
  baselines::YarrpConfig config = yarrp_config(topology);
  config.probes_per_second = 100'000.0;
  config.protected_hops = 3;
  config.protection_window = 2 * util::kMillisecond;
  config.collect_probe_log = true;
  expect_yarrp_golden(topology, config, 0x2f7fd9806d428104ULL);
}

// --- Scamper ---------------------------------------------------------------

baselines::ScamperConfig scamper_config(const sim::Topology& topology) {
  baselines::ScamperConfig config;
  config.first_prefix = topology.params().first_prefix;
  config.prefix_bits = topology.params().prefix_bits;
  config.vantage = net::Ipv4Address(topology.params().vantage_address);
  config.window = 256;
  return config;
}

void expect_scamper_golden(const sim::Topology& topology,
                           const baselines::ScamperConfig& config,
                           std::uint64_t golden) {
  expect_golden(golden, [&](Cadence cadence) {
    return result_digest(on_sim(topology, config.probes_per_second, cadence,
                                [&](core::ScanRuntime& runtime) {
                                  return baselines::Scamper(config, runtime)
                                      .run();
                                }));
  });
}

TEST(BatchEquivalence, ScamperScanMatchesScalarDigest) {
  const sim::Topology topology(world_params(8, 91));
  expect_scamper_golden(topology, scamper_config(topology),
                        0x96f26c50ad30030dULL);
}

TEST(BatchEquivalence, ScamperRetriesMatchScalarDigest) {
  sim::SimParams params = world_params(8, 92);
  params.faults = adversity();
  const sim::Topology topology(params);
  baselines::ScamperConfig config = scamper_config(topology);
  config.max_retries = 2;
  config.collect_probe_log = true;
  expect_scamper_golden(topology, config, 0x343ca791b22ee1e4ULL);
}

// --- ProbeBatch / runtime contract ----------------------------------------

TEST(ProbeBatch, SlotCommitPacketRoundTrip) {
  core::ProbeBatch batch;
  EXPECT_TRUE(batch.empty());
  for (std::uint32_t k = 0; k < core::ProbeBatch::kMaxPackets; ++k) {
    auto slot = batch.slot();
    slot[0] = static_cast<std::byte>(k);
    batch.commit(k % core::ProbeBatch::kStride + 1);
  }
  EXPECT_TRUE(batch.full());
  for (std::uint32_t k = 0; k < core::ProbeBatch::kMaxPackets; ++k) {
    const auto packet = batch.packet(k);
    EXPECT_EQ(packet.size(), k % core::ProbeBatch::kStride + 1);
    EXPECT_EQ(packet[0], static_cast<std::byte>(k));
  }
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

TEST(ProbeBatch, DefaultShimMatchesScalarSends) {
  // The base-class try_send_batch loops try_send: a runtime that never
  // overrides it still accepts batched engines.
  class CountingRuntime final : public core::ScanRuntime {
   public:
    util::Nanos now() const noexcept override { return 0; }
    [[nodiscard]] bool try_send(std::span<const std::byte> packet) override {
      sizes.push_back(packet.size());
      return sizes.size() % 2 == 1;  // alternate success/failure
    }
    void drain(const Sink&) override {}
    void idle_until(util::Nanos, const Sink&) override {}
    std::vector<std::size_t> sizes;
  };
  CountingRuntime runtime;
  core::ProbeBatch batch;
  for (int k = 0; k < 5; ++k) batch.commit(10 + static_cast<std::size_t>(k));
  const std::uint64_t ok = runtime.try_send_batch(batch);
  EXPECT_EQ(ok, 0b10101u);
  ASSERT_EQ(runtime.sizes.size(), 5u);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(runtime.sizes[static_cast<std::size_t>(k)],
              10 + static_cast<std::size_t>(k));
  }
  EXPECT_EQ(runtime.batch_budget(), 1u);
}

// --- ProbeSender drain rule ------------------------------------------------

/// Logs the batch calls a ProbeSender makes; the test sets the budget.
class RecordingRuntime final : public core::ScanRuntime {
 public:
  static constexpr util::Nanos kInterval = 10;

  util::Nanos now() const noexcept override { return clock; }
  [[nodiscard]] bool try_send(std::span<const std::byte>) override {
    return true;
  }
  [[nodiscard]] std::uint64_t try_send_batch(
      const core::ProbeBatch& batch) override {
    calls.push_back("send" + std::to_string(batch.count()));
    clock += batch.count() * kInterval;
    return ~std::uint64_t{0} >> (64 - batch.count());
  }
  std::uint32_t batch_budget() const noexcept override { return budget; }
  util::Nanos send_time_of(std::uint32_t k) const noexcept override {
    return clock + k * kInterval;
  }
  void set_rate(double) override { calls.push_back("rate"); }
  void drain(const Sink&) override { calls.push_back("drain"); }
  void idle_until(util::Nanos t, const Sink&) override {
    calls.push_back("idle");
    clock = std::max(clock, t);
  }

  std::uint32_t budget = 1;
  util::Nanos clock = 0;
  std::vector<std::string> calls;
};

struct SenderRig {
  RecordingRuntime runtime;
  core::ScanResult result;
  obs::ScanTelemetry telemetry;
  core::ProbeSender sender{runtime, [](std::span<const std::byte>,
                                       util::Nanos) {},
                           result, telemetry, /*log_probes=*/true};

  void stage() {
    sender.stage(1, 1, 0, [](util::Nanos, std::span<std::byte>) {
      return std::size_t{28};
    });
  }
};

TEST(ProbeSender, DrainPointsSkipOnlyInsideTheBudget) {
  SenderRig rig;
  rig.runtime.budget = 3;
  for (int i = 0; i < 3; ++i) {
    rig.stage();
    rig.sender.drain_point();
  }
  // A full buffer is submitted without a drain; the window runs on.
  rig.runtime.budget = 64;
  for (int i = 0; i < 70; ++i) rig.stage();
  EXPECT_EQ(rig.sender.now(), 73 * RecordingRuntime::kInterval);
  rig.sender.drain_point();
  EXPECT_EQ(rig.runtime.calls, (std::vector<std::string>{
                                   "send3", "drain", "send64", "send6",
                                   "drain"}));
  EXPECT_EQ(rig.result.probes_sent, 73u);
  ASSERT_EQ(rig.result.probe_log.size(), 73u);
  EXPECT_EQ(rig.result.probe_log.back().time,
            73 * RecordingRuntime::kInterval);
}

TEST(ProbeSender, SetRateEndsTheSkipWindow) {
  // The budget bounded the window at the old interval, so the first drain
  // point after a rate change must drain.
  SenderRig rig;
  rig.runtime.budget = 10;
  rig.stage();
  rig.sender.drain_point();
  rig.sender.set_rate(1.0);
  rig.stage();
  rig.sender.drain_point();
  EXPECT_EQ(rig.runtime.calls, (std::vector<std::string>{
                                   "send1", "rate", "send1", "drain"}));
}

}  // namespace
}  // namespace flashroute
