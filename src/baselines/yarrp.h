// Yarrp baseline (Beverly, IMC'16; Yarrp6, IMC'18) — the state of the art
// FlashRoute is compared against in §4.2.
//
// Yarrp is stateless: it walks a random permutation of every
// (prefix, TTL) pair and fires one probe per element, never adapting to
// feedback.  We reproduce:
//
//  * the ZMap-style keyed permutation over the (prefix, TTL) domain;
//  * Paris-TCP-ACK probes by default (elapsed time in the TCP sequence
//    number); UDP optional — the real Yarrp's UDP encoding overflows the
//    packet-length field (§4.2.1 footnote), which is why the paper
//    *simulates* Yarrp-32-UDP with a restricted FlashRoute configuration;
//  * Yarrp6 "fill mode" (Yarrp-16): exhaustive probing up to a reduced
//    maximum TTL, plus one sequential extra hop whenever the farthest probed
//    hop responds and is not the target — an inherent forward gap limit of
//    one, the cause of Yarrp-16's poor interface yield in Table 3;
//  * neighborhood protection: probes within N hops of the vantage are
//    suppressed once no new interface has appeared there for 30 s (§4.2.1).
//
// The walk drains after every probe, like the real tool's decoupled
// receiver; probes go out through a core::ProbeSender, which gathers them
// into batches whenever the drains in between are provably empty — in pure,
// fill and protection modes alike (DESIGN.md §11).  Replies are matched and
// recorded through a core::ResponseRecorder.

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/probe_codec.h"
#include "core/probe_sender.h"
#include "core/response_recorder.h"
#include "core/result.h"
#include "core/runtime.h"
#include "net/ipv4.h"
#include "obs/scan_metrics.h"
#include "util/annotations.h"

namespace flashroute::baselines {

struct YarrpConfig {
  std::uint32_t first_prefix = 0x010000;
  int prefix_bits = 16;
  net::Ipv4Address vantage{0xCB00710A};
  double probes_per_second = 100'000.0;

  /// Every TTL in [1, exhaustive_ttl] is probed for every prefix.
  std::uint8_t exhaustive_ttl = 32;
  /// Fill mode (Yarrp-16): responses at the frontier trigger one sequential
  /// extra probe, up to fill_max_ttl.
  bool fill_mode = false;
  std::uint8_t fill_max_ttl = 32;

  enum class ProbeType { kTcpAck, kUdp };
  ProbeType probe_type = ProbeType::kTcpAck;

  /// Neighborhood protection: 0 = off, else protect hops 1..N.
  int protected_hops = 0;
  util::Nanos protection_window = 30 * util::kSecond;

  std::uint64_t seed = 11;
  std::uint64_t target_seed = 42;
  bool collect_routes = true;
  bool collect_probe_log = false;

  std::uint32_t num_prefixes() const noexcept {
    return std::uint32_t{1} << prefix_bits;
  }
};

class Yarrp {
 public:
  Yarrp(const YarrpConfig& config, core::ScanRuntime& runtime);

  [[nodiscard]] core::ScanResult run();

 private:
  struct FillProbe {
    std::uint32_t destination;
    std::uint8_t ttl;
  };

  /// Stages one probe, then marks the drain that follows it.
  FR_HOT void send_probe(std::uint32_t destination, std::uint8_t ttl);
  void on_packet(std::span<const std::byte> packet, util::Nanos arrival);
  void flush_fill_queue();

  YarrpConfig config_;
  core::ProbeCodec codec_;
  core::ScanResult result_;
  /// Baselines report no telemetry: a disabled handle.
  const obs::ScanTelemetry telemetry_{};
  core::ProbeSender sender_;
  core::ResponseRecorder recorder_;
  std::deque<FillProbe> fill_queue_;
  /// last time a *new* interface appeared at hop h (1-based, protection).
  std::vector<util::Nanos> last_new_interface_;
};

}  // namespace flashroute::baselines
