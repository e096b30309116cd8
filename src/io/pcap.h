// Pcap capture of scan traffic.
//
// §4.2.3: FlashRoute "offers an option to exclude response logging,
// relegating this task to an external sniffer".  This module provides the
// sniffer side in-process: a classic pcap-format writer/reader
// (LINKTYPE_RAW: packets begin at the IPv4 header, exactly the bytes our
// engines produce and consume) and a ScanRuntime decorator that captures
// every probe and response of a scan into a capture, for offline analysis
// with this library or any standard tool that reads pcap.

#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <vector>

#include "core/runtime.h"
#include "util/clock.h"

namespace flashroute::io {

/// One captured packet: raw IPv4 bytes plus a capture timestamp.
struct CapturedPacket {
  util::Nanos time = 0;
  std::vector<std::byte> bytes;
};

/// Writes the classic pcap global header (magic 0xA1B23C4D: nanosecond
/// timestamps; linktype 101 = LINKTYPE_RAW).
void write_pcap_header(std::ostream& out);

/// Appends one packet record.
void write_pcap_packet(std::ostream& out, util::Nanos time,
                       std::span<const std::byte> packet);

/// Reads a whole capture; returns nullopt on bad magic or truncation.
/// Both nanosecond (0xA1B23C4D) and microsecond (0xA1B2C3D4) captures are
/// accepted; timestamps are normalized to nanoseconds.
std::optional<std::vector<CapturedPacket>> read_pcap(std::istream& in);

/// ScanRuntime decorator: forwards everything to the inner runtime and
/// writes each sent probe and each delivered response to a pcap stream.
/// The stream must outlive the runtime; the caller writes nothing else to
/// it while capturing.
class CapturingRuntime final : public core::ScanRuntime {
 public:
  CapturingRuntime(core::ScanRuntime& inner, std::ostream& out)
      : inner_(inner), out_(out) {
    write_pcap_header(out_);
  }

  util::Nanos now() const noexcept override { return inner_.now(); }

  /// Forwarded so a probe is stamped with its own send slot and adaptive
  /// backoff paces the inner runtime: a captured scan is the bare scan.
  util::Nanos send_time_of(std::uint32_t k) const noexcept override {
    return inner_.send_time_of(k);
  }
  void set_rate(double probes_per_second) override {
    inner_.set_rate(probes_per_second);
  }

  /// Captures only probes that actually reached the wire: a failed inner
  /// send produced no traffic, so it must not appear in the capture.
  [[nodiscard]] bool try_send(std::span<const std::byte> packet) override {
    if (!inner_.try_send(packet)) return false;
    write_pcap_packet(out_, inner_.now(), packet);
    ++packets_sent_;
    return true;
  }

  void drain(const Sink& sink) override { inner_.drain(wrap(sink)); }

  void idle_until(util::Nanos t, const Sink& sink) override {
    inner_.idle_until(t, wrap(sink));
  }

  /// A response the inner runtime dropped never reached the capture either.
  std::uint64_t packets_dropped() const noexcept override {
    return inner_.packets_dropped();
  }

 private:
  Sink wrap(const Sink& sink) {
    return [this, &sink](std::span<const std::byte> packet,
                         util::Nanos arrival) {
      write_pcap_packet(out_, arrival, packet);
      sink(packet, arrival);
    };
  }

  core::ScanRuntime& inner_;
  std::ostream& out_;
};

}  // namespace flashroute::io
