#include "io/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string_view>

#include "io/record_log.h"

namespace flashroute::io {

namespace {

constexpr std::string_view kMagic = "FRCK";
constexpr std::uint64_t kFormatVersion = 1;

}  // namespace

void write_checkpoint(const ScanCheckpoint& checkpoint, Writer& out) {
  out.put_raw(kMagic);
  out.put_varint(kFormatVersion);
  out.put_varint(checkpoint.config_digest);
  out.put_varint(static_cast<std::uint64_t>(checkpoint.virtual_now));
  out.put_varint(static_cast<std::uint64_t>(checkpoint.scan_elapsed));
  out.put_varint(checkpoint.rounds_completed);
  out.put_varint(checkpoint.backoff_level);
  out.put_varint(checkpoint.ring_head);

  out.put_bytes(checkpoint.next_backward);
  out.put_bytes(checkpoint.next_forward);
  out.put_bytes(checkpoint.forward_horizon);
  out.put_bytes(checkpoint.dcb_flags);
  out.put_bytes(checkpoint.retransmit_left);

  // Probe log (FRSC v1 does not carry it; replays need it preserved across
  // a resume).
  const core::ScanResult& result = checkpoint.result;
  out.put_varint(result.probe_log.size());
  util::Nanos last_time = 0;
  for (const core::ProbeLogEntry& entry : result.probe_log) {
    out.put_varint(static_cast<std::uint64_t>(entry.time - last_time));
    last_time = entry.time;
    out.put_varint(entry.destination);
    out.put_varint(entry.ttl);
    out.put_varint(entry.preprobe ? 1 : 0);
  }

  // Resilience counters (also absent from the frozen FRSC v1 payload).
  out.put_varint(result.send_failures);
  out.put_varint(result.retransmits);
  out.put_varint(result.probe_timeouts);
  out.put_varint(result.rate_backoffs);

  // The partial result itself rides in the existing archive format.
  write_archive(result, checkpoint.header, out);
}

std::optional<ScanCheckpoint> read_checkpoint(std::string_view bytes) {
  Reader in(bytes);
  if (in.raw(kMagic.size()) != kMagic || in.varint() != kFormatVersion) {
    return std::nullopt;
  }
  ScanCheckpoint checkpoint;
  checkpoint.config_digest = in.varint();
  checkpoint.virtual_now = static_cast<util::Nanos>(in.varint());
  checkpoint.scan_elapsed = static_cast<util::Nanos>(in.varint());
  checkpoint.rounds_completed = in.varint();
  checkpoint.backoff_level = static_cast<std::uint32_t>(in.varint());
  checkpoint.ring_head = static_cast<std::uint32_t>(in.varint());

  checkpoint.next_backward = in.bytes();
  checkpoint.next_forward = in.bytes();
  checkpoint.forward_horizon = in.bytes();
  checkpoint.dcb_flags = in.bytes();
  checkpoint.retransmit_left = in.bytes();

  // A probe-log entry takes at least one byte for each of its 4 varints.
  core::ScanResult& result = checkpoint.result;
  result.probe_log.resize(in.count(4));
  util::Nanos last_time = 0;
  for (core::ProbeLogEntry& entry : result.probe_log) {
    last_time += static_cast<util::Nanos>(in.varint());
    entry.time = last_time;
    entry.destination = static_cast<std::uint32_t>(in.varint());
    entry.ttl = static_cast<std::uint8_t>(in.varint());
    entry.preprobe = in.varint() != 0;
  }

  result.send_failures = in.varint();
  result.retransmits = in.varint();
  result.probe_timeouts = in.varint();
  result.rate_backoffs = in.varint();

  if (!read_archive(in, checkpoint.header, result) || !in.done()) {
    return std::nullopt;
  }
  return checkpoint;
}

bool save_checkpoint_atomic(const std::string& path,
                            const ScanCheckpoint& checkpoint, bool sync) {
  Writer out;
  write_checkpoint(checkpoint, out);
  return publish_frame_atomic(path, kMagic, out.str(), sync);
}

std::optional<ScanCheckpoint> load_checkpoint_file(const std::string& path) {
  const std::optional<std::string> payload = read_frame_file(path, kMagic);
  if (!payload.has_value()) return std::nullopt;
  return read_checkpoint(*payload);
}

bool ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0) return true;
  if (errno != EEXIST) return false;
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool same_file(const std::string& a, const std::string& b) {
  struct stat sa = {};
  struct stat sb = {};
  return ::stat(a.c_str(), &sa) == 0 && ::stat(b.c_str(), &sb) == 0 &&
         sa.st_dev == sb.st_dev && sa.st_ino == sb.st_ino;
}

bool discard_checkpoint(const std::string& path) {
  if (std::remove(path.c_str()) == 0) return true;
  return errno == ENOENT;
}

}  // namespace flashroute::io
