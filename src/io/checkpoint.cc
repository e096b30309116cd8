#include "io/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>

#include "io/record_log.h"
#include "io/varint.h"

namespace flashroute::io {

namespace {

constexpr char kMagic[4] = {'F', 'R', 'C', 'K'};
constexpr std::uint64_t kFormatVersion = 1;

}  // namespace

void write_checkpoint(const ScanCheckpoint& checkpoint, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_varint(out, kFormatVersion);
  write_varint(out, checkpoint.config_digest);
  write_varint(out, static_cast<std::uint64_t>(checkpoint.virtual_now));
  write_varint(out, static_cast<std::uint64_t>(checkpoint.scan_elapsed));
  write_varint(out, checkpoint.rounds_completed);
  write_varint(out, checkpoint.backoff_level);
  write_varint(out, checkpoint.ring_head);

  write_bytes(out, checkpoint.next_backward);
  write_bytes(out, checkpoint.next_forward);
  write_bytes(out, checkpoint.forward_horizon);
  write_bytes(out, checkpoint.dcb_flags);
  write_bytes(out, checkpoint.retransmit_left);

  // Probe log (FRSC v1 does not carry it; replays need it preserved across
  // a resume).
  write_varint(out, checkpoint.result.probe_log.size());
  util::Nanos last_time = 0;
  for (const core::ProbeLogEntry& entry : checkpoint.result.probe_log) {
    write_varint(out, static_cast<std::uint64_t>(entry.time - last_time));
    last_time = entry.time;
    write_varint(out, entry.destination);
    write_varint(out, entry.ttl);
    write_varint(out, entry.preprobe ? 1 : 0);
  }

  // Resilience counters (also absent from the frozen FRSC v1 payload).
  write_varint(out, checkpoint.result.send_failures);
  write_varint(out, checkpoint.result.retransmits);
  write_varint(out, checkpoint.result.probe_timeouts);
  write_varint(out, checkpoint.result.rate_backoffs);

  // The partial result itself rides in the existing archive format.
  write_archive(checkpoint.result, checkpoint.header, out);
}

std::optional<ScanCheckpoint> read_checkpoint(std::istream& in) {
  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (!in.good() || std::char_traits<char>::compare(magic, kMagic, 4) != 0) {
    return std::nullopt;
  }
  const auto version = read_varint(in);
  if (!version || *version != kFormatVersion) return std::nullopt;

  ScanCheckpoint checkpoint;
  const auto digest = read_varint(in);
  const auto virtual_now = read_varint(in);
  const auto elapsed = read_varint(in);
  const auto rounds = read_varint(in);
  const auto backoff = read_varint(in);
  const auto head = read_varint(in);
  if (!digest || !virtual_now || !elapsed || !rounds || !backoff || !head) {
    return std::nullopt;
  }
  checkpoint.config_digest = *digest;
  checkpoint.virtual_now = static_cast<util::Nanos>(*virtual_now);
  checkpoint.scan_elapsed = static_cast<util::Nanos>(*elapsed);
  checkpoint.rounds_completed = *rounds;
  checkpoint.backoff_level = static_cast<std::uint32_t>(*backoff);
  checkpoint.ring_head = static_cast<std::uint32_t>(*head);

  if (!read_bytes(in, checkpoint.next_backward) ||
      !read_bytes(in, checkpoint.next_forward) ||
      !read_bytes(in, checkpoint.forward_horizon) ||
      !read_bytes(in, checkpoint.dcb_flags) ||
      !read_bytes(in, checkpoint.retransmit_left)) {
    return std::nullopt;
  }

  const auto log_size = read_varint(in);
  if (!log_size) return std::nullopt;
  checkpoint.result.probe_log.reserve(*log_size);
  util::Nanos last_time = 0;
  for (std::uint64_t i = 0; i < *log_size; ++i) {
    const auto delta = read_varint(in);
    const auto destination = read_varint(in);
    const auto ttl = read_varint(in);
    const auto preprobe = read_varint(in);
    if (!delta || !destination || !ttl || !preprobe) return std::nullopt;
    core::ProbeLogEntry entry;
    last_time += static_cast<util::Nanos>(*delta);
    entry.time = last_time;
    entry.destination = static_cast<std::uint32_t>(*destination);
    entry.ttl = static_cast<std::uint8_t>(*ttl);
    entry.preprobe = *preprobe != 0;
    checkpoint.result.probe_log.push_back(entry);
  }

  const auto send_failures = read_varint(in);
  const auto retransmits = read_varint(in);
  const auto probe_timeouts = read_varint(in);
  const auto rate_backoffs = read_varint(in);
  if (!send_failures || !retransmits || !probe_timeouts || !rate_backoffs) {
    return std::nullopt;
  }

  auto archive = read_archive(in);
  if (!archive) return std::nullopt;
  // read_archive rebuilt every FRSC-carried field; graft the FRCK extras
  // back on (the probe log parsed above, the counters parsed just now).
  archive->result.probe_log = std::move(checkpoint.result.probe_log);
  archive->result.send_failures = *send_failures;
  archive->result.retransmits = *retransmits;
  archive->result.probe_timeouts = *probe_timeouts;
  archive->result.rate_backoffs = *rate_backoffs;
  checkpoint.header = archive->header;
  checkpoint.result = std::move(archive->result);
  return checkpoint;
}

bool save_checkpoint_atomic(const std::string& path,
                            const ScanCheckpoint& checkpoint, bool sync) {
  std::ostringstream out;
  write_checkpoint(checkpoint, out);
  const std::string_view magic(kMagic, sizeof kMagic);
  return out && publish_frame_atomic(path, magic, out.view(), sync);
}

std::optional<ScanCheckpoint> load_checkpoint_file(const std::string& path) {
  std::optional<std::string> payload =
      read_frame_file(path, std::string_view(kMagic, sizeof kMagic));
  if (!payload.has_value()) return std::nullopt;
  std::istringstream in(std::move(*payload));
  return read_checkpoint(in);
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
