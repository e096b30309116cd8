#include "io/scan_archive.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "io/varint.h"
#include "util/crash_point.h"
#include "util/sync.h"
#include "net/ipv4.h"

namespace flashroute::io {

namespace {

constexpr char kMagic[4] = {'F', 'R', 'S', 'C'};
constexpr std::uint64_t kFormatVersion = 1;
// The frame magic of an archive file (save_archive_file).
constexpr std::string_view kFileMagic = "FRSA";
// A JobArchive payload is the job id, then the FRSC bytes.
constexpr std::size_t kJobIdBytes = 8;

std::vector<core::RouteHop> sorted_hops(
    const std::vector<core::RouteHop>& hops) {
  auto sorted = hops;
  std::sort(sorted.begin(), sorted.end(),
            [](const core::RouteHop& a, const core::RouteHop& b) {
              if (a.ttl != b.ttl) return a.ttl < b.ttl;
              return a.ip < b.ip;
            });
  return sorted;
}

const char* hop_kind(const core::RouteHop& hop) {
  if (hop.flags & core::RouteHop::kFromDestination) return "dest";
  if (hop.flags & core::RouteHop::kPreprobe) return "preprobe";
  if (hop.flags & core::RouteHop::kExtraScan) return "extra";
  return "hop";
}

}  // namespace

void write_routes_text(const core::ScanResult& result,
                       const TargetResolver& target_of,
                       std::uint32_t first_prefix, std::ostream& out) {
  for (std::size_t i = 0; i < result.routes.size(); ++i) {
    if (result.routes[i].empty()) continue;
    const auto offset = static_cast<std::uint32_t>(i);
    out << "target "
        << net::Ipv4Address(target_of(offset)).to_string() << " (prefix "
        << net::Ipv4Address((first_prefix + offset) << 8).to_string()
        << "/24";
    if (i < result.destination_distance.size() &&
        result.destination_distance[i] != 0) {
      out << ", distance " << int(result.destination_distance[i]);
    }
    out << ")\n";
    std::uint8_t last_ttl = 0;
    std::uint32_t last_ip = 0;
    for (const core::RouteHop& hop : sorted_hops(result.routes[i])) {
      if (hop.ttl == last_ttl && hop.ip == last_ip) continue;
      last_ttl = hop.ttl;
      last_ip = hop.ip;
      out << "  " << int(hop.ttl) << "\t"
          << net::Ipv4Address(hop.ip).to_string();
      if (hop.flags != 0) out << "\t[" << hop_kind(hop) << "]";
      out << "\n";
    }
  }
}

void write_routes_csv(const core::ScanResult& result,
                      const TargetResolver& target_of,
                      std::uint32_t first_prefix, std::ostream& out) {
  out << "prefix,target,ttl,hop,kind\n";
  for (std::size_t i = 0; i < result.routes.size(); ++i) {
    if (result.routes[i].empty()) continue;
    const auto offset = static_cast<std::uint32_t>(i);
    const std::string prefix =
        net::Ipv4Address((first_prefix + offset) << 8).to_string();
    const std::string target =
        net::Ipv4Address(target_of(offset)).to_string();
    for (const core::RouteHop& hop : sorted_hops(result.routes[i])) {
      out << prefix << ',' << target << ',' << int(hop.ttl) << ','
          << net::Ipv4Address(hop.ip).to_string() << ',' << hop_kind(hop)
          << "\n";
    }
  }
}

void write_archive(const core::ScanResult& result,
                   const ArchiveHeader& header, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_varint(out, kFormatVersion);
  write_varint(out, header.first_prefix);
  write_varint(out, static_cast<std::uint64_t>(header.prefix_bits));
  write_varint(out, header.seed);

  // Scalar counters.
  write_varint(out, result.probes_sent);
  write_varint(out, result.preprobe_probes);
  write_varint(out, result.responses);
  write_varint(out, result.mismatches);
  write_varint(out, result.destinations_reached);
  write_varint(out, result.distances_measured);
  write_varint(out, result.distances_predicted);
  write_varint(out, result.convergence_stops);
  write_varint(out, static_cast<std::uint64_t>(result.scan_time));
  write_varint(out, static_cast<std::uint64_t>(result.preprobe_time));

  // Interfaces, delta-coded over the sorted set.
  std::vector<std::uint32_t> interfaces(result.interfaces.begin(),
                                        result.interfaces.end());
  std::sort(interfaces.begin(), interfaces.end());
  write_varint(out, interfaces.size());
  std::uint32_t previous = 0;
  for (const std::uint32_t ip : interfaces) {
    write_varint(out, ip - previous);
    previous = ip;
  }

  // Per-prefix byte vectors (empty vectors are stored with length 0).
  write_bytes(out, result.destination_distance);
  write_bytes(out, result.trigger_ttl);
  write_bytes(out, result.measured_distance);
  write_bytes(out, result.predicted_distance);

  // Routes.
  write_varint(out, result.routes.size());
  for (const auto& route : result.routes) {
    write_varint(out, route.size());
    for (const core::RouteHop& hop : route) {
      write_varint(out, hop.ip);
      out.put(static_cast<char>(hop.ttl));
      out.put(static_cast<char>(hop.flags));
    }
  }
}

std::optional<LoadedArchive> read_archive(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof magic);
  if (!in || !std::equal(magic, magic + 4, kMagic)) return std::nullopt;
  const auto version = read_varint(in);
  if (!version || *version != kFormatVersion) return std::nullopt;

  LoadedArchive loaded;
  const auto read_u64 = [&](auto& field) -> bool {
    const auto value = read_varint(in);
    if (!value) return false;
    field = static_cast<std::remove_reference_t<decltype(field)>>(*value);
    return true;
  };

  if (!read_u64(loaded.header.first_prefix)) return std::nullopt;
  if (!read_u64(loaded.header.prefix_bits)) return std::nullopt;
  if (!read_u64(loaded.header.seed)) return std::nullopt;

  core::ScanResult& result = loaded.result;
  if (!read_u64(result.probes_sent)) return std::nullopt;
  if (!read_u64(result.preprobe_probes)) return std::nullopt;
  if (!read_u64(result.responses)) return std::nullopt;
  if (!read_u64(result.mismatches)) return std::nullopt;
  if (!read_u64(result.destinations_reached)) return std::nullopt;
  if (!read_u64(result.distances_measured)) return std::nullopt;
  if (!read_u64(result.distances_predicted)) return std::nullopt;
  if (!read_u64(result.convergence_stops)) return std::nullopt;
  if (!read_u64(result.scan_time)) return std::nullopt;
  if (!read_u64(result.preprobe_time)) return std::nullopt;

  const auto interface_count = read_varint(in);
  if (!interface_count) return std::nullopt;
  std::uint32_t previous = 0;
  for (std::uint64_t i = 0; i < *interface_count; ++i) {
    const auto delta = read_varint(in);
    if (!delta) return std::nullopt;
    previous += static_cast<std::uint32_t>(*delta);
    result.interfaces.insert(previous);
  }

  if (!read_bytes(in, result.destination_distance) ||
      !read_bytes(in, result.trigger_ttl) ||
      !read_bytes(in, result.measured_distance) ||
      !read_bytes(in, result.predicted_distance)) {
    return std::nullopt;
  }

  const auto route_count = read_varint(in);
  if (!route_count || *route_count > (std::uint64_t{1} << 32)) {
    return std::nullopt;
  }
  result.routes.resize(static_cast<std::size_t>(*route_count));
  for (auto& route : result.routes) {
    const auto hop_count = read_varint(in);
    if (!hop_count || *hop_count > (std::uint64_t{1} << 24)) {
      return std::nullopt;
    }
    route.resize(static_cast<std::size_t>(*hop_count));
    for (core::RouteHop& hop : route) {
      const auto ip = read_varint(in);
      if (!ip) return std::nullopt;
      hop.ip = static_cast<std::uint32_t>(*ip);
      const int ttl = in.get();
      const int flags = in.get();
      if (ttl == std::char_traits<char>::eof() ||
          flags == std::char_traits<char>::eof()) {
        return std::nullopt;
      }
      hop.ttl = static_cast<std::uint8_t>(ttl);
      hop.flags = static_cast<std::uint8_t>(flags);
    }
  }
  return loaded;
}

bool save_archive_file(const std::string& path,
                       const core::ScanResult& result,
                       const ArchiveHeader& header) {
  std::ostringstream out;
  write_archive(result, header, out);
  return out && publish_frame_atomic(path, kFileMagic, out.view(),
                                     /*sync=*/true);
}

std::optional<LoadedArchive> load_archive_file(const std::string& path) {
  std::optional<std::string> payload = read_frame_file(path, kFileMagic);
  if (!payload.has_value()) return std::nullopt;
  std::istringstream in(std::move(*payload));
  return read_archive(in);
}

// --- JobArchive --------------------------------------------------------------

JobArchive::JobArchive(const std::string& path, Durability durability)
    : log_(path, "FRSJ", durability, util::crash::kArchiveFlush, kJobIdBytes,
           [this](const RecordLog::Frame& frame, std::string_view head) {
             if (head.size() < kJobIdBytes) return;
             const util::MutexLock lock(mutex_);
             index_.push_back({get_le(head.data(), kJobIdBytes), frame});
           }) {}

bool JobArchive::append(std::uint64_t job_id, const core::ScanResult& result,
                        const ArchiveHeader& header) {
  std::string id;
  put_le(id, job_id, kJobIdBytes);
  std::ostringstream payload(id, std::ios::ate);
  write_archive(result, header, payload);

  // The log serializes the write; the archive lock guards only the index,
  // so queries never wait on file I/O.  Appends racing each other may
  // finish out of order: insert by offset to keep the index in file order.
  const std::optional<RecordLog::Frame> frame =
      log_.append(std::move(payload).str());
  if (!frame.has_value()) return false;
  const util::MutexLock lock(mutex_);
  auto at = index_.end();
  while (at != index_.begin() && std::prev(at)->frame.offset > frame->offset) {
    --at;
  }
  index_.insert(at, {job_id, *frame});
  return true;
}

std::vector<JobArchive::Entry> JobArchive::index() const {
  const util::MutexLock lock(mutex_);
  return index_;
}

std::optional<std::string> JobArchive::payload_bytes(
    std::uint64_t job_id) const {
  std::optional<RecordLog::Frame> latest;
  {
    const util::MutexLock lock(mutex_);
    for (const Entry& entry : index_) {
      if (entry.job_id == job_id) latest = entry.frame;
    }
  }
  if (!latest.has_value()) return std::nullopt;
  std::optional<std::string> payload = log_.read(*latest);
  if (payload.has_value()) payload->erase(0, kJobIdBytes);
  return payload;
}

std::optional<LoadedArchive> JobArchive::load(std::uint64_t job_id) const {
  const auto payload = payload_bytes(job_id);
  if (!payload) return std::nullopt;
  std::istringstream in(*payload);
  return read_archive(in);
}

}  // namespace flashroute::io
