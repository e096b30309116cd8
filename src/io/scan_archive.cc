#include "io/scan_archive.h"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "util/crash_point.h"
#include "util/sync.h"
#include "net/ipv4.h"

namespace flashroute::io {

namespace {

constexpr std::string_view kMagic = "FRSC";
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
                   const ArchiveHeader& header, Writer& out) {
  out.put_raw(kMagic);
  out.put_varint(kFormatVersion);
  out.put_varint(header.first_prefix);
  out.put_varint(static_cast<std::uint64_t>(header.prefix_bits));
  out.put_varint(header.seed);

  // Scalar counters.
  out.put_varint(result.probes_sent);
  out.put_varint(result.preprobe_probes);
  out.put_varint(result.responses);
  out.put_varint(result.mismatches);
  out.put_varint(result.destinations_reached);
  out.put_varint(result.distances_measured);
  out.put_varint(result.distances_predicted);
  out.put_varint(result.convergence_stops);
  out.put_varint(static_cast<std::uint64_t>(result.scan_time));
  out.put_varint(static_cast<std::uint64_t>(result.preprobe_time));

  // Interfaces, delta-coded over the sorted set.
  std::vector<std::uint32_t> interfaces(result.interfaces.begin(),
                                        result.interfaces.end());
  std::sort(interfaces.begin(), interfaces.end());
  out.put_varint(interfaces.size());
  std::uint32_t previous = 0;
  for (const std::uint32_t ip : interfaces) {
    out.put_varint(ip - previous);
    previous = ip;
  }

  // Per-prefix byte vectors (empty vectors are stored with length 0).
  out.put_bytes(result.destination_distance);
  out.put_bytes(result.trigger_ttl);
  out.put_bytes(result.measured_distance);
  out.put_bytes(result.predicted_distance);

  // Routes.
  out.put_varint(result.routes.size());
  for (const auto& route : result.routes) {
    out.put_varint(route.size());
    for (const core::RouteHop& hop : route) {
      out.put_varint(hop.ip);
      out.put_u8(hop.ttl);
      out.put_u8(hop.flags);
    }
  }
}

bool read_archive(Reader& in, ArchiveHeader& header,
                  core::ScanResult& result) {
  if (in.raw(kMagic.size()) != kMagic || in.varint() != kFormatVersion) {
    return false;
  }
  header.first_prefix = static_cast<std::uint32_t>(in.varint());
  header.prefix_bits = static_cast<int>(in.varint());
  header.seed = in.varint();

  result.probes_sent = in.varint();
  result.preprobe_probes = in.varint();
  result.responses = in.varint();
  result.mismatches = in.varint();
  result.destinations_reached = in.varint();
  result.distances_measured = in.varint();
  result.distances_predicted = in.varint();
  result.convergence_stops = in.varint();
  result.scan_time = static_cast<util::Nanos>(in.varint());
  result.preprobe_time = static_cast<util::Nanos>(in.varint());

  std::uint32_t previous = 0;
  for (std::uint64_t left = in.count(1); left > 0 && in.ok(); --left) {
    previous += static_cast<std::uint32_t>(in.varint());
    result.interfaces.insert(previous);
  }

  result.destination_distance = in.bytes();
  result.trigger_ttl = in.bytes();
  result.measured_distance = in.bytes();
  result.predicted_distance = in.bytes();

  // A route takes at least its hop count's byte, a hop at least 3 bytes.
  result.routes.resize(in.count(1));
  for (auto& route : result.routes) {
    route.resize(in.count(3));
    for (core::RouteHop& hop : route) {
      hop.ip = static_cast<std::uint32_t>(in.varint());
      hop.ttl = in.u8();
      hop.flags = in.u8();
    }
  }
  return in.ok();
}

std::optional<LoadedArchive> read_archive(std::string_view bytes) {
  Reader in(bytes);
  LoadedArchive loaded;
  if (!read_archive(in, loaded.header, loaded.result) || !in.done()) {
    return std::nullopt;
  }
  return loaded;
}

bool save_archive_file(const std::string& path,
                       const core::ScanResult& result,
                       const ArchiveHeader& header) {
  Writer out;
  write_archive(result, header, out);
  return publish_frame_atomic(path, kFileMagic, out.str(), /*sync=*/true);
}

std::optional<LoadedArchive> load_archive_file(const std::string& path) {
  const std::optional<std::string> payload =
      read_frame_file(path, kFileMagic);
  if (!payload.has_value()) return std::nullopt;
  return read_archive(*payload);
}

// --- JobArchive --------------------------------------------------------------

JobArchive::JobArchive(const std::string& path, Durability durability)
    : log_(path, "FRSJ", durability, util::crash::kArchiveFlush, kJobIdBytes,
           [this](const RecordLog::Frame& frame, std::string_view head) {
             Reader id(head);
             const std::uint64_t job_id = id.u64();
             if (!id.ok()) return;
             const util::MutexLock lock(mutex_);
             index_.push_back({job_id, frame});
           }) {}

bool JobArchive::append(std::uint64_t job_id, const core::ScanResult& result,
                        const ArchiveHeader& header) {
  Writer payload;
  payload.put_u64(job_id);
  write_archive(result, header, payload);

  // The log serializes the write; the archive lock guards only the index,
  // so queries never wait on file I/O.  Appends racing each other may
  // finish out of order: insert by offset to keep the index in file order.
  const std::optional<RecordLog::Frame> frame = log_.append(payload.str());
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
  const std::optional<std::string> payload = payload_bytes(job_id);
  if (!payload.has_value()) return std::nullopt;
  return read_archive(*payload);
}

}  // namespace flashroute::io
