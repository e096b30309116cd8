#include "svc/event_log.h"

#include "obs/snapshot_exporter.h"
#include "util/sync.h"

namespace flashroute::svc {

namespace {

// The one JSON string escaper, shared with the metrics stream.
constexpr auto json_escape = &obs::SnapshotExporter::json_escape;

}  // namespace

JobEventLog::JobEventLog(std::ostream* out, NowFn now)
    : out_(out), now_(std::move(now)) {}

void JobEventLog::emit(const JobEvent& event) {
  const util::MutexLock lock(mutex_);
  std::uint64_t t = now_ ? now_() : 0;
  if (t < last_t_) t = last_t_;  // clamp: the stream must be monotone
  last_t_ = t;
  seq_ += 1;

  bool counted = false;
  for (auto& [name, count] : counts_) {
    if (name == event.event) {
      count += 1;
      counted = true;
      break;
    }
  }
  if (!counted) counts_.emplace_back(event.event, 1);

  if (out_ == nullptr) return;
  std::ostream& os = *out_;
  os << "{\"type\":\"job_event\",\"seq\":" << seq_ << ",\"t_ns\":" << t
     << ",\"job\":" << event.job_id << ",\"event\":\"" << event.event << '"';
  if (!event.name.empty()) {
    os << ",\"name\":\"" << json_escape(event.name) << '"';
  }
  if (event.has_priority) os << ",\"priority\":" << event.priority;
  if (!event.reason.empty()) {
    os << ",\"reason\":\"" << json_escape(event.reason) << '"';
  }
  if (!event.detail.empty()) {
    os << ",\"detail\":\"" << json_escape(event.detail) << '"';
  }
  if (event.worker >= 0) os << ",\"worker\":" << event.worker;
  if (event.slice > 0) os << ",\"slice\":" << event.slice;
  if (event.probes > 0) os << ",\"probes\":" << event.probes;
  os << "}\n";
  os.flush();
}

void JobEventLog::summary(
    bool drained, bool clean_shutdown,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  const util::MutexLock lock(mutex_);
  if (out_ == nullptr) return;
  std::ostream& os = *out_;
  seq_ += 1;
  os << "{\"type\":\"job_summary\",\"seq\":" << seq_ << ",\"t_ns\":" << last_t_
     << ",\"drained\":" << (drained ? "true" : "false")
     << ",\"clean_shutdown\":" << (clean_shutdown ? "true" : "false")
     << ",\"events\":{";
  bool first = true;
  for (const auto& [name, count] : counts_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << count;
  }
  os << "},\"counters\":{";
  first = true;
  for (const auto& [name, value] : counters) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":" << value;
  }
  os << "}}\n";
  os.flush();
}

std::uint64_t JobEventLog::events_emitted() const {
  const util::MutexLock lock(mutex_);
  return seq_;
}

}  // namespace flashroute::svc
