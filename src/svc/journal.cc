#include "svc/journal.h"

#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "svc/wire.h"
#include "util/crash_point.h"

namespace flashroute::svc {

namespace {

// Only the admission records carry a spec; the rest are a few dozen bytes.
bool carries_spec(JournalKind kind) {
  return kind == JournalKind::kAdmitted || kind == JournalKind::kRejected;
}

std::string encode_record(const JournalRecord& record) {
  io::Writer w;  // journal payloads carry no MsgType byte
  w.put_u8(static_cast<std::uint8_t>(record.kind));
  w.put_u64(record.job_id);
  if (carries_spec(record.kind)) encode_spec(w, record.spec);
  w.put_string(record.reason);
  w.put_string(record.detail);
  w.put_u64(record.probes);
  w.put_u64(record.slices);
  return w.str();
}

std::optional<JournalRecord> decode_record(std::string_view payload) {
  io::Reader r(payload);
  JournalRecord record;
  const std::uint8_t kind = r.u8();
  if (kind < static_cast<std::uint8_t>(JournalKind::kAdmitted) ||
      kind > static_cast<std::uint8_t>(JournalKind::kFailed)) {
    return std::nullopt;
  }
  record.kind = static_cast<JournalKind>(kind);
  record.job_id = r.u64();
  if (carries_spec(record.kind)) {
    std::optional<JobSpec> spec = decode_spec(r);
    if (!spec.has_value()) return std::nullopt;
    record.spec = std::move(*spec);
  }
  record.reason = r.string();
  record.detail = r.string();
  record.probes = r.u64();
  record.slices = r.u64();
  if (!r.done()) return std::nullopt;  // trailing garbage is damage too
  return record;
}

}  // namespace

JobJournal::JobJournal(const std::string& path, Durability durability)
    : log_(path, kJournalMagic, durability, util::crash::kJournalAppend,
           std::numeric_limits<std::size_t>::max(),
           [this](const io::RecordLog::Frame&, std::string_view payload) {
             std::optional<JournalRecord> record = decode_record(payload);
             if (record.has_value()) records_.push_back(std::move(*record));
           }) {}

bool JobJournal::append(const JournalRecord& record) {
  return log_.append(encode_record(record)).has_value();
}

}  // namespace flashroute::svc
