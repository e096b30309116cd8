#include "svc/client.h"

#include <chrono>
#include <thread>
#include <utility>

#include "svc/wire.h"
#include "util/clock.h"

namespace flashroute::svc {

std::optional<Client> Client::connect(const std::string& socket_path,
                                      int timeout_ms) {
  const util::MonotonicClock clock;
  const util::Nanos deadline =
      clock.now() + static_cast<util::Nanos>(timeout_ms) * util::kMillisecond;
  while (true) {
    if (auto connection = connect_unix(socket_path); connection.has_value()) {
      return Client(std::move(*connection));
    }
    if (clock.now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::optional<std::string> Client::roundtrip(const std::string& request) {
  if (!connection_.write_frame(request)) return std::nullopt;
  std::string reply;
  if (!connection_.read_frame(reply)) return std::nullopt;
  return reply;
}

std::optional<Submission> Client::submit(const JobSpec& spec) {
  io::Writer w = message(MsgType::kSubmit);
  encode_spec(w, spec);
  const auto reply = roundtrip(w.str());
  if (!reply.has_value() || peek_type(*reply) != MsgType::kSubmitReply) {
    return std::nullopt;
  }
  io::Reader r(*reply);
  r.u8();
  Submission submission;
  submission.admitted = r.boolean();
  submission.job_id = r.u64();
  submission.reason = r.string();
  submission.detail = r.string();
  if (!r.ok()) return std::nullopt;
  return submission;
}

std::optional<JobView> Client::status(std::uint64_t job_id) {
  io::Writer w = message(MsgType::kStatus);
  w.put_u64(job_id);
  const auto reply = roundtrip(w.str());
  if (!reply.has_value() || peek_type(*reply) != MsgType::kStatusReply) {
    return std::nullopt;
  }
  io::Reader r(*reply);
  r.u8();
  if (!r.boolean()) return std::nullopt;  // unknown job id
  return decode_view(r);
}

std::optional<std::vector<JobView>> Client::list() {
  io::Writer w = message(MsgType::kList);
  const auto reply = roundtrip(w.str());
  if (!reply.has_value() || peek_type(*reply) != MsgType::kListReply) {
    return std::nullopt;
  }
  io::Reader r(*reply);
  r.u8();
  std::vector<JobView> views;
  for (std::uint64_t left = r.count(1); left > 0; --left) {
    auto view = decode_view(r);
    if (!view.has_value()) return std::nullopt;
    views.push_back(std::move(*view));
  }
  if (!r.ok()) return std::nullopt;
  return views;
}

std::optional<CancelOutcome> Client::cancel(std::uint64_t job_id) {
  io::Writer w = message(MsgType::kCancel);
  w.put_u64(job_id);
  const auto reply = roundtrip(w.str());
  if (!reply.has_value() || peek_type(*reply) != MsgType::kCancelReply) {
    return std::nullopt;
  }
  io::Reader r(*reply);
  r.u8();
  const std::uint8_t outcome = r.u8();
  if (!r.ok() ||
      outcome > static_cast<std::uint8_t>(CancelOutcome::kSignalled)) {
    return std::nullopt;
  }
  return static_cast<CancelOutcome>(outcome);
}

std::optional<DiffReply> Client::diff(std::uint64_t before_id,
                                      std::uint64_t after_id) {
  io::Writer w = message(MsgType::kDiff);
  w.put_u64(before_id);
  w.put_u64(after_id);
  const auto reply = roundtrip(w.str());
  if (!reply.has_value() || peek_type(*reply) != MsgType::kDiffReply) {
    return std::nullopt;
  }
  io::Reader r(*reply);
  r.u8();
  DiffReply diff;
  diff.ok = r.boolean();
  if (!diff.ok) {
    diff.error = r.string();
    return r.ok() ? std::optional<DiffReply>(diff) : std::nullopt;
  }
  diff.interfaces_before = r.u64();
  diff.interfaces_after = r.u64();
  diff.interfaces_appeared = r.u64();
  diff.interfaces_vanished = r.u64();
  diff.routes_compared = r.u64();
  diff.routes_changed_hops = r.u64();
  diff.routes_changed_length = r.u64();
  if (!r.ok()) return std::nullopt;
  return diff;
}

std::optional<VerifyReply> Client::verify(std::uint64_t job_id) {
  io::Writer w = message(MsgType::kVerify);
  w.put_u64(job_id);
  const auto reply = roundtrip(w.str());
  if (!reply.has_value() || peek_type(*reply) != MsgType::kVerifyReply) {
    return std::nullopt;
  }
  io::Reader r(*reply);
  r.u8();
  VerifyReply verify;
  verify.found = r.boolean();
  if (verify.found) {
    verify.payload_size = r.u64();
    verify.payload_fnv1a = r.u64();
  }
  if (!r.ok()) return std::nullopt;
  return verify;
}

bool Client::shutdown() {
  io::Writer w = message(MsgType::kShutdown);
  const auto reply = roundtrip(w.str());
  return reply.has_value() && peek_type(*reply) == MsgType::kOk;
}

std::optional<JobView> Client::wait_job(std::uint64_t job_id, int poll_ms) {
  while (true) {
    auto view = status(job_id);
    if (!view.has_value()) return std::nullopt;
    if (job_state_terminal(view->state)) return view;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}

bool Client::wait_all(int poll_ms) {
  while (true) {
    const auto views = list();
    if (!views.has_value()) return false;
    bool pending = false;
    for (const JobView& view : *views) {
      if (!job_state_terminal(view.state)) pending = true;
    }
    if (!pending) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}

}  // namespace flashroute::svc
