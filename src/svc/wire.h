// frd wire protocol: framing and message codec (DESIGN.md §12).
//
// Transport framing (the socket layer's job, src/svc/socket.h):
//
//   [u32 LE payload length][payload bytes]
//
// with payload length capped at kMaxFrame.  This header describes the
// *payload* encoding: byte 0 is the MsgType, the rest is a flat sequence of
// io/codec.h values (little-endian fixed-width integers, varints, doubles
// and length-prefixed strings) — no self-description, both ends share this
// file.  The codec is pure buffer-in/buffer-out and does no I/O, so it is
// unit-testable without a socket and keeps the daemon's syscall surface
// confined to socket.cc.
//
// A malformed payload never traps: io::Reader latches its failure and
// yields zeros, and message decoders return nullopt.

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "io/codec.h"
#include "svc/job.h"
#include "svc/scheduler.h"

namespace flashroute::svc {

/// Frames larger than this are a protocol violation; the peer is dropped.
inline constexpr std::uint32_t kMaxFrame = 1u << 20;

enum class MsgType : std::uint8_t {
  /// A submit carrying the spec layout from before ScanSpec.  The daemon
  /// answers it with kError and never decodes it.
  kRetiredSubmit = 1,
  kSubmitReply = 2,
  kStatus = 3,
  kStatusReply = 4,
  kList = 5,
  kListReply = 6,
  kCancel = 7,
  kCancelReply = 8,
  kDiff = 9,
  kDiffReply = 10,
  kVerify = 11,
  kVerifyReply = 12,
  kShutdown = 13,
  kOk = 14,
  kError = 15,
  /// A submit carrying encode_spec's layout.  A new spec layout takes a
  /// new type, so no daemon ever decodes a spec in a layout it does not
  /// know.
  kSubmit = 16,
};

/// A payload holding only `type`'s byte, for the message's fields to
/// follow.
io::Writer message(MsgType type);

/// Reads the MsgType of a framed payload (nullopt when empty/unknown).
std::optional<MsgType> peek_type(std::string_view payload);

// Field-group codecs shared by daemon and client.  encode_spec is the one
// byte codec of a JobSpec: the submit message and the journal's admitted
// and rejected records (svc/journal.h) both carry a spec in its layout,
// which their type byte and file magic version.
void encode_spec(io::Writer& w, const JobSpec& spec);
std::optional<JobSpec> decode_spec(io::Reader& r);

void encode_view(io::Writer& w, const JobView& view);
std::optional<JobView> decode_view(io::Reader& r);

}  // namespace flashroute::svc
