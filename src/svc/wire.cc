#include "svc/wire.h"

namespace flashroute::svc {

io::Writer message(MsgType type) {
  io::Writer w;
  w.put_u8(static_cast<std::uint8_t>(type));
  return w;
}

std::optional<MsgType> peek_type(std::string_view payload) {
  if (payload.empty()) return std::nullopt;
  const auto raw = static_cast<std::uint8_t>(payload[0]);
  if (raw < static_cast<std::uint8_t>(MsgType::kRetiredSubmit) ||
      raw > static_cast<std::uint8_t>(MsgType::kSubmit)) {
    return std::nullopt;
  }
  return static_cast<MsgType>(raw);
}

void encode_spec(io::Writer& w, const JobSpec& spec) {
  w.put_string(spec.name);
  w.put_u32(static_cast<std::uint32_t>(spec.prefix_bits));
  w.put_u32(spec.first_prefix);
  w.put_u64(spec.topology_seed);
  w.put_u64(spec.scan_seed);
  w.put_u64(spec.target_seed);
  w.put_f64(spec.probes_per_second);
  w.put_u8(spec.split_ttl);
  w.put_u8(spec.gap_limit);
  w.put_u8(spec.max_ttl);
  w.put_u8(static_cast<std::uint8_t>(spec.preprobe));
  w.put_u8(spec.proximity_span);
  w.put_u8(spec.extra_scans);
  w.put_bool(spec.redundancy_removal);
  w.put_bool(spec.forward_probing);
  w.put_bool(spec.collect_routes);
  w.put_u64(static_cast<std::uint64_t>(spec.min_round_duration));
  w.put_u8(spec.max_retransmits);
  w.put_u64(static_cast<std::uint64_t>(spec.retransmit_timeout));
  w.put_bool(spec.adaptive_backoff);
  w.put_u64(static_cast<std::uint64_t>(spec.checkpoint_interval));
  for (const double fault :
       {spec.fault_probe_loss, spec.fault_response_loss, spec.fault_duplicate,
        spec.fault_reorder, spec.fault_corrupt, spec.fault_blackhole,
        spec.fault_flap, spec.fault_send_fail}) {
    w.put_f64(fault);
  }
  w.put_u32(static_cast<std::uint32_t>(spec.priority));
  w.put_f64(spec.weight);
  w.put_string(spec.request_key);
}

std::optional<JobSpec> decode_spec(io::Reader& r) {
  JobSpec spec;
  spec.name = r.string();
  spec.prefix_bits = static_cast<int>(r.u32());
  spec.first_prefix = r.u32();
  spec.topology_seed = r.u64();
  spec.scan_seed = r.u64();
  spec.target_seed = r.u64();
  spec.probes_per_second = r.f64();
  spec.split_ttl = r.u8();
  spec.gap_limit = r.u8();
  spec.max_ttl = r.u8();
  const std::uint8_t preprobe = r.u8();
  if (preprobe > static_cast<std::uint8_t>(core::PreprobeMode::kHitlist)) {
    return std::nullopt;
  }
  spec.preprobe = static_cast<core::PreprobeMode>(preprobe);
  spec.proximity_span = r.u8();
  spec.extra_scans = r.u8();
  spec.redundancy_removal = r.boolean();
  spec.forward_probing = r.boolean();
  spec.collect_routes = r.boolean();
  spec.min_round_duration = static_cast<util::Nanos>(r.u64());
  spec.max_retransmits = r.u8();
  spec.retransmit_timeout = static_cast<util::Nanos>(r.u64());
  spec.adaptive_backoff = r.boolean();
  spec.checkpoint_interval = static_cast<util::Nanos>(r.u64());
  for (double* fault :
       {&spec.fault_probe_loss, &spec.fault_response_loss,
        &spec.fault_duplicate, &spec.fault_reorder, &spec.fault_corrupt,
        &spec.fault_blackhole, &spec.fault_flap, &spec.fault_send_fail}) {
    *fault = r.f64();
  }
  spec.priority = static_cast<int>(r.u32());
  spec.weight = r.f64();
  spec.request_key = r.string();
  if (!r.ok()) return std::nullopt;
  return spec;
}

void encode_view(io::Writer& w, const JobView& view) {
  w.put_u64(view.id);
  w.put_u8(static_cast<std::uint8_t>(view.state));
  w.put_string(view.name);
  w.put_u32(static_cast<std::uint32_t>(view.priority));
  w.put_f64(view.probes_per_second);
  w.put_u64(view.probes);
  w.put_u64(view.slices);
  w.put_bool(view.has_checkpoint);
  w.put_string(view.detail);
}

std::optional<JobView> decode_view(io::Reader& r) {
  JobView view;
  view.id = r.u64();
  view.state = static_cast<JobState>(r.u8());
  view.name = r.string();
  view.priority = static_cast<int>(r.u32());
  view.probes_per_second = r.f64();
  view.probes = r.u64();
  view.slices = r.u64();
  view.has_checkpoint = r.boolean();
  view.detail = r.string();
  if (!r.ok()) return std::nullopt;
  return view;
}

}  // namespace flashroute::svc
