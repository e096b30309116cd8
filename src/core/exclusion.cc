#include "core/exclusion.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <utility>

namespace flashroute::core {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t' ||
                           text.front() == '\r')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

ExclusionList::Range ExclusionList::cidr(std::uint32_t base,
                                         int prefix_length) {
  prefix_length = std::clamp(prefix_length, 0, 32);
  const std::uint32_t mask =
      prefix_length == 0 ? 0u : ~std::uint32_t{0} << (32 - prefix_length);
  return {base & mask, (base & mask) | ~mask};
}

std::optional<ExclusionList::Range> ExclusionList::parse_entry(
    std::string_view entry) {
  entry = trim(entry);
  int prefix_length = 32;
  const auto slash = entry.find('/');
  if (slash != std::string_view::npos) {
    const std::string_view length_text = entry.substr(slash + 1);
    const auto [end, ec] =
        std::from_chars(length_text.data(),
                        length_text.data() + length_text.size(),
                        prefix_length);
    if (ec != std::errc{} || end != length_text.data() + length_text.size() ||
        prefix_length < 0 || prefix_length > 32) {
      return std::nullopt;
    }
    entry = entry.substr(0, slash);
  }
  const auto address = net::Ipv4Address::parse(entry);
  if (!address) return std::nullopt;
  return cidr(address->value(), prefix_length);
}

void ExclusionList::merge_in(std::vector<Range> added) {
  std::sort(added.begin(), added.end());
  std::vector<Range> sorted;
  sorted.reserve(ranges_.size() + added.size());
  std::merge(ranges_.begin(), ranges_.end(), added.begin(), added.end(),
             std::back_inserter(sorted));
  ranges_.clear();
  for (const Range range : sorted) {
    // Merge overlapping and adjacent ranges.  The adjacency test runs in
    // 64 bits: with back().last == 255.255.255.255 the 32-bit `last + 1`
    // wraps to 0 and a saturated range would stop absorbing its successors.
    if (!ranges_.empty() &&
        std::uint64_t{range.first} <= std::uint64_t{ranges_.back().last} + 1) {
      ranges_.back().last = std::max(ranges_.back().last, range.last);
    } else {
      ranges_.push_back(range);
    }
  }
}

void ExclusionList::add(net::Ipv4Address base, int prefix_length) {
  merge_in({cidr(base.value(), prefix_length)});
}

bool ExclusionList::add_entry(std::string_view entry) {
  const std::optional<Range> range = parse_entry(entry);
  if (!range.has_value()) return false;
  merge_in({*range});
  return true;
}

std::optional<std::size_t> ExclusionList::load(std::istream& input) {
  // All or nothing: entries are parsed aside and merged once at the end.
  std::vector<Range> parsed;
  std::string line;
  while (std::getline(input, line)) {
    std::string_view view = line;
    const auto comment = view.find('#');
    if (comment != std::string_view::npos) view = view.substr(0, comment);
    view = trim(view);
    if (view.empty()) continue;
    const std::optional<Range> range = parse_entry(view);
    if (!range.has_value()) return std::nullopt;
    parsed.push_back(*range);
  }
  const std::size_t entries = parsed.size();
  merge_in(std::move(parsed));
  return entries;
}

void ExclusionList::add_reserved_defaults() {
  // The bogon set of the real repo's bogon filter — mirrors
  // net::is_probe_excluded so either layer enforces the same policy.
  add(net::Ipv4Address(0x00000000), 8);   // 0.0.0.0/8 "this network"
  add(net::Ipv4Address(0x0A000000), 8);   // 10.0.0.0/8 RFC 1918
  add(net::Ipv4Address(0x64400000), 10);  // 100.64.0.0/10 CGN
  add(net::Ipv4Address(0x7F000000), 8);   // 127.0.0.0/8 loopback
  add(net::Ipv4Address(0xA9FE0000), 16);  // 169.254.0.0/16 link-local
  add(net::Ipv4Address(0xAC100000), 12);  // 172.16.0.0/12 RFC 1918
  add(net::Ipv4Address(0xC0A80000), 16);  // 192.168.0.0/16 RFC 1918
  add(net::Ipv4Address(0xE0000000), 4);   // 224.0.0.0/4 multicast
  add(net::Ipv4Address(0xF0000000), 4);   // 240.0.0.0/4 class E + broadcast
}

std::vector<ExclusionList::Range>::const_iterator
ExclusionList::first_ending_at_or_after(std::uint32_t address) const {
  // Disjoint ranges sorted by first are sorted by last too.
  return std::partition_point(
      ranges_.begin(), ranges_.end(),
      [address](const Range& range) { return range.last < address; });
}

bool ExclusionList::contains(net::Ipv4Address address) const {
  const auto it = first_ending_at_or_after(address.value());
  return it != ranges_.end() && it->first <= address.value();
}

bool ExclusionList::excludes_prefix24(std::uint32_t prefix_index) const {
  const std::uint32_t block = prefix_index << 8;
  const auto it = first_ending_at_or_after(block);
  return it != ranges_.end() && it->first <= (block | 0xFFu);
}

void ExclusionList::mark_excluded_prefix24(
    std::uint32_t first_prefix, std::uint32_t count,
    std::vector<std::uint64_t>& bitmap) const {
  if (count == 0) return;
  const std::uint64_t last_prefix = std::uint64_t{first_prefix} + count - 1;
  for (auto it = first_ending_at_or_after(first_prefix << 8);
       it != ranges_.end() && (it->first >> 8) <= last_prefix; ++it) {
    const std::uint64_t lo =
        std::max<std::uint64_t>(it->first >> 8, first_prefix);
    const std::uint64_t hi =
        std::min<std::uint64_t>(it->last >> 8, last_prefix);
    for (std::uint64_t p = lo; p <= hi; ++p) {
      const std::uint64_t offset = p - first_prefix;
      bitmap[offset >> 6] |= std::uint64_t{1} << (offset & 63);
    }
  }
}

std::optional<std::vector<std::uint32_t>> load_target_list(
    std::istream& input, std::uint32_t first_prefix,
    std::uint32_t num_prefixes, std::size_t* skipped) {
  std::vector<std::uint32_t> targets(num_prefixes, 0);
  std::size_t out_of_range = 0;
  std::string line;
  while (std::getline(input, line)) {
    std::string_view view = line;
    const auto comment = view.find('#');
    if (comment != std::string_view::npos) view = view.substr(0, comment);
    while (!view.empty() && (view.front() == ' ' || view.front() == '\t' ||
                             view.front() == '\r')) {
      view.remove_prefix(1);
    }
    while (!view.empty() && (view.back() == ' ' || view.back() == '\t' ||
                             view.back() == '\r')) {
      view.remove_suffix(1);
    }
    if (view.empty()) continue;
    const auto address = net::Ipv4Address::parse(view);
    if (!address) return std::nullopt;
    const std::uint32_t prefix = net::prefix24_index(*address);
    if (prefix < first_prefix || prefix - first_prefix >= num_prefixes) {
      ++out_of_range;
      continue;
    }
    // §3.4: one address per /24 block — first entry wins.
    auto& slot = targets[prefix - first_prefix];
    if (slot == 0) slot = address->value();
  }
  if (skipped != nullptr) *skipped = out_of_range;
  return targets;
}

}  // namespace flashroute::core
