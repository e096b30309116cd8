// The command-line readers every program shares: `--name=value` matching
// and one number reader.
//
// A number is the whole of its text, in the range of the type it is read
// into: "12x", " 12", "" and "300" read as a std::uint8_t are refused, not
// cut short or wrapped, and a double must be finite.  Programs turn a
// refusal into a usage error (exit 2) that names the flag.

#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace flashroute::util {

/// The value of `arg` when it reads `name=value`; nullopt otherwise.
inline std::optional<std::string_view> flag_value(std::string_view arg,
                                                  std::string_view name) {
  if (!arg.starts_with(name) || arg.size() <= name.size() ||
      arg[name.size()] != '=') {
    return std::nullopt;
  }
  return arg.substr(name.size() + 1);
}

/// All of `text` as a T (an integer type or double); nullopt when it is
/// not one number or does not fit T.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Stores all of `text` in `field` when it is one number that fits the
/// field's type; false, leaving `field` as it was, otherwise.
template <typename T>
bool read_number(std::string_view text, T& field) {
  const std::optional<T> number = parse_number<T>(text);
  if (number.has_value()) field = *number;
  return number.has_value();
}

}  // namespace flashroute::util
