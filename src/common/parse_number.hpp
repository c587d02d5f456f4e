// Strict numeric command-line values, shared by the mac3d CLI and the
// bench binaries' --tolerance.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <system_error>
#include <type_traits>

namespace mac3d {

/// Strict numeric option value: all of `text` must be one decimal number
/// that fits `T` (no sign on integers, no trailing text, no overflow); a
/// floating-point value must also be finite and positive, or zero when
/// `allow_zero`.
template <typename T>
bool parse_number(const char* text, T& out, bool allow_zero = false) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    return std::isfinite(out) && (out > 0.0 || (allow_zero && out == 0.0));
  }
  return true;
}

}  // namespace mac3d
