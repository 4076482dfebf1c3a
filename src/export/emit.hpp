// Internal deterministic number formatting shared by the fleet exporters.
//
// Default ostream/printf double formatting is precision-ambiguous; every
// exporter output must instead be a fixed, exact function of its inputs so
// the differential suites can assert byte equality across thread counts
// and warm/cold sessions. Three formats cover everything:
//  * write_int — an integer in plain decimal (what std::to_string gives),
//  * write_us  — a TimeNs as microseconds with exactly three fractional
//    digits (the full nanosecond, no rounding at all),
//  * write_double — shortest round-trip decimal via %.17g -> %g retry,
//    locale-independent ("C" behaviour of the printf family is assumed, as
//    everywhere else in the repo).
// write_int and write_us come in two forms: a cursor form that writes at a
// raw `char*` with room for kMaxIntChars / kMaxUsChars bytes and returns
// the new end (the Perfetto writer's staging buffer), and a form that
// appends to the caller's std::string through the cursor form, so every
// number has one digit routine.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "llmprism/common/time.hpp"

namespace llmprism::detail {

/// Room write_int needs: 20 digits of a 64-bit value, plus the sign.
inline constexpr std::size_t kMaxIntChars = 21;
/// Room write_us needs: a sign, write_int's room, '.' and 3 digits.
inline constexpr std::size_t kMaxUsChars = 1 + kMaxIntChars + 4;

/// Write an integer in decimal at `out`; returns the end.
template <std::integral T>
inline char* write_int(char* out, T v) {
  return std::to_chars(out, out + kMaxIntChars, v).ptr;
}

/// Append an integer in decimal.
template <std::integral T>
inline void write_int(std::string& out, T v) {
  char buf[kMaxIntChars];
  out.append(buf, write_int(buf, v));
}

/// Write `ns` as microseconds with three fractional digits ("1234.567") at
/// `out`; returns the end.
inline char* write_us(char* out, TimeNs ns) {
  std::uint64_t a;
  if (ns < 0) {
    *out++ = '-';
    a = static_cast<std::uint64_t>(-(ns + 1)) + 1;
  } else {
    a = static_cast<std::uint64_t>(ns);
  }
  const std::uint64_t rem = a % 1000;
  out = write_int(out, a / 1000);
  out[0] = '.';
  out[1] = static_cast<char>('0' + rem / 100);
  out[2] = static_cast<char>('0' + rem / 10 % 10);
  out[3] = static_cast<char>('0' + rem % 10);
  return out + 4;
}

/// Append `ns` as microseconds with three fractional digits.
inline void write_us(std::string& out, TimeNs ns) {
  char buf[kMaxUsChars];
  out.append(buf, write_us(buf, ns));
}

/// Append a finite double as the shortest decimal that round-trips;
/// non-finite values degrade to 0 (JSON has no NaN/Inf).
inline void write_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  char buf[32];
  for (int precision = 6; precision <= 17; precision += 2) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  out += buf;
}

}  // namespace llmprism::detail
