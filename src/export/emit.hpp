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
// All of them append to the caller's buffer: the exporters serialize every
// event straight into one growing document, with no per-field temporaries.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "llmprism/common/time.hpp"

namespace llmprism::detail {

/// Append an integer in decimal.
template <std::integral T>
inline void write_int(std::string& out, T v) {
  char buf[24];  // 20 digits of a 64-bit value, plus the sign
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Append `ns` as microseconds with three fractional digits ("1234.567").
inline void write_us(std::string& out, TimeNs ns) {
  std::uint64_t a;
  if (ns < 0) {
    out += '-';
    a = static_cast<std::uint64_t>(-(ns + 1)) + 1;
  } else {
    a = static_cast<std::uint64_t>(ns);
  }
  const std::uint64_t rem = a % 1000;
  write_int(out, a / 1000);
  const char frac[4] = {'.', static_cast<char>('0' + rem / 100),
                        static_cast<char>('0' + rem / 10 % 10),
                        static_cast<char>('0' + rem % 10)};
  out.append(frac, sizeof(frac));
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

inline void write_double(std::ostream& os, double v) {
  std::string s;
  write_double(s, v);
  os << s;
}

}  // namespace llmprism::detail
