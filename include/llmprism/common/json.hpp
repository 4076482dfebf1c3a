// Minimal JSON string escaping shared by every hand-rolled exporter.
//
// The repo deliberately takes no serializer dependency; each exporter emits
// its documents directly. Strings, however, must be escaped exactly one way
// (RFC 8259 §7): quote, backslash and the C0 control range. Everything else
// — including non-ASCII bytes — passes through untouched, so UTF-8 payloads
// survive byte-for-byte. tests/json_lint.hpp is the independent check that
// the emitted documents actually parse.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>

namespace llmprism {

/// Append `s` as a JSON string literal, including the surrounding quotes.
/// Runs of bytes that need no escape are copied in one append.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t clean = 0;  // first byte of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.substr(clean, i - clean));
    clean = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default: {
        constexpr char hex[] = "0123456789abcdef";
        out += "\\u00";
        out += hex[(c >> 4) & 0xF];
        out += hex[c & 0xF];
      }
    }
  }
  out.append(s.substr(clean));
  out += '"';
}

/// Write `s` as a JSON string literal, including the surrounding quotes.
inline void write_json_string(std::ostream& os, std::string_view s) {
  std::string literal;
  append_json_string(literal, s);
  os << literal;
}

}  // namespace llmprism
