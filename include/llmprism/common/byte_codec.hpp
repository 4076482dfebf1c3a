// The one byte codec behind the three binary formats: LFT flow traces
// (flow/lft.hpp), LPF ingest frames (serve/frame.hpp) and LPS1 warm-state
// snapshots (core/snapshot.hpp). Internal: no public signature takes
// these types.
//
// All three formats are little-endian and open with the same 8-byte head
//   0  char[4]  magic
//   4  u16      version
//   6  u16      tag      (LFT flags, LPF frame type, LPS1 kind)
// and LFT and LPS1 end in a seal: the XXH64 (seed 0) of every preceding
// byte. ByteWriter appends; ByteReader is a bounds-checked cursor. Every
// reader error is a std::runtime_error whose message starts with the
// format's prefix ("lft: ", "frame: ", "snapshot: "), so hostile bytes
// in any of the three formats meet the same checks.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "llmprism/common/hash.hpp"

static_assert(std::endian::native == std::endian::little,
              "the binary formats are little-endian and copied as-is");

namespace llmprism::codec {

/// "0x" and 16 lowercase hex digits.
inline std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kDigits[(v >> shift) & 0xf];
  }
  return out;
}

/// Append-only little-endian byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  /// The elements' bytes, no count.
  template <typename T>
  void array(std::span<const T> v) {
    if (!v.empty()) raw(v.data(), v.size() * sizeof(T));
  }
  /// A u64 element count, then the elements.
  template <typename T>
  void counted(const std::vector<T>& v) {
    u64(v.size());
    array(std::span<const T>(v));
  }
  /// Zero bytes up to the next multiple of `alignment`.
  void pad_to(std::size_t alignment) {
    buf_.resize((buf_.size() + alignment - 1) / alignment * alignment, '\0');
  }
  /// The shared head: magic, version, tag.
  void head(const char (&magic)[4], std::uint16_t version, std::uint16_t tag) {
    raw(magic, sizeof(magic));
    u16(version);
    u16(tag);
  }
  /// Append the XXH64 of everything written so far.
  void seal() { u64(xxhash64(buf_.data(), buf_.size())); }
  [[nodiscard]] std::string& bytes() { return buf_; }

 private:
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked little-endian cursor. A read past the end throws, and
/// a count read from the input is checked against the bytes that remain
/// before anything is allocated for it.
class ByteReader {
 public:
  /// `prefix` (a string literal) starts every error message.
  ByteReader(std::span<const std::byte> data, const char* prefix)
      : data_(data), prefix_(prefix) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(prefix_ + what);
  }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint16_t u16() { return scalar<std::uint16_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }

  /// A u64 element count for entries of at least `min_elem_bytes` each,
  /// checked against the remaining bytes.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes) {
      fail("corrupt element count " + std::to_string(n));
    }
    return static_cast<std::size_t>(n);
  }
  /// Copy the next `n` elements out into `out` (resized to n).
  template <typename T>
  void array(std::uint64_t n, std::vector<T>& out) {
    if (n > remaining() / sizeof(T)) {
      fail("corrupt element count " + std::to_string(n));
    }
    out.resize(static_cast<std::size_t>(n));
    const std::span<const std::byte> bytes = take(n * sizeof(T));
    if (n > 0) std::memcpy(out.data(), bytes.data(), bytes.size());
  }
  /// A u64 element count, then the elements.
  template <typename T>
  std::vector<T> counted() {
    std::vector<T> out;
    array(u64(), out);
    return out;
  }
  /// The next `n` bytes, in place.
  std::span<const std::byte> take(std::uint64_t n) {
    if (n > remaining()) {
      fail("truncated (" + std::to_string(n) + " bytes needed, " +
           std::to_string(remaining()) + " left)");
    }
    const std::span<const std::byte> out =
        data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return out;
  }
  void skip(std::uint64_t n) { (void)take(n); }

  /// Read the shared head and check its magic and version; returns the
  /// tag. `not_this` says what other bytes were found instead ("not an
  /// LFT file").
  std::uint16_t head(const char (&magic)[4], std::uint16_t version,
                     const char* not_this) {
    if (std::memcmp(take(sizeof(magic)).data(), magic, sizeof(magic)) != 0) {
      fail(std::string("bad magic (") + not_this + ")");
    }
    const std::uint16_t got = u16();
    if (got != version) {
      fail("unsupported version " + std::to_string(got) + " (expected " +
           std::to_string(version) + ")");
    }
    return u16();
  }

  void expect_done() const {
    if (remaining() != 0) {
      fail("trailing bytes after payload (" + std::to_string(remaining()) +
           ")");
    }
  }

 private:
  template <typename T>
  T scalar() {
    T v;
    std::memcpy(&v, take(sizeof(T)).data(), sizeof(T));
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  const char* prefix_;
};

/// Check the seal that ends `image`: its trailing u64 must be the XXH64
/// of every byte before it.
inline void check_seal(std::span<const std::byte> image, const char* prefix) {
  constexpr std::size_t kSeal = sizeof(std::uint64_t);
  ByteReader r(image, prefix);
  if (image.size() < kSeal) r.fail("truncated (no checksum)");
  r.skip(image.size() - kSeal);
  const std::uint64_t stored = r.u64();
  const std::uint64_t computed = xxhash64(image.data(), image.size() - kSeal);
  if (stored != computed) {
    r.fail("checksum mismatch (stored " + hex64(stored) + ", computed " +
           hex64(computed) + ")");
  }
}

}  // namespace llmprism::codec
