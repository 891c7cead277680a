// Checkpoint serialization primitives (crash-safe resumable soaks).
//
// A tiny header-only codec — LEB128-style varints, length-prefixed byte
// strings and IEEE-754 bit-pattern doubles — shared by every layer that
// snapshots mutable state into a service checkpoint (common RNG/stats,
// phy record stores, the collision-aware engine, coded-ALOHA protocols,
// deployments and the service itself). The byte format matches the
// trace wire codec (trace/binary.h) so checkpoint blobs diff cleanly
// next to trace bytes, but lives in common so the bottom layers can
// serialize without depending on the trace library.
//
// Doubles are stored as their exact little-endian IEEE-754 bit pattern:
// a restored estimator continues bit-identically, which is what the
// resume-vs-uninterrupted byte-identity tests rely on.
//
// The Reader latches `ok` on the first truncated read and returns 0
// from then on; callers check once at the end (fail-closed decode).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace anc::ser {

inline void PutByte(std::string& out, std::uint8_t b) {
  out.push_back(static_cast<char>(b));
}

inline void PutVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline void PutBool(std::string& out, bool b) { PutByte(out, b ? 1 : 0); }

inline void PutF64(std::string& out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(bits >> (8 * i)));
  }
}

inline void PutBytes(std::string& out, std::string_view s) {
  PutVarint(out, s.size());
  out.append(s.data(), s.size());
}

// Format of a component checkpoint blob, numbered after the service
// checkpoint version that introduced it. Components whose wire layout
// changed take the format they are reading, so older blobs stay readable
// through the same restore code.
enum class BlobFormat : std::uint8_t {
  kV1 = 1,  // record arenas from handle 0; no estimator bootstrap
  kV2 = 2,  // record windows with their base; estimator bootstrap saved
};

struct Reader {
  std::string_view bytes;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t Byte() {
    if (pos >= bytes.size()) {
      ok = false;
      return 0;
    }
    return static_cast<std::uint8_t>(bytes[pos++]);
  }

  std::uint64_t Varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos >= bytes.size() || shift > 63) {
        ok = false;
        return 0;
      }
      const auto b = static_cast<std::uint8_t>(bytes[pos++]);
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  bool Bool() { return Byte() != 0; }

  double F64() {
    if (bytes.size() - pos < 8 || pos > bytes.size()) {
      ok = false;
      pos = bytes.size();
      return 0.0;
    }
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(bytes[pos + i]))
              << (8 * i);
    }
    pos += 8;
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    return d;
  }

  std::string_view Bytes() {
    const std::uint64_t n = Varint();
    if (!ok || n > bytes.size() - pos || pos > bytes.size()) {
      ok = false;
      return {};
    }
    const std::string_view s = bytes.substr(pos, static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
    return s;
  }

  bool AtEnd() const { return pos == bytes.size(); }

  // Whether `n` more elements of at least one byte each can still follow:
  // decoders check a count against this before allocating for it.
  bool CanHold(std::uint64_t n) const {
    return ok && n <= bytes.size() - pos;
  }
};

}  // namespace anc::ser
