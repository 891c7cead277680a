#include "store/lz.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace anc::store {
namespace {

constexpr std::size_t kWindow = 65535;   // max match distance (2-byte offset)
constexpr std::size_t kMinMatch = 4;
constexpr int kHashBits = 15;
constexpr int kMaxChain = 32;            // candidates examined per position

inline std::uint32_t Hash4(const unsigned char* p) {
  // Explicit little-endian assembly keeps match selection (and therefore
  // the compressed bytes) identical on any platform.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          static_cast<std::uint32_t>(p[1]) << 8 |
                          static_cast<std::uint32_t>(p[2]) << 16 |
                          static_cast<std::uint32_t>(p[3]) << 24;
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline void PutLen(std::string& out, std::size_t v) {
  while (v >= 255) {
    out.push_back(static_cast<char>(0xFF));
    v -= 255;
  }
  out.push_back(static_cast<char>(v));
}

void EmitSequence(std::string& out, std::string_view raw,
                  std::size_t lit_start, std::size_t lit_len,
                  std::size_t match_len, std::size_t dist) {
  const std::size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  const std::size_t match_code = match_len > 0 ? match_len - kMinMatch : 0;
  const std::size_t match_nibble = match_code < 15 ? match_code : 15;
  out.push_back(static_cast<char>(lit_nibble << 4 | match_nibble));
  if (lit_nibble == 15) PutLen(out, lit_len - 15);
  out.append(raw.substr(lit_start, lit_len));
  if (match_len == 0) return;  // final, literals-only sequence
  out.push_back(static_cast<char>(dist & 0xFF));
  out.push_back(static_cast<char>(dist >> 8));
  if (match_nibble == 15) PutLen(out, match_code - 15);
}

}  // namespace

std::string LzCompress(std::string_view raw) {
  const std::size_t n = raw.size();
  std::string out;
  if (n == 0) return out;
  out.reserve(n / 2 + 16);
  const auto* bytes = reinterpret_cast<const unsigned char*>(raw.data());

  std::vector<std::int64_t> head(std::size_t{1} << kHashBits, -1);
  std::vector<std::int64_t> prev(n, -1);
  const auto insert = [&](std::size_t p) {
    if (p + kMinMatch > n) return;
    const std::uint32_t h = Hash4(bytes + p);
    prev[p] = head[h];
    head[h] = static_cast<std::int64_t>(p);
  };
  // Longest match for position p among the (depth-capped) chain. Returns
  // length 0 when nothing of kMinMatch+ is in range.
  const auto find = [&](std::size_t p, std::size_t* dist) -> std::size_t {
    if (p + kMinMatch > n) return 0;
    std::size_t best = 0;
    const std::uint32_t h = Hash4(bytes + p);
    int depth = 0;
    for (std::int64_t j64 = head[h]; j64 >= 0 && depth < kMaxChain;
         j64 = prev[static_cast<std::size_t>(j64)], ++depth) {
      const auto j = static_cast<std::size_t>(j64);
      if (p - j > kWindow) break;  // chains are position-ordered
      // Quick reject: a longer match must extend past the current best.
      if (best > 0 && (p + best >= n || bytes[j + best] != bytes[p + best])) {
        continue;
      }
      std::size_t m = 0;
      const std::size_t cap = n - p;
      while (m < cap && bytes[j + m] == bytes[p + m]) ++m;
      if (m > best) {
        best = m;
        *dist = p - j;
      }
    }
    return best >= kMinMatch ? best : 0;
  };

  std::size_t i = 0, anchor = 0;
  while (i < n) {
    std::size_t dist = 0;
    const std::size_t m = find(i, &dist);
    if (m == 0) {
      insert(i);
      ++i;
      continue;
    }
    // One-step lazy: prefer a clearly better match starting one byte on.
    if (i + 1 < n) {
      std::size_t dist2 = 0;
      const std::size_t m2 = find(i + 1, &dist2);
      if (m2 > m + 1) {
        insert(i);
        ++i;
        continue;
      }
    }
    EmitSequence(out, raw, anchor, i - anchor, m, dist);
    const std::size_t end = i + m;
    while (i < end) insert(i++);
    anchor = i;
  }
  EmitSequence(out, raw, anchor, n - anchor, 0, 0);
  return out;
}

std::string LzDecompress(std::string_view comp, std::size_t raw_len,
                         std::string* out) {
  out->clear();
  if (comp.empty()) {
    return raw_len == 0 ? "" : "empty compressed block for nonzero size";
  }
  // Decode straight into the declared size; `o` counts the bytes produced
  // so far, and every failure trims `out` back to them.
  out->resize(raw_len);
  char* const dst = out->data();
  std::size_t o = 0;
  const auto fail = [&](const char* what, std::size_t pos) {
    out->resize(o);
    return std::string(what) + " at compressed offset " + std::to_string(pos);
  };
  std::size_t i = 0;
  const auto read_len = [&](std::size_t base, std::size_t* v) {
    *v = base;
    if (base < 15) return true;
    for (;;) {
      if (i >= comp.size()) return false;
      const auto b = static_cast<std::uint8_t>(comp[i++]);
      *v += b;
      if (b < 255) return true;
    }
  };

  while (i < comp.size()) {
    const auto token = static_cast<std::uint8_t>(comp[i++]);
    std::size_t lit = 0;
    if (!read_len(token >> 4, &lit)) {
      return fail("truncated length extension", i);
    }
    if (i + lit > comp.size()) return fail("truncated literals", i);
    if (o + lit > raw_len) {
      return fail("literal run overflows declared size", i);
    }
    std::memcpy(dst + o, comp.data() + i, lit);
    o += lit;
    i += lit;
    if (i == comp.size()) break;  // final sequence: literals end the stream
    if (i + 2 > comp.size()) return fail("truncated match offset", i);
    const std::size_t dist = static_cast<std::uint8_t>(comp[i]) |
                             static_cast<std::size_t>(
                                 static_cast<std::uint8_t>(comp[i + 1]))
                                 << 8;
    i += 2;
    if (dist == 0 || dist > o) {
      return fail("match offset outside produced output", i - 2);
    }
    std::size_t match = 0;
    if (!read_len(token & 0x0F, &match)) {
      return fail("truncated length extension", i);
    }
    match += kMinMatch;
    if (o + match > raw_len) return fail("match overflows declared size", i);
    const char* src = dst + o - dist;
    if (dist >= match) {
      std::memcpy(dst + o, src, match);
    } else {
      // Overlapping match (dist < len): byte order replicates the period.
      for (std::size_t k = 0; k < match; ++k) dst[o + k] = src[k];
    }
    o += match;
  }
  if (o != raw_len) {
    out->resize(o);
    return "decompressed " + std::to_string(o) + " bytes, block declares " +
           std::to_string(raw_len);
  }
  return "";
}

}  // namespace anc::store
