#include "store/crc32.h"

#include <array>
#include <cstddef>

namespace anc::store {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables: kTables[0] is the classic bytewise table; kTables[k]
// advances a byte through k further zero bytes, so eight input bytes fold
// into the register with eight independent lookups per step.
constexpr Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Explicit little-endian assembly: the same value on any host byte order.
inline std::uint32_t Load32Le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(std::string_view bytes, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = Load32Le(p) ^ c;
    const std::uint32_t hi = Load32Le(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace anc::store
