#include "src/util/checksum.h"

#include <array>

namespace vafs {

namespace {

// Reflected ECMA-182 polynomial.
constexpr uint64_t kPoly = 0xC96C'5795'D787'0F42ULL;

// Slicing-by-16 tables: kTables[0] is the byte-at-a-time table, and
// kTables[k][i] is the register after byte i followed by k zero bytes, so
// one step can fold 16 input bytes with 16 independent lookups.
using CrcTables = std::array<std::array<uint64_t, 256>, 16>;

constexpr CrcTables BuildTables() {
  CrcTables tables{};
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kTables = BuildTables();

// Little-endian 64-bit word at `p`, assembled from bytes so the kernel does
// not depend on host byte order (compilers fold this into one load).
inline uint64_t LoadLe64(const uint8_t* p) {
  return static_cast<uint64_t>(p[0]) | static_cast<uint64_t>(p[1]) << 8 |
         static_cast<uint64_t>(p[2]) << 16 | static_cast<uint64_t>(p[3]) << 24 |
         static_cast<uint64_t>(p[4]) << 32 | static_cast<uint64_t>(p[5]) << 40 |
         static_cast<uint64_t>(p[6]) << 48 | static_cast<uint64_t>(p[7]) << 56;
}

}  // namespace

uint64_t Crc64Update(uint64_t state, std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 16; p += 16, n -= 16) {
    const uint64_t lo = LoadLe64(p) ^ state;
    const uint64_t hi = LoadLe64(p + 8);
    state = kTables[15][lo & 0xFF] ^ kTables[14][(lo >> 8) & 0xFF] ^
            kTables[13][(lo >> 16) & 0xFF] ^ kTables[12][(lo >> 24) & 0xFF] ^
            kTables[11][(lo >> 32) & 0xFF] ^ kTables[10][(lo >> 40) & 0xFF] ^
            kTables[9][(lo >> 48) & 0xFF] ^ kTables[8][lo >> 56] ^
            kTables[7][hi & 0xFF] ^ kTables[6][(hi >> 8) & 0xFF] ^
            kTables[5][(hi >> 16) & 0xFF] ^ kTables[4][(hi >> 24) & 0xFF] ^
            kTables[3][(hi >> 32) & 0xFF] ^ kTables[2][(hi >> 40) & 0xFF] ^
            kTables[1][(hi >> 48) & 0xFF] ^ kTables[0][hi >> 56];
  }
  for (; n > 0; ++p, --n) {
    state = kTables[0][(state ^ *p) & 0xFF] ^ (state >> 8);
  }
  return state;
}

uint64_t Crc64(std::span<const uint8_t> bytes) {
  return Crc64Finish(Crc64Update(kCrc64Init, bytes));
}

}  // namespace vafs
