#pragma once
// Truth tables of up to six variables as one 64-bit word: bit r is the
// output for row r, and variable i is bit i of the row. A table over
// fewer variables is replicated, so it reads the same for any value of
// the variables it does not use. Shared by the CNF encoder's prime covers
// and the structural hash.

#include <cstdint>

namespace amdrel::verify::table6 {

/// Rows where variable i is 1.
inline constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// The table with variable v fixed to 0 (replicated over v).
inline std::uint64_t cofactor0(std::uint64_t t, int v) {
  const std::uint64_t lo = t & ~kVarMask[v];
  return lo | (lo << (1 << v));
}

/// The table with variable v fixed to 1 (replicated over v).
inline std::uint64_t cofactor1(std::uint64_t t, int v) {
  const std::uint64_t hi = t & kVarMask[v];
  return hi | (hi >> (1 << v));
}

/// The low 2^n rows of `word`, repeated to fill 64 rows.
inline std::uint64_t replicate(std::uint64_t word, int n) {
  if (n >= 6) return word;
  word &= (1ull << (1 << n)) - 1;
  for (int i = n; i < 6; ++i) word |= word << (1 << i);
  return word;
}

}  // namespace amdrel::verify::table6
