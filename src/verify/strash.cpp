#include "verify/strash.hpp"

#include <utility>

#include "verify/table6.hpp"

namespace amdrel::verify {

namespace {

using netlist::Gate;
using netlist::Network;
using table6::cofactor0;
using table6::cofactor1;
using table6::kVarMask;

/// The table with variable j read as variable i (i < j): rows where the
/// two differ take the value of the row with x_j flipped.
std::uint64_t merge_vars(std::uint64_t t, int i, int j) {
  const int shift = 1 << j;
  const std::uint64_t flipped =
      ((t & kVarMask[j]) >> shift) | ((t & ~kVarMask[j]) << shift);
  const std::uint64_t same = ~(kVarMask[i] ^ kVarMask[j]);
  return (t & same) | (flipped & ~same);
}

/// The table with variables i < j exchanged.
std::uint64_t swap_vars(std::uint64_t t, int i, int j) {
  const int shift = (1 << j) - (1 << i);
  const std::uint64_t up = kVarMask[i] & ~kVarMask[j];    // x_i=1, x_j=0
  const std::uint64_t down = ~kVarMask[i] & kVarMask[j];  // x_i=0, x_j=1
  return (t & ~(up | down)) | ((t & up) << shift) | ((t & down) >> shift);
}

}  // namespace

std::size_t StructuralHash::KeyHash::operator()(const Key& key) const {
  std::uint64_t h = key.table * 0x9E3779B97F4A7C15ull;
  for (const int c : key.inputs) {
    h = (h ^ static_cast<std::uint32_t>(c)) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h);
}

bool StructuralHash::classify(const Network& net, const std::vector<int>& topo,
                              std::vector<int>* classes) {
  for (const int gi : topo) {
    const Gate& gate = net.gates()[static_cast<std::size_t>(gi)];
    if ((*classes)[static_cast<std::size_t>(gate.output)] != kNone) {
      return false;
    }
    const int c = gate_class(gate, classes);
    (*classes)[static_cast<std::size_t>(gate.output)] = c;
  }
  return true;
}

int StructuralHash::gate_class(const Gate& gate, std::vector<int>* classes) {
  const int n = static_cast<int>(gate.inputs.size());
  if (n > 6) return fresh();
  // Fold constant inputs and merge each input into the first earlier one
  // of its class; `var[j]` keeps the class of every variable left.
  std::uint64_t t = table6::replicate(gate.table.words()[0], n);
  std::array<int, 6> var;
  var.fill(kNone);
  for (int j = 0; j < n; ++j) {
    int& slot = (*classes)[static_cast<std::size_t>(
        gate.inputs[static_cast<std::size_t>(j)])];
    if (slot == kNone) slot = fresh();  // undriven: a free variable of its own
    const int c = slot;
    if (c == kZero || c == kOne) {
      t = c == kOne ? cofactor1(t, j) : cofactor0(t, j);
      continue;
    }
    int i = 0;
    while (i < j && var[static_cast<std::size_t>(i)] != c) ++i;
    if (i < j) {
      t = merge_vars(t, i, j);
    } else {
      var[static_cast<std::size_t>(j)] = c;
    }
  }
  return intern(t, var);
}

/// Drops the variables outside the support, moves the rest to variables
/// 0..k-1 in ascending class order, and returns the class of the result.
int StructuralHash::intern(std::uint64_t t, std::array<int, 6> var) {
  for (int p = 0; p < 6; ++p) {
    if (cofactor0(t, p) == cofactor1(t, p)) {
      var[static_cast<std::size_t>(p)] = kNone;
    }
  }
  int k = 0;
  for (int p = 0; p < 6; ++p) {
    int best = -1;
    for (int q = p; q < 6; ++q) {
      const int c = var[static_cast<std::size_t>(q)];
      if (c != kNone &&
          (best < 0 || c < var[static_cast<std::size_t>(best)])) {
        best = q;
      }
    }
    if (best < 0) break;
    if (best != p) {
      t = swap_vars(t, p, best);
      std::swap(var[static_cast<std::size_t>(p)],
                var[static_cast<std::size_t>(best)]);
    }
    ++k;
  }
  if (k == 0) return (t & 1) != 0 ? kOne : kZero;
  if (k == 1 && t == kVarMask[0]) return var[0];  // identity
  const auto [it, added] = interned_.try_emplace(Key{t, var}, next_);
  if (added) ++next_;
  return it->second;
}

}  // namespace amdrel::verify
