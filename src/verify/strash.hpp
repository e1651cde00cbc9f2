#pragma once
// Structural hashing of gate networks into shared functional classes.
//
// Every signal gets a class id, and two signals with one class compute
// one Boolean function of the leaves. The caller gives each leaf (a
// primary input, a register output) its class; leaves it shares between
// two networks get one class. A gate's class is interned by its key: the
// sorted, distinct classes of its inputs and its truth table over them,
// taken after folding inputs with a constant class, merging inputs that
// share a class and dropping inputs outside the support. A constant
// function takes a constant class, an identity (a buffer, a route-through
// BLE) its input's class, and a gate of more than six inputs a fresh
// class no key can reach. By induction over the topological order each
// class is one function of the leaves, which is what lets the equivalence
// checker count an obligation whose two sides share a class as proven.
//
// Keys are interned by exact value (the class list and the 64-bit table
// word), never by a hash value alone.

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netlist/network.hpp"

namespace amdrel::verify {

class StructuralHash {
 public:
  static constexpr int kNone = -1;  ///< no class (yet)
  static constexpr int kZero = 0;   ///< the constant-0 function
  static constexpr int kOne = 1;    ///< the constant-1 function

  /// A class no other signal has: for a leaf, or for a gate whose
  /// function cannot be keyed.
  int fresh() { return next_++; }

  /// Classes every gate output of `net`, walking `topo` (a topological
  /// order of its gates). `classes` is indexed by SignalId; on entry it
  /// holds the leaves' classes and kNone elsewhere. A gate input nothing
  /// drives gets a fresh class. Returns false when a gate drives a signal
  /// that already has a class (a leaf, or a second driver): the network's
  /// classes then prove nothing.
  bool classify(const netlist::Network& net, const std::vector<int>& topo,
                std::vector<int>* classes);

 private:
  struct Key {
    std::uint64_t table = 0;          ///< over `inputs`, replicated
    std::array<int, 6> inputs{};      ///< ascending classes, then kNone
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };

  int gate_class(const netlist::Gate& gate, std::vector<int>* classes);
  int intern(std::uint64_t table, std::array<int, 6> inputs);

  std::unordered_map<Key, int, KeyHash> interned_;
  int next_ = kOne + 1;
};

}  // namespace amdrel::verify
