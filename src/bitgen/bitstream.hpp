#pragma once
// DAGGER — FPGA configuration bitstream generation and verification.
//
// The bitstream captures everything the fabric needs: per-CLB frames (LUT
// contents, FF usage/init, BLE clock enables, local crossbar selects), IO
// pad assignments, and the enabled routing switches identified by their
// structural coordinates (track/tile), so a decoder needs only the
// architecture — not the CAD database — to reconstruct the configuration.
//
// `decode_to_network` rebuilds a gate-level netlist from a bitstream; the
// flow uses it for bit-exact sequential equivalence against the mapped
// netlist (a ground-truth check on packing, placement, routing and
// bitstream generation together).

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "netlist/network.hpp"
#include "route/pathfinder.hpp"

namespace amdrel::bitgen {

/// A wire segment in structural coordinates.
struct WireRef {
  bool horizontal = true;  ///< chanx vs chany
  int x = 0, y = 0, track = 0;
  auto key() const { return std::tuple(horizontal, x, y, track); }
  bool operator<(const WireRef& o) const { return key() < o.key(); }
  bool operator==(const WireRef& o) const { return key() == o.key(); }
};

/// Routing switch kinds (what a configuration bit turns on).
struct WireWireSwitch {  // switch-box pass transistor
  WireRef a, b;
  bool operator==(const WireWireSwitch&) const = default;
};
struct OpinSwitch {  // output pin / input pad onto a track
  int x = 0, y = 0, pin = 0;
  WireRef wire;
  bool operator==(const OpinSwitch&) const = default;
};
struct IpinSwitch {  // track into an input pin / output pad
  WireRef wire;
  int x = 0, y = 0, pin = 0;
  bool operator==(const IpinSwitch&) const = default;
};

struct BleConfig {
  bool used = false;
  std::uint32_t lut_bits = 0;    ///< 2^K truth-table bits
  bool use_ff = false;
  bool ff_init = false;          ///< state after global clear
  bool clock_enable = false;     ///< BLE-level gated clock
  std::vector<int> input_sel;    ///< K entries: 0..I-1 = cluster input pin,
                                 ///< I..I+N-1 = BLE feedback, -1 = unused
  bool operator==(const BleConfig&) const = default;
};

struct ClbConfig {
  int x = 0, y = 0;
  std::vector<BleConfig> bles;   ///< N entries
  bool clb_clock_enable = false;
  bool operator==(const ClbConfig&) const = default;
};

struct PadConfig {
  int x = 0, y = 0, sub = 0;
  bool is_input = false;
  std::string signal;            ///< user signal name (pad constraints)
  bool operator==(const PadConfig&) const = default;
};

struct Bitstream {
  std::string design;
  int nx = 0, ny = 0;
  int channel_width = 0;
  int k = 4, n = 5, cluster_inputs = 12;
  std::string clock_name;        ///< global clock net ("" if none)

  std::vector<PadConfig> pads;
  std::vector<ClbConfig> clbs;
  std::vector<WireWireSwitch> wire_switches;
  std::vector<OpinSwitch> opin_switches;
  std::vector<IpinSwitch> ipin_switches;

  /// Total configuration bits (frame accounting for reports).
  long long config_bits() const;
  /// Field-by-field; serialize_to writes every field, so two bitstreams
  /// are equal exactly when their serialized bytes are.
  bool operator==(const Bitstream&) const = default;
};

/// Generates the bitstream from a routed design.
Bitstream generate_bitstream(const pack::PackedNetlist& packed,
                             const place::Placement& placement,
                             const route::RrGraph& graph,
                             const route::RouteResult& routing,
                             const arch::ArchSpec& spec);

/// Destination for serialized bitstream bytes. Writes arrive in chunks;
/// the sink never sees the whole artifact at once, so a fixed-size sink
/// (file, hash) keeps bitstream emission O(1) in design size.
class BitSink {
 public:
  virtual ~BitSink() = default;
  void write(const std::uint8_t* data, std::size_t n) {
    bytes_ += n;
    put(data, n);
  }
  std::uint64_t bytes_written() const { return bytes_; }

 protected:
  virtual void put(const std::uint8_t* data, std::size_t n) = 0;

 private:
  std::uint64_t bytes_ = 0;
};

/// Accumulates the bytes in memory (the classic serialize result).
class VectorSink : public BitSink {
 public:
  const std::vector<std::uint8_t>& bytes() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 protected:
  void put(const std::uint8_t* data, std::size_t n) override {
    out_.insert(out_.end(), data, data + n);
  }

 private:
  std::vector<std::uint8_t> out_;
};

/// Writes to an open stdio stream (not owned; caller closes).
class FileSink : public BitSink {
 public:
  explicit FileSink(std::FILE* file) : file_(file) {}

 protected:
  void put(const std::uint8_t* data, std::size_t n) override;

 private:
  std::FILE* file_;
};

/// FNV-1a 64-bit digest of the byte stream — a constant-memory stand-in
/// for the artifact in equality checks and benchmarks.
class HashSink : public BitSink {
 public:
  std::uint64_t hash() const { return hash_; }

 protected:
  void put(const std::uint8_t* data, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= data[i];
      hash_ *= 1099511628211ull;
    }
  }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// Binary serialization (the actual .bit artifact).
std::vector<std::uint8_t> serialize(const Bitstream& bitstream);
void serialize_to(const Bitstream& bitstream, BitSink* sink);
Bitstream deserialize(const std::vector<std::uint8_t>& bytes);

/// Generates and serializes in one streaming pass: frames and switch
/// records are emitted tile-by-tile through `sink` without ever
/// materializing the Bitstream or its switch lists. Byte-identical to
/// `serialize(generate_bitstream(...))`.
void stream_bitstream(const pack::PackedNetlist& packed,
                      const place::Placement& placement,
                      const route::RrGraph& graph,
                      const route::RouteResult& routing,
                      const arch::ArchSpec& spec, BitSink* sink);

/// Reconstructs a gate-level netlist from the bitstream alone (fabric
/// interpretation). PI/PO names come from the pad table + clock name.
netlist::Network decode_to_network(const Bitstream& bitstream);

}  // namespace amdrel::bitgen
