// google-benchmark microbenchmarks of the CAD kernels (mapper, packer,
// placer, router, bitstream codec) — the performance side of the paper's
// "runs on a low-cost PC" claim (§4.1) — plus the transient simulator's
// sparse and dense MNA backends on the Table-1 DETFF testbench.

#include <benchmark/benchmark.h>

#include "bench_gen/bench_gen.hpp"
#include "bitgen/bitstream.hpp"
#include "cells/characterize.hpp"
#include "flow/session.hpp"
#include "netlist/simulate.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/pathfinder.hpp"
#include "synth/lutmap.hpp"

namespace {

using namespace amdrel;

netlist::Network make_mapped(int gates, int latches) {
  bench_gen::BenchSpec spec;
  spec.n_inputs = 12;
  spec.n_outputs = 10;
  spec.n_gates = gates;
  spec.n_latches = latches;
  spec.seed = 5;
  auto net = bench_gen::generate(spec);
  return synth::map_to_luts(net, synth::LutMapOptions{4, 8});
}

void BM_LutMap(benchmark::State& state) {
  bench_gen::BenchSpec spec;
  spec.n_gates = static_cast<int>(state.range(0));
  spec.seed = 5;
  auto net = bench_gen::generate(spec);
  for (auto _ : state) {
    auto mapped = synth::map_to_luts(net, synth::LutMapOptions{4, 8});
    benchmark::DoNotOptimize(mapped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LutMap)->Arg(200)->Arg(800);

void BM_Pack(benchmark::State& state) {
  auto mapped = make_mapped(static_cast<int>(state.range(0)), 32);
  arch::ArchSpec spec;
  for (auto _ : state) {
    pack::PackedNetlist packed(mapped, spec);
    benchmark::DoNotOptimize(packed.clusters().size());
  }
}
BENCHMARK(BM_Pack)->Arg(400)->Arg(1200);

void BM_PlaceAnneal(benchmark::State& state) {
  auto mapped = make_mapped(static_cast<int>(state.range(0)), 16);
  arch::ArchSpec spec;
  pack::PackedNetlist packed(mapped, spec);
  for (auto _ : state) {
    place::Placement placement(packed, spec);
    place::Placement::AnnealOptions opt;
    placement.anneal(opt);
    benchmark::DoNotOptimize(placement.total_cost());
  }
}
BENCHMARK(BM_PlaceAnneal)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_Route(benchmark::State& state) {
  auto mapped = make_mapped(static_cast<int>(state.range(0)), 16);
  arch::ArchSpec spec;
  pack::PackedNetlist packed(mapped, spec);
  place::Placement placement(packed, spec);
  place::Placement::AnnealOptions opt;
  placement.anneal(opt);
  for (auto _ : state) {
    route::RrGraph graph(placement, spec, spec.channel_width);
    auto result = route::route_all(graph, placement);
    benchmark::DoNotOptimize(result.success);
  }
}
BENCHMARK(BM_Route)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_BitstreamCodec(benchmark::State& state) {
  auto mapped = make_mapped(250, 16);
  flow::FlowOptions options;
  options.verify_mode = flow::VerifyMode::kOff;
  flow::FlowSession session(mapped, options);
  session.resume();
  for (auto _ : state) {
    auto bytes = bitgen::serialize(session.result().bitstream);
    auto back = bitgen::deserialize(bytes);
    benchmark::DoNotOptimize(back.config_bits());
  }
}
BENCHMARK(BM_BitstreamCodec);

void BM_NetlistSimulation(benchmark::State& state) {
  auto mapped = make_mapped(600, 48);
  netlist::Simulator sim(mapped);
  Rng rng(7);
  for (auto _ : state) {
    for (netlist::SignalId s : mapped.inputs()) {
      sim.set_input(s, rng.next_bool());
    }
    sim.propagate();
    sim.step_clock();
    benchmark::DoNotOptimize(sim.output(0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(mapped.gates().size()));
}
BENCHMARK(BM_NetlistSimulation);

void transient_detff(benchmark::State& state, spice::MnaSolver solver) {
  cells::DetffBenchOptions opt;
  opt.solver = solver;
  for (auto _ : state) {
    auto m = cells::characterize_detff(cells::DetffKind::kLlopis1, opt);
    benchmark::DoNotOptimize(m.energy_j);
  }
}

void BM_TransientSparse(benchmark::State& state) {
  transient_detff(state, spice::MnaSolver::kSparse);
}
BENCHMARK(BM_TransientSparse)->Unit(benchmark::kMillisecond);

void BM_TransientDense(benchmark::State& state) {
  transient_detff(state, spice::MnaSolver::kDense);
}
BENCHMARK(BM_TransientDense)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
