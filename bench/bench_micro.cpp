// Micro-benchmarks (google-benchmark) for the computational kernels: BDD
// operations, relational products, ternary settling, parallel 64-lane fault
// simulation, and explicit race exploration.
#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "bdd/bdd.hpp"
#include "benchmarks/benchmarks.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"
#include "atpg/fault.hpp"
#include "util/random.hpp"

namespace {

using namespace xatpg;

void BM_BddApply(benchmark::State& state) {
  BddManager mgr(32);
  Rng rng(1);
  std::vector<Bdd> funcs;
  for (int i = 0; i < 16; ++i) {
    Bdd f = mgr.var(rng.below(32));
    for (int j = 0; j < 8; ++j) {
      const Bdd lit = rng.flip() ? mgr.var(rng.below(32))
                                 : !mgr.var(rng.below(32));
      f = rng.flip() ? (f & lit) : (f | lit);
    }
    funcs.push_back(f);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(funcs[i % 16] & funcs[(i + 7) % 16]);
    ++i;
  }
}
BENCHMARK(BM_BddApply);

void BM_BddRelProduct(benchmark::State& state) {
  const SynthResult synth =
      benchmark_circuit("seq4", SynthStyle::SpeedIndependent);
  SymbolicEncoding enc(synth.netlist);
  // Build R_delta-ish relation and a state set, then time and_exists.
  Bdd relation = enc.mgr().bdd_false();
  for (SignalId s = 0; s < enc.num_signals(); ++s)
    relation |= (enc.cur(s) ^ enc.target(s)) & (enc.next(s) ^ enc.cur(s));
  const Bdd set = enc.state_minterm_cur(synth.reset_state);
  const Bdd cube = enc.cur_cube();
  for (auto _ : state)
    benchmark::DoNotOptimize(enc.mgr().and_exists(relation, set, cube));
}
BENCHMARK(BM_BddRelProduct);

void BM_Parallel64LaneSettle(benchmark::State& state) {
  const SynthResult synth =
      benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  std::vector<LaneInjection> injections;
  const auto faults = input_stuck_faults(synth.netlist);
  for (std::size_t i = 0; i < faults.size() && i < 63; ++i)
    injections.push_back(faults[i].to_injection(1ull << (i + 1)));
  ParallelTernarySim sim(synth.netlist, injections);
  std::vector<bool> vec;
  for (const SignalId in : synth.netlist.inputs())
    vec.push_back(!synth.reset_state[in]);
  for (auto _ : state) {
    sim.load_state(synth.reset_state);
    sim.settle(vec);
    benchmark::DoNotOptimize(sim.lanes_with_unknown());
  }
}
BENCHMARK(BM_Parallel64LaneSettle);

void BM_ExplicitExplore(benchmark::State& state) {
  const SynthResult synth =
      benchmark_circuit("master-read", SynthStyle::SpeedIndependent);
  std::vector<bool> vec;
  for (const SignalId in : synth.netlist.inputs())
    vec.push_back(synth.reset_state[in]);
  vec[0] = !vec[0];
  for (auto _ : state)
    benchmark::DoNotOptimize(
        explore_settling(synth.netlist, synth.reset_state, vec, 24));
}
BENCHMARK(BM_ExplicitExplore);

void BM_CssgConstruction(benchmark::State& state) {
  const SynthResult synth =
      benchmark_circuit("ebergen", SynthStyle::SpeedIndependent);
  for (auto _ : state) {
    CssgOptions options;
    options.k = 24;
    Cssg cssg(synth.netlist, {synth.reset_state}, options);
    benchmark::DoNotOptimize(cssg.stats().cssg_edges);
  }
}
BENCHMARK(BM_CssgConstruction);

}  // namespace

// Like BENCHMARK_MAIN(), but with a `--smoke` flag that caps every benchmark
// at a minimal measurement time so `cmake --build build --target bench_smoke`
// can sanity-run the whole suite in well under a second.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke")
      smoke = true;
    else
      args.push_back(argv[i]);
  }
  static char min_time_flag[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time_flag);
  int fake_argc = static_cast<int>(args.size());
  benchmark::Initialize(&fake_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(fake_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
