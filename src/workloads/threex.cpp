#include "workloads/threex.h"

namespace mutls::workloads {

SeqRun ThreeX::run_seq(const Params& p) {
  Stopwatch sw;
  uint64_t total = 0;
  for (int64_t i = 1; i <= p.n; ++i) {
    total += trajectory(static_cast<uint64_t>(i));
  }
  return SeqRun{hash_mix(hash_begin(), total), sw.elapsed_sec()};
}

SpecRun ThreeX::run_spec(Runtime& rt, const Params& p, ForkModel model) {
  Stopwatch sw;
  uint64_t total = 0;
  RunStats stats = rt.run([&](Ctx& ctx) {
    total = par::reduce(
        rt, ctx, 1, p.n + 1,
        par::LoopOpts{.chunks = p.chunks,
                      .model = model,
                      .checkpoint_every = 0x10000},
        uint64_t{0},
        [](auto&, int64_t i) { return trajectory(static_cast<uint64_t>(i)); });
  });
  double secs = sw.elapsed_sec();
  return SpecRun{hash_mix(hash_begin(), total), secs, stats};
}

}  // namespace mutls::workloads
