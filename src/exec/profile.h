// Region profiler of the execution engine.
//
// A region is a natural loop named by its (function, header-block) pair;
// the decoder discovers regions at module load (see exec/dispatch.h) and
// the dispatcher's branch handlers pay exactly one relaxed atomic increment
// per executed back edge. This header is the read side: cheap snapshots of
// the per-region heat counters, ordered hottest-first, plus a reset for
// benchmark phases. The counters feed RunStats, bench_interp_dispatch and
// BENCH_results.json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mutls::exec {

class DecodedModule;

// One region's heat at snapshot time.
struct RegionHeat {
  std::string function;
  std::string header;       // header block label
  uint32_t header_block = 0;
  uint64_t count = 0;       // back-edge executions since the last reset
};

// All regions of the module, hottest first (ties: function, then block).
std::vector<RegionHeat> snapshot_heat(const DecodedModule& dm);

}  // namespace mutls::exec
