// HTTP request-serving workload over the serving subsystem. The paper's
// benchmarks are all compute-shaped; this is the server-shaped complement:
// short tasks, shared index, skew-controlled conflicts.
//
// Batches of synthetic wire-format requests flow through the serve_batch
// pipeline (parse → route/lookup → index update) against a shared
// CacheIndex. The checksum digests the final index contents plus the
// request-outcome counters, so speculative serving must preserve the
// sequential cache state bit-for-bit to pass the equivalence suite.
#pragma once

#include "serving/cache_index.h"
#include "serving/request_gen.h"
#include "serving/serve_batch.h"
#include "workloads/workload.h"

namespace mutls::workloads {

struct HttpServing {
  struct Params {
    uint64_t batches = 64;
    size_t batch = 256;       // requests per batch
    int chunks = 8;           // pipeline chunks per batch
    uint64_t num_keys = 2048;
    double zipf_s = 0.0;      // 0 = uniform keys
    double put_ratio = 0.125;
    double malformed_ratio = 0.02;
    size_t capacity_log2 = 10;  // index slots (< num_keys: evictions happen)
    uint64_t seed = 42;
  };

  static constexpr const char* kName = "http-serving";
  static constexpr Pattern kPattern = Pattern::kLoop;

  static uint64_t digest(const serving::CacheIndex& index,
                         const serving::BatchCounters& totals);

  static SeqRun run_seq(const Params& p);
  static SpecRun run_spec(Runtime& rt, const Params& p, ForkModel model);
};

}  // namespace mutls::workloads
