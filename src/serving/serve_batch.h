// Speculative request-serving driver: the tentpole of the serving
// subsystem. serve_batch() pushes one batch of wire-format requests
// through a mutls::par::pipeline of the three stages a cache front-end
// runs per request — parse (zero-copy head parse), route/lookup (route
// match + GET index probe), index update (PUT insert/evict) — speculating
// ahead across request chunks with spec_for's schedule. The cache index is
// the shared state: concurrent handlers conflict through the buffer map
// exactly where a real cache's handlers would contend, so key skew and
// PUT ratio translate directly into doom/rollback rate.
//
// Correctness story: per-request scratch is per-virtual-CPU-rank (a rank
// is owned by exactly one live thread, and an item's three stages run
// consecutively on one thread), per-item outcomes land in registered
// memory through the routed view (so rollback discards them), and the
// sequential reference (serve_batch_seq) shares the classification helper
// and the CacheIndex probe template with the speculative path — identical
// decisions by construction, which makes seq/spec checksum equality of
// the index a meaningful invariant.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mutls/mutls.h"
#include "serving/cache_index.h"
#include "serving/http_parse.h"
#include "serving/request_gen.h"
#include "serving/route.h"

namespace mutls::serving {

// Final disposition of one request (low 3 bits of its outcome word).
enum class Outcome : uint8_t {
  kMalformed = 1,  // parse rejected (incomplete or malformed)
  kRouteMiss = 2,  // parsed, but no route / bad key / unsupported method
  kHealth = 3,     // GET /healthz
  kGet = 4,        // routed cache lookup
  kPut = 5,        // routed cache insert
};
inline constexpr uint64_t kOutcomeKindMask = 7;
inline constexpr uint64_t kOutcomeHitBit = 8;    // kGet only
inline constexpr uint64_t kOutcomeEvictBit = 16;  // kPut only

struct BatchCounters {
  uint64_t requests = 0;
  uint64_t malformed = 0;
  uint64_t route_misses = 0;
  uint64_t health = 0;
  uint64_t get_hits = 0;
  uint64_t get_misses = 0;
  uint64_t puts = 0;
  uint64_t evictions = 0;

  BatchCounters& operator+=(const BatchCounters& o) {
    requests += o.requests;
    malformed += o.malformed;
    route_misses += o.route_misses;
    health += o.health;
    get_hits += o.get_hits;
    get_misses += o.get_misses;
    puts += o.puts;
    evictions += o.evictions;
    return *this;
  }
  bool operator==(const BatchCounters&) const = default;
};

// A batch is served by par::pipeline, so its options are the loop's:
// chunking, fork model and fork-to-settle latency sampling (the scratch
// array needs capacity for the resolved chunk count).
using ServeOpts = par::LoopOpts;

class Server {
 public:
  // `max_batch` bounds batch.count() for this server's lifetime: the
  // outcome array is registered once at that size, so serving allocates
  // nothing per batch.
  Server(Runtime& rt, CacheIndex& index, size_t max_batch);

  // Serves the batch speculatively; `epoch` is the freshness stamp PUTs
  // write. Must be called from the non-speculative context of rt.run.
  BatchCounters serve_batch(Ctx& ctx, const RequestBatch& batch,
                            uint64_t epoch, const ServeOpts& opts);

  // Sequential reference: identical parse/route/index decisions against a
  // sequential-only CacheIndex. Static because it must not touch the
  // runtime — pair it with CacheIndex's unregistered constructor.
  static BatchCounters serve_batch_seq(CacheIndex& index,
                                       const RequestBatch& batch,
                                       uint64_t epoch);

  const RouteTable& routes() const { return routes_; }
  int items_route() const { return items_route_; }

 private:
  // Per-rank, per-item scratch carried between an item's stages. Lives in
  // plain memory: a rank has exactly one live thread, and re-execution
  // after rollback happens on the re-executing thread only after the old
  // owner settled (the slot-reclaim edges order the accesses).
  struct Slot {
    ParsedRequest parsed;
    uint64_t key = 0;
    uint64_t size = 0;
    uint64_t out = 0;
  };

  // Pure classification shared by the speculative and sequential paths:
  // route match + key/Content-Length extraction from an already-parsed
  // request. Returns the outcome kind; fills key/size for kGet/kPut.
  static Outcome route_of(const RouteTable& routes, int items_route,
                          int health_route, const ParsedRequest& parsed,
                          uint64_t* key, uint64_t* size);

  void stage_parse(Ctx& c, int64_t i);
  void stage_route_lookup(Ctx& c, int64_t i);
  void stage_update(Ctx& c, int64_t i);

  static BatchCounters fold(const uint64_t* outcomes, size_t n);

  Runtime& rt_;
  CacheIndex& index_;
  RouteTable routes_;
  int items_route_;
  int health_route_;
  size_t max_batch_;
  std::vector<Slot> scratch_;        // indexed by ctx.rank()
  SharedArray<uint64_t> outcomes_;   // one routed word per request
  std::vector<par::PipelineStage> stages_;

  // Per-batch inputs, published to workers by the fork edges.
  const RequestBatch* batch_ = nullptr;
  uint64_t epoch_ = 0;
};

}  // namespace mutls::serving
