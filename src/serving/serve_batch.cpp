#include "serving/serve_batch.h"

namespace mutls::serving {

Server::Server(Runtime& rt, CacheIndex& index, size_t max_batch)
    : rt_(rt),
      index_(index),
      items_route_(routes_.add_prefix("/cache/items/")),
      health_route_(routes_.add_exact("/healthz")),
      max_batch_(max_batch),
      scratch_(static_cast<size_t>(rt.num_cpus()) + 1),
      outcomes_(rt, max_batch) {
  stages_.push_back([this](Ctx& c, int64_t i) { stage_parse(c, i); });
  stages_.push_back([this](Ctx& c, int64_t i) { stage_route_lookup(c, i); });
  stages_.push_back([this](Ctx& c, int64_t i) { stage_update(c, i); });
}

Outcome Server::route_of(const RouteTable& routes, int items_route,
                         int health_route, const ParsedRequest& parsed,
                         uint64_t* key, uint64_t* size) {
  RouteTable::Match m = routes.match(parsed.path);
  if (m.route == items_route) {
    // The key is the path suffix after the items prefix; anything that is
    // not a bare positive decimal (404-shaped garbage) misses.
    if (!parse_decimal(m.rest, key) || *key == 0) return Outcome::kRouteMiss;
    if (parsed.method == Method::kGet) return Outcome::kGet;
    if (parsed.method == Method::kPut) {
      // Absent or unparseable Content-Length serves as size 0 — the index
      // does not police payload plausibility.
      *size = 0;
      parse_decimal(parsed.header_value("Content-Length"), size);
      return Outcome::kPut;
    }
    return Outcome::kRouteMiss;  // 405-shaped: no handler for this method
  }
  if (m.route == health_route && parsed.method == Method::kGet) {
    return Outcome::kHealth;
  }
  return Outcome::kRouteMiss;
}

void Server::stage_parse(Ctx& c, int64_t i) {
  Slot& s = scratch_[static_cast<size_t>(c.rank())];
  // Oversized header sets spill into this virtual CPU's arena; the spill
  // lives until the slot re-arms, well past the item's last stage.
  parse_request(batch_->request(static_cast<size_t>(i)), s.parsed,
                &c.thread_data().arena);
}

void Server::stage_route_lookup(Ctx& c, int64_t i) {
  (void)i;
  Slot& s = scratch_[static_cast<size_t>(c.rank())];
  if (s.parsed.status != ParseStatus::kOk) {
    s.out = static_cast<uint64_t>(Outcome::kMalformed);
    return;
  }
  Outcome kind = route_of(routes_, items_route_, health_route_, s.parsed,
                          &s.key, &s.size);
  s.out = static_cast<uint64_t>(kind);
  if (kind == Outcome::kGet) {
    CacheIndex::GetResult r = index_.get(c, s.key);
    if (r.hit) s.out |= kOutcomeHitBit;
  }
}

void Server::stage_update(Ctx& c, int64_t i) {
  Slot& s = scratch_[static_cast<size_t>(c.rank())];
  if ((s.out & kOutcomeKindMask) == static_cast<uint64_t>(Outcome::kPut)) {
    if (index_.put(c, s.key, s.size, epoch_)) s.out |= kOutcomeEvictBit;
  }
  // The routed store makes the outcome speculative state: rolled-back
  // attempts leave no trace, committed ones land for fold() to read.
  outcomes_.at(c, static_cast<size_t>(i)) = s.out;
}

BatchCounters Server::fold(const uint64_t* outcomes, size_t n) {
  BatchCounters counters;
  counters.requests = n;
  for (size_t i = 0; i < n; ++i) {
    uint64_t out = outcomes[i];
    switch (static_cast<Outcome>(out & kOutcomeKindMask)) {
      case Outcome::kMalformed: ++counters.malformed; break;
      case Outcome::kRouteMiss: ++counters.route_misses; break;
      case Outcome::kHealth: ++counters.health; break;
      case Outcome::kGet:
        ++(out & kOutcomeHitBit ? counters.get_hits : counters.get_misses);
        break;
      case Outcome::kPut:
        ++counters.puts;
        if (out & kOutcomeEvictBit) ++counters.evictions;
        break;
    }
  }
  return counters;
}

BatchCounters Server::serve_batch(Ctx& ctx, const RequestBatch& batch,
                                  uint64_t epoch, const ServeOpts& opts) {
  MUTLS_CHECK(!ctx.speculative(),
              "serve_batch drives its own speculation chain");
  MUTLS_CHECK(batch.count() <= max_batch_, "batch exceeds the server bound");
  batch_ = &batch;
  epoch_ = epoch;
  par::pipeline(rt_, ctx, static_cast<int64_t>(batch.count()), stages_, opts);
  // Every chunk is joined: the outcome words are committed plain memory.
  return fold(outcomes_.data(), batch.count());
}

BatchCounters Server::serve_batch_seq(CacheIndex& index,
                                      const RequestBatch& batch,
                                      uint64_t epoch) {
  // Mirror of the pipeline stages, same helpers, direct index accessors.
  RouteTable routes;
  int items_route = routes.add_prefix("/cache/items/");
  int health_route = routes.add_exact("/healthz");
  Arena arena;  // spill storage, so the malformed bound matches spec's
  BatchCounters counters;
  counters.requests = batch.count();
  for (size_t i = 0; i < batch.count(); ++i) {
    ParsedRequest parsed;
    parse_request(batch.request(i), parsed, &arena);
    if (parsed.status != ParseStatus::kOk) {
      ++counters.malformed;
      continue;
    }
    uint64_t key = 0, size = 0;
    switch (route_of(routes, items_route, health_route, parsed, &key,
                     &size)) {
      case Outcome::kMalformed:
      case Outcome::kRouteMiss: ++counters.route_misses; break;
      case Outcome::kHealth: ++counters.health; break;
      case Outcome::kGet:
        ++(index.get_seq(key).hit ? counters.get_hits : counters.get_misses);
        break;
      case Outcome::kPut:
        ++counters.puts;
        if (index.put_seq(key, size, epoch)) ++counters.evictions;
        break;
    }
  }
  return counters;
}

}  // namespace mutls::serving
