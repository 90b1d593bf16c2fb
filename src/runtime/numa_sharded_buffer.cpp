#include "runtime/numa_sharded_buffer.h"

namespace mutls {

namespace {

// Smallest power of two >= n, clamped to [1, cap].
int round_up_shards(int n, int cap) {
  if (n < 1) n = 1;
  if (n > cap) n = cap;
  int p = 1;
  while (p < n) p *= 2;
  return p > cap ? cap : p;
}

int ilog2(int pow2) {
  int l = 0;
  while ((1 << l) < pow2) ++l;
  return l;
}

}  // namespace

void NumaShardedBuffer::init(int log2_entries, size_t overflow_cap,
                             SpecBufferStats* stats, int max_log2,
                             Arena* arena, SpecNumaPolicy policy) {
  (void)overflow_cap;  // shards resize like the growable log; no overflow
  stats_ = stats;
  shards_ = round_up_shards(policy.shards, kMaxShards);
  shard_mask_ = static_cast<uintptr_t>(shards_ - 1);
  region_log2_ = policy.region_log2 < 3 ? 3 : policy.region_log2;
  home_shard_ = policy.home_shard >= 0 ? policy.home_shard % shards_ : 0;
  // Each shard starts at its proportional share of the configured
  // capacity (GrowableSet floors at 2^4); the per-shard hard cap keeps
  // positions packable next to the shard bits.
  int per_log2 = log2_entries - ilog2(shards_);
  if (per_log2 < 4) per_log2 = 4;
  int per_max = max_log2 > kShardMaxLog2 ? kShardMaxLog2 : max_log2;
  if (per_max < per_log2) per_max = per_log2;
  for (int s = 0; s < shards_; ++s) {
    shard_[s].read.init(per_log2, stats, per_max, arena);
    shard_[s].write.init(per_log2, stats, per_max, arena);
  }
  doomed_ = false;
  doom_reason_ = "";
}

void NumaShardedBuffer::reset() {
  for (int s = 0; s < shards_; ++s) {
    shard_[s].read.clear();
    shard_[s].write.clear();
  }
  doomed_ = false;
  doom_reason_ = "";
  // The stats block belongs to the owning SpecBuffer and intentionally
  // survives reset: the settle paths read the counters after resetting.
}

bool NumaShardedBuffer::pressure() const {
  for (int s = 0; s < shards_; ++s) {
    if (shard_[s].read.resized_this_epoch() ||
        shard_[s].write.resized_this_epoch()) {
      return true;
    }
  }
  return false;
}

size_t NumaShardedBuffer::read_entries() const {
  size_t n = 0;
  for (int s = 0; s < shards_; ++s) n += shard_[s].read.entry_count();
  return n;
}

size_t NumaShardedBuffer::write_entries() const {
  size_t n = 0;
  for (int s = 0; s < shards_; ++s) n += shard_[s].write.entry_count();
  return n;
}

}  // namespace mutls
