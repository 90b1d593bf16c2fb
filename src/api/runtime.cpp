#include "api/ctx.h"

#include <algorithm>

#include "api/spec.h"

namespace mutls {

void Ctx::check_registered_slow(uintptr_t a, size_t n) {
  // A cached positive lookup must not outlive the registration it proved:
  // any unregistration bumps the manager's epoch and flushes the cache.
  uint64_t epoch = space_epoch_->load(std::memory_order_acquire);
  if (epoch != span_epoch_) {
    span_epoch_ = epoch;
    std::fill_n(span_lo_, kSpanCache, uintptr_t{0});
    std::fill_n(span_hi_, kSpanCache, uintptr_t{0});
  }
  int slot = span_next_;
  span_next_ = (span_next_ + 1) % kSpanCache;
  if (rt_->manager().address_space().lookup(a, n, &span_lo_[slot],
                                            &span_hi_[slot])) {
    return;
  }
  span_lo_[slot] = 0;
  span_hi_[slot] = 0;
  // Wild speculative access (paper IV-G1): roll back instead of faulting.
  td_->sbuf.doom("access outside the registered address space");
  throw_doomed();
}

void Ctx::throw_doomed() const { throw SpecAbort{td_->sbuf.doom_reason()}; }

}  // namespace mutls
