// Speculative memory access for IR execution, written once and shared by
// both dispatch tiers: the interpreter's switch oracle and the
// direct-threaded handlers route loads/stores through these, so
// doom/rollback semantics cannot drift between tiers.
//
// Non-speculative threads access host memory directly through relaxed
// atomics (TSan-clean against concurrent speculative first-touch reads);
// speculative threads go through the slot's SpecBuffer with the aligned
// fast path for word-sized accesses, and only they count their accesses.
// A wild address or a doomed buffer unwinds the task with SpecAbort.
#pragma once

#include <cstdint>
#include <cstring>

#include "runtime/memory.h"
#include "runtime/spec_abort.h"
#include "runtime/thread_data.h"
#include "runtime/thread_manager.h"

namespace mutls::exec {

inline void check_space(ThreadManager& mgr, ThreadData& td, uint64_t addr,
                        size_t n) {
  if (!td.is_speculative()) return;
  if (!mgr.space_contains(reinterpret_cast<void*>(addr), n)) {
    td.sbuf.doom("speculative access outside the registered address space");
    throw SpecAbort{"wild speculative access"};
  }
}

inline void load_mem(ThreadManager& mgr, ThreadData& td, uint64_t addr,
                     void* out, size_t n) {
  if (!td.is_speculative()) {
    for (size_t i = 0; i < n; ++i) {
      static_cast<uint8_t*>(out)[i] = atomic_byte_load(addr + i);
    }
    return;
  }
  ++td.stats.loads;
  check_space(mgr, td, addr, n);
  if (word_sized_aligned(addr, n)) {
    uint64_t raw;
    if (!td.sbuf.load_hit(addr, n, raw)) {  // a hit cannot doom
      raw = td.sbuf.load_miss(addr, n);
      if (td.sbuf.doomed()) throw SpecAbort{td.sbuf.doom_reason()};
    }
    std::memcpy(out, &raw, n);
    return;
  }
  td.sbuf.load_bytes(addr, out, n);
  if (td.sbuf.doomed()) throw SpecAbort{td.sbuf.doom_reason()};
}

inline void store_mem(ThreadManager& mgr, ThreadData& td, uint64_t addr,
                      const void* src, size_t n) {
  if (!td.is_speculative()) {
    for (size_t i = 0; i < n; ++i) {
      atomic_byte_store(addr + i, static_cast<const uint8_t*>(src)[i]);
    }
    return;
  }
  ++td.stats.stores;
  check_space(mgr, td, addr, n);
  if (word_sized_aligned(addr, n)) {
    uint64_t raw = 0;
    std::memcpy(&raw, src, n);
    td.sbuf.store_aligned(addr, raw, n);
  } else {
    td.sbuf.store_bytes(addr, src, n);
  }
  if (td.sbuf.doomed()) throw SpecAbort{td.sbuf.doom_reason()};
}

}  // namespace mutls::exec
