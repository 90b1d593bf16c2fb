// Local-variable buffering (paper sections IV-G3, IV-G4 and IV-H).
//
// The LocalBuffer transfers register and stack variables between parent and
// child threads at fork and join. It is organized as an array of stack
// frames; each frame holds a RegisterBuffer (static array of 64-bit slots
// addressed by offsets assigned at compile time / fork time) and a
// StackBuffer (copies of addressed stack variables). A pointer-mapping
// table translates pointers into the speculative stack to the corresponding
// non-speculative variables at commit time. Frames beyond the entry frame
// are pushed at enter points and popped at return points, enabling the
// stack-frame-reconstruction scheme of section IV-H.
#pragma once

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "support/check.h"

namespace mutls {

// RegisterBuffer slots per frame (paper IV-G3): the live-in values one
// fork can carry (Runtime::fork CHECKs its prediction count against it).
inline constexpr int kRegisterSlots = 256;

// Fixed-capacity array of 64-bit register slots. Exceeding the capacity is
// a compile-time error in the paper ("the speculator pass reports an error
// and speculation fails"); here set/get report failure to the caller.
class RegisterBuffer {
 public:
  void init(int slots) { slots_.assign(static_cast<size_t>(slots), 0); }

  bool set(int offset, uint64_t value) {
    if (offset < 0 || static_cast<size_t>(offset) >= slots_.size())
      return false;
    slots_[static_cast<size_t>(offset)] = value;
    return true;
  }

  bool get(int offset, uint64_t& value) const {
    if (offset < 0 || static_cast<size_t>(offset) >= slots_.size())
      return false;
    value = slots_[static_cast<size_t>(offset)];
    return true;
  }

  int capacity() const { return static_cast<int>(slots_.size()); }

 private:
  std::vector<uint64_t> slots_;
};

// Copies of stack variables, keyed by assigned offset, remembering the
// source address and size so commit can copy the bytes back and so pointer
// mapping can translate interior pointers.
class StackBuffer {
 public:
  struct Entry {
    uintptr_t addr = 0;  // address in the *owning* thread's stack
    std::vector<char> bytes;
  };

  void clear() { entries_.clear(); }

  // Saves `size` bytes at `addr` under `offset`.
  void set(int offset, uintptr_t addr, const void* data, size_t size);

  // Restores into `out` (size must match the saved entry); also records
  // `addr` as the reader's address of that variable for pointer mapping.
  bool get(int offset, uintptr_t addr, void* out, size_t size);

  const Entry* lookup(int offset) const;

  // Given a pointer value pointing into the writer's saved variable
  // `offset` (anywhere within its span), returns the equivalent pointer in
  // the reader's copy recorded by get(). Returns 0 if not mappable.
  uintptr_t map_pointer(uintptr_t value) const;

  size_t entry_count() const { return entries_.size(); }

 private:
  struct Record {
    Entry writer;          // as saved by set()
    uintptr_t reader_addr = 0;  // as recorded by get()
  };
  std::unordered_map<int, Record> entries_;
};

// One speculative stack frame.
struct LocalFrame {
  RegisterBuffer regs;
  StackBuffer stack;
  // Synchronization counter of the call site that created this frame
  // (paper IV-H: used by MUTLS_sync_entry to re-descend the call chain).
  int entry_counter = 0;
  // Identifies the callee function (IR path: function name id).
  int function_id = -1;
};

// Frames beyond depth_ are retired, not destroyed: a virtual-CPU slot that
// once speculated through a deep call chain keeps those frames (and their
// register arrays) and re-arms by recycling them in place, so resetting
// the buffer for the next speculation allocates nothing — part of the
// runtime's zero-allocation steady-state invariant.
class LocalBuffer {
 public:
  // Arms the entry frame for a new speculation. The first call allocates
  // it; later calls recycle it in place (registers zeroed, stack copies
  // dropped) instead of destroying and re-allocating it.
  void reset() {
    depth_ = 0;
    push_frame(0, -1);
  }

  // Enter point (paper IV-H): register a new stack frame for a nested
  // call, reusing a retired frame when one exists.
  LocalFrame& push_frame(int entry_counter, int function_id) {
    if (depth_ == frames_.size()) frames_.emplace_back();
    LocalFrame& f = frames_[depth_++];
    f.regs.init(kRegisterSlots);  // zero in place; allocates only once
    f.stack.clear();
    f.entry_counter = entry_counter;
    f.function_id = function_id;
    return f;
  }

  // Return point: pop the nested frame. Returns false when only the entry
  // frame remains (the paper restricts speculative threads from returning
  // from their entry function). The frame is retired for reuse, not freed.
  bool pop_frame() {
    if (depth_ <= 1) return false;
    --depth_;
    return true;
  }

  LocalFrame& top() {
    MUTLS_DCHECK(depth_ != 0, "no local frame");
    return frames_[depth_ - 1];
  }
  LocalFrame& frame(size_t i) { return frames_[i]; }
  size_t frame_count() const { return depth_; }

  // Pointer mapping (paper IV-G3): translate `value` if it points into any
  // saved speculative stack variable; otherwise return it unchanged.
  uintptr_t map_pointer(uintptr_t value) const {
    for (size_t i = 0; i < depth_; ++i) {
      uintptr_t m = frames_[i].stack.map_pointer(value);
      if (m) return m;
    }
    return value;
  }

 private:
  std::vector<LocalFrame> frames_;  // live [0, depth_), retired past depth_
  size_t depth_ = 0;
};

}  // namespace mutls
