// Unit tests for register/stack variable transfer, pointer mapping and the
// stack-frame machinery (paper IV-G3, IV-H).
#include "runtime/local_buffer.h"

#include <gtest/gtest.h>

namespace mutls {
namespace {

TEST(RegisterBuffer, SetGetRoundTrip) {
  RegisterBuffer r;
  r.init(8);
  EXPECT_TRUE(r.set(0, 42));
  EXPECT_TRUE(r.set(7, 99));
  uint64_t v = 0;
  ASSERT_TRUE(r.get(0, v));
  EXPECT_EQ(v, 42u);
  ASSERT_TRUE(r.get(7, v));
  EXPECT_EQ(v, 99u);
}

TEST(RegisterBuffer, OutOfRangeOffsetFails) {
  // The paper: "If there are too many variables and the assigned offset
  // exceeds the array size, the speculator pass reports an error and
  // speculation fails."
  RegisterBuffer r;
  r.init(4);
  EXPECT_FALSE(r.set(4, 1));
  EXPECT_FALSE(r.set(-1, 1));
  uint64_t v;
  EXPECT_FALSE(r.get(4, v));
  EXPECT_EQ(r.capacity(), 4);
}

TEST(StackBuffer, SaveRestoreRoundTrip) {
  StackBuffer s;
  int src[4] = {1, 2, 3, 4};
  s.set(0, reinterpret_cast<uintptr_t>(src), src, sizeof(src));
  int dst[4] = {};
  ASSERT_TRUE(
      s.get(0, reinterpret_cast<uintptr_t>(dst), dst, sizeof(dst)));
  EXPECT_EQ(dst[0], 1);
  EXPECT_EQ(dst[3], 4);
}

TEST(StackBuffer, SizeMismatchFails) {
  StackBuffer s;
  int x = 5;
  s.set(0, reinterpret_cast<uintptr_t>(&x), &x, sizeof(x));
  long y;
  EXPECT_FALSE(s.get(0, reinterpret_cast<uintptr_t>(&y), &y, sizeof(y)));
}

TEST(StackBuffer, MissingOffsetFails) {
  StackBuffer s;
  int y;
  EXPECT_FALSE(s.get(3, reinterpret_cast<uintptr_t>(&y), &y, sizeof(y)));
  EXPECT_EQ(s.lookup(3), nullptr);
}

TEST(StackBuffer, PointerMappingTranslatesInteriorPointers) {
  // Writer (speculative thread) saved a 4-int array; reader (parent)
  // restored it at a different address. A pointer to element 2 of the
  // writer's copy must map to element 2 of the reader's copy.
  StackBuffer s;
  int writer_arr[4] = {1, 2, 3, 4};
  int reader_arr[4] = {};
  s.set(0, reinterpret_cast<uintptr_t>(writer_arr), writer_arr,
        sizeof(writer_arr));
  ASSERT_TRUE(s.get(0, reinterpret_cast<uintptr_t>(reader_arr), reader_arr,
                    sizeof(reader_arr)));
  uintptr_t interior = reinterpret_cast<uintptr_t>(&writer_arr[2]);
  uintptr_t mapped = s.map_pointer(interior);
  EXPECT_EQ(mapped, reinterpret_cast<uintptr_t>(&reader_arr[2]));
}

TEST(StackBuffer, PointerOutsideSavedVariablesIsNotMapped) {
  StackBuffer s;
  int a = 0, b = 0;
  s.set(0, reinterpret_cast<uintptr_t>(&a), &a, sizeof(a));
  int r;
  s.get(0, reinterpret_cast<uintptr_t>(&r), &r, sizeof(r));
  EXPECT_EQ(s.map_pointer(reinterpret_cast<uintptr_t>(&b)), 0u);
}

TEST(StackBuffer, UnrestoredEntryDoesNotMap) {
  StackBuffer s;
  int a = 0;
  s.set(0, reinterpret_cast<uintptr_t>(&a), &a, sizeof(a));
  // No get() happened: there is no reader-side address yet.
  EXPECT_EQ(s.map_pointer(reinterpret_cast<uintptr_t>(&a)), 0u);
}

TEST(LocalBuffer, StartsWithEntryFrame) {
  LocalBuffer l;
  l.reset();
  EXPECT_EQ(l.frame_count(), 1u);
  EXPECT_FALSE(l.pop_frame()) << "cannot return from the entry function";
}

TEST(LocalBuffer, PushPopFramesTrackCallChain) {
  LocalBuffer l;
  l.reset();
  l.push_frame(3, 7);
  l.push_frame(5, 9);
  EXPECT_EQ(l.frame_count(), 3u);
  EXPECT_EQ(l.top().entry_counter, 5);
  EXPECT_EQ(l.top().function_id, 9);
  EXPECT_TRUE(l.pop_frame());
  EXPECT_EQ(l.top().entry_counter, 3);
  EXPECT_TRUE(l.pop_frame());
  EXPECT_FALSE(l.pop_frame());
}

TEST(LocalBuffer, ResetRestoresSingleFrame) {
  LocalBuffer l;
  l.reset();
  l.push_frame(1, 1);
  l.top().regs.set(0, 5);
  l.reset();
  EXPECT_EQ(l.frame_count(), 1u);
  uint64_t v = 1;
  ASSERT_TRUE(l.top().regs.get(0, v));
  EXPECT_EQ(v, 0u) << "reset must clear register slots";
}

TEST(LocalBuffer, MapPointerSearchesAllFrames) {
  LocalBuffer l;
  l.reset();
  int w0 = 0, r0 = 0;
  l.top().stack.set(0, reinterpret_cast<uintptr_t>(&w0), &w0, sizeof(w0));
  l.top().stack.get(0, reinterpret_cast<uintptr_t>(&r0), &r0, sizeof(r0));
  l.push_frame(2, 4);
  int w1 = 0, r1 = 0;
  l.top().stack.set(0, reinterpret_cast<uintptr_t>(&w1), &w1, sizeof(w1));
  l.top().stack.get(0, reinterpret_cast<uintptr_t>(&r1), &r1, sizeof(r1));

  EXPECT_EQ(l.map_pointer(reinterpret_cast<uintptr_t>(&w0)),
            reinterpret_cast<uintptr_t>(&r0));
  EXPECT_EQ(l.map_pointer(reinterpret_cast<uintptr_t>(&w1)),
            reinterpret_cast<uintptr_t>(&r1));
  // Unknown pointers pass through unchanged (identity), as global-space
  // pointers must not be remapped.
  int g = 0;
  EXPECT_EQ(l.map_pointer(reinterpret_cast<uintptr_t>(&g)),
            reinterpret_cast<uintptr_t>(&g));
}

}  // namespace
}  // namespace mutls
