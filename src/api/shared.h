// Typed shared-memory views of the native MUTLS embedding (API v2, layer 3
// of 4).
//
// The paper polices every speculative access through the buffer map; in v1
// of the embedding that meant writing `ctx.load(p)` / `ctx.store(p, v)` at
// every call site. These views wrap registered memory behind ordinary
// reference syntax instead: a `SharedRef<T>` (usually obtained by indexing
// a `SharedSpan<T>`) converts to T on read and routes assignment and
// compound assignment through the owning context, so workloads write
// `a[i] += x` and the context picks the path: a `Ctx` the speculative
// buffer map or the relaxed direct path by its thread's role, a
// `NativeCtx` the relaxed direct path always. A view takes its context
// type from the context it is bound to (`SharedRef<T, C>`,
// `SharedSpan<T, C>`, C = Ctx by default), so one generic loop body serves
// both.
//
//   SharedArray<double> arr(rt, n);        // RAII registration (IV-G1)
//   rt.run([&](Ctx& ctx) {
//     auto a = arr.span(ctx);              // context-bound view
//     a[0] = 1.0;                          // routed store
//     a[1] += a[0];                        // routed load + store
//     double x = a[1];                     // routed load
//   });
#pragma once

#include <cstddef>
#include <vector>

#include "api/ctx.h"
#include "api/spec.h"
#include "support/check.h"

namespace mutls {

// Proxy for one shared scalar bound to an execution context. Copying is
// cheap (two pointers); reading converts to T, writing routes through the
// context. Note `auto x = span[i]` deduces SharedRef — write `T x = span[i]`
// (or use get()) to read a value out.
template <typename T, typename C = Ctx>
class SharedRef {
 public:
  SharedRef(C& ctx, T* p) : ctx_(&ctx), p_(p) {}

  operator T() const { return ctx_->load(p_); }
  T get() const { return ctx_->load(p_); }
  void set(T v) { ctx_->store(p_, v); }

  SharedRef& operator=(T v) {
    ctx_->store(p_, v);
    return *this;
  }
  SharedRef& operator=(const SharedRef& o) {
    set(o.get());
    return *this;
  }
  SharedRef& operator+=(T v) {
    set(static_cast<T>(get() + v));
    return *this;
  }
  SharedRef& operator-=(T v) {
    set(static_cast<T>(get() - v));
    return *this;
  }
  SharedRef& operator*=(T v) {
    set(static_cast<T>(get() * v));
    return *this;
  }
  SharedRef& operator/=(T v) {
    set(static_cast<T>(get() / v));
    return *this;
  }

  // The raw address (for registration bookkeeping / prediction targets).
  T* raw() const { return p_; }

 private:
  C* ctx_;
  T* p_;
};

// Terse view constructor for one-off accesses on computed addresses:
//   shared(ctx, p.at(i, j)) = acc;
template <typename T, typename C>
SharedRef<T, C> shared(C& ctx, T* p) {
  return SharedRef<T, C>(ctx, p);
}

// Context-bound view over a contiguous run of registered memory. Indexing
// yields routed SharedRef proxies.
template <typename T, typename C = Ctx>
class SharedSpan {
 public:
  SharedSpan(C& ctx, T* data, size_t size)
      : ctx_(&ctx), data_(data), size_(size) {}

  SharedRef<T, C> operator[](size_t i) const {
    MUTLS_DCHECK(i < size_, "SharedSpan index out of range");
    return SharedRef<T, C>(*ctx_, data_ + i);
  }

  // Bulk transfers: move `count` elements starting at `offset` through the
  // speculative view in one routed call — one registration check and one
  // buffer-map probe per word instead of per element. Prefer these over an
  // element loop whenever a chunk's elements are consumed or produced
  // together (row sweeps, gather/scatter staging).
  void read(size_t offset, T* out, size_t count) const {
    MUTLS_DCHECK(offset + count <= size_, "SharedSpan read out of range");
    ctx_->load_n(data_ + offset, out, count);
  }
  void write(size_t offset, const T* src, size_t count) const {
    MUTLS_DCHECK(offset + count <= size_, "SharedSpan write out of range");
    ctx_->store_n(data_ + offset, src, count);
  }

  SharedSpan subspan(size_t offset, size_t count) const {
    MUTLS_DCHECK(offset + count <= size_, "SharedSpan subspan out of range");
    return SharedSpan(*ctx_, data_ + offset, count);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() const { return data_; }
  C& ctx() const { return *ctx_; }

 private:
  C* ctx_;
  T* data_;
  size_t size_;
};

// RAII registered single shared value.
template <typename T>
class Shared {
 public:
  explicit Shared(Runtime& rt, T init = T{}) : rt_(&rt), v_(init) {
    rt_->register_memory(&v_, sizeof(T));
  }
  ~Shared() { rt_->unregister_memory(&v_, sizeof(T)); }

  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;

  template <typename C>
  SharedRef<T, C> ref(C& ctx) {
    return SharedRef<T, C>(ctx, &v_);
  }
  // Direct access for use outside runs (setup / verification).
  T value() const { return v_; }
  T* raw() { return &v_; }

 private:
  Runtime* rt_;
  T v_;
};

// RAII registered heap array: the paper intercepts malloc/new to register
// heap objects; in the embedding this wrapper plays that role. Direct
// element access (operator[], data()) is for use outside runs; inside a
// run, bind a context with span().
template <typename T>
class SharedArray {
 public:
  SharedArray(Runtime& rt, size_t n, T init = T{})
      : rt_(&rt), data_(n, init) {
    rt_->register_memory(data_.data(), n * sizeof(T));
  }
  ~SharedArray() {
    rt_->unregister_memory(data_.data(), data_.size() * sizeof(T));
  }

  SharedArray(const SharedArray&) = delete;
  SharedArray& operator=(const SharedArray&) = delete;

  template <typename C>
  SharedSpan<T, C> span(C& ctx) {
    return SharedSpan<T, C>(ctx, data_.data(), data_.size());
  }
  template <typename C>
  SharedRef<T, C> at(C& ctx, size_t i) {
    MUTLS_DCHECK(i < data_.size(), "SharedArray index out of range");
    return SharedRef<T, C>(ctx, data_.data() + i);
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  Runtime* rt_;
  std::vector<T> data_;
};

// RAII registration of an existing object (static / stack-shared data).
class RegisteredRegion {
 public:
  RegisteredRegion(Runtime& rt, const void* p, size_t n)
      : rt_(&rt), p_(p), n_(n) {
    rt_->register_memory(p, n);
  }
  ~RegisteredRegion() { rt_->unregister_memory(p_, n_); }

  RegisteredRegion(const RegisteredRegion&) = delete;
  RegisteredRegion& operator=(const RegisteredRegion&) = delete;

 private:
  Runtime* rt_;
  const void* p_;
  size_t n_;
};

}  // namespace mutls
