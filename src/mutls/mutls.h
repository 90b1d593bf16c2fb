// Umbrella header of the native MUTLS embedding API (v2).
//
// The embedding is layered; include this to get the whole surface:
//
//   api/ctx.h       Ctx — per-thread routed access, check points, live-ins;
//                   NativeCtx — the non-speculative thread's unrouted twin
//   api/spec.h      Runtime, ForkOpts, fork/join, Spec, ScopedSpec (RAII)
//   api/shared.h    Shared<T>, SharedArray<T>, SharedSpan<T>, SharedRef<T>
//   api/parallel.h  spec_for drivers and the mutls::par algorithms
//                   (par::for_each, par::reduce, par::divide_and_conquer,
//                   par::pipeline)
//
// Quickstart:
//
//   #include "mutls/mutls.h"
//
//   mutls::Runtime rt({.num_cpus = 8});
//   mutls::SharedArray<uint64_t> out(rt, n);
//   rt.run([&](mutls::Ctx& ctx) {
//     mutls::par::for_each(rt, ctx, 0, n, {}, [&](auto& c, int64_t i) {
//       out.span(c)[i] = f(i);  // c: Ctx on a piece, NativeCtx on the caller
//     });
//   });
#pragma once

#include "api/ctx.h"
#include "api/parallel.h"
#include "api/shared.h"
#include "api/spec.h"
