#include "workloads/fft.h"

#include <cmath>
#include <numbers>
#include <vector>

#include "support/prng.h"

namespace mutls::workloads {

namespace {

void init_signal(const Fft::Params& p, std::vector<double>& re,
                 std::vector<double>& im) {
  size_t n = size_t{1} << p.log2_n;
  Xorshift64 rng(p.seed);
  re.resize(n);
  im.resize(n);
  for (size_t i = 0; i < n; ++i) {
    re[i] = rng.next_double() - 0.5;
    im[i] = 0.0;
  }
}

// Sequential two-buffer recursion: transforms buf[0], buf[step], ... using
// out as scratch; the result lands in buf.
void fft_seq(double* bre, double* bim, double* ore, double* oim, size_t n,
             size_t step) {
  if (step >= n) return;
  fft_seq(ore, oim, bre, bim, n, step * 2);
  fft_seq(ore + step, oim + step, bre + step, bim + step, n, step * 2);
  for (size_t i = 0; i < n; i += 2 * step) {
    double ang = -std::numbers::pi * static_cast<double>(i) /
                 static_cast<double>(n);
    double wr = std::cos(ang), wi = std::sin(ang);
    double xr = ore[i + step], xi = oim[i + step];
    double tr = wr * xr - wi * xi;
    double ti = wr * xi + wi * xr;
    bre[i / 2] = ore[i] + tr;
    bim[i / 2] = oim[i] + ti;
    bre[(i + n) / 2] = ore[i] - tr;
    bim[(i + n) / 2] = oim[i] - ti;
  }
}

struct SpecFft {
  Runtime& rt;
  const Fft::Params& p;
  ForkModel model;

  // `level` counts tree depth from the root; the top fork_levels levels
  // speculate their second recursive call. The ScopedSpec block is the
  // paper's "fork a thread to execute the second recursive call and
  // barrier it after the call": the join happens at scope exit, before the
  // butterfly consumes both halves.
  //
  // Generic in its context: speculative threads run it with a Ctx, the
  // non-speculative thread with a NativeCtx — the root, and every region
  // whose fork the site declined, which the join then runs natively.
  template <typename C>
  void run(C& ctx, double* bre, double* bim, double* ore, double* oim,
           size_t n, size_t step, int level) const {
    if (step >= n) return;
    if (level < p.fork_levels) {
      ScopedSpec s = rt.fork_scoped(ctx, model, [=, this](auto& c) {
        run(c, ore + step, oim + step, bre + step, bim + step, n, step * 2,
            level + 1);
      });
      run(ctx, ore, oim, bre, bim, n, step * 2, level + 1);
      s.join();
    } else {
      run(ctx, ore, oim, bre, bim, n, step * 2, level + 1);
      run(ctx, ore + step, oim + step, bre + step, bim + step, n, step * 2,
          level + 1);
    }
    ctx.check_point();
    SharedSpan<double, C> b_re(ctx, bre, n), b_im(ctx, bim, n),
        o_re(ctx, ore, n), o_im(ctx, oim, n);
    for (size_t i = 0; i < n; i += 2 * step) {
      double ang = -std::numbers::pi * static_cast<double>(i) /
                   static_cast<double>(n);
      double wr = std::cos(ang), wi = std::sin(ang);
      double xr = o_re[i + step], xi = o_im[i + step];
      double tr = wr * xr - wi * xi;
      double ti = wr * xi + wi * xr;
      double er = o_re[i], ei = o_im[i];
      b_re[i / 2] = er + tr;
      b_im[i / 2] = ei + ti;
      b_re[(i + n) / 2] = er - tr;
      b_im[(i + n) / 2] = ei - ti;
    }
  }
};

uint64_t checksum_signal(const double* re, const double* im, size_t n) {
  uint64_t h = hash_begin();
  for (size_t i = 0; i < n; ++i) {
    h = hash_double(h, re[i]);
    h = hash_double(h, im[i]);
  }
  return h;
}

}  // namespace

SeqRun Fft::run_seq(const Params& p) {
  std::vector<double> re, im;
  init_signal(p, re, im);
  std::vector<double> sre = re, sim = im;
  Stopwatch sw;
  fft_seq(re.data(), im.data(), sre.data(), sim.data(), re.size(), 1);
  double secs = sw.elapsed_sec();
  return SeqRun{checksum_signal(re.data(), im.data(), re.size()), secs};
}

SpecRun Fft::run_spec(Runtime& rt, const Params& p, ForkModel model) {
  size_t n = size_t{1} << p.log2_n;
  SharedArray<double> re(rt, n), im(rt, n), sre(rt, n), sim(rt, n);
  {
    std::vector<double> r0, i0;
    init_signal(p, r0, i0);
    for (size_t i = 0; i < n; ++i) {
      re[i] = r0[i];
      im[i] = i0[i];
      sre[i] = r0[i];
      sim[i] = i0[i];
    }
  }
  Stopwatch sw;
  RunStats stats = rt.run([&](auto& ctx) {
    SpecFft f{rt, p, model};
    f.run(ctx, re.data(), im.data(), sre.data(), sim.data(), n, 1, 0);
  });
  double secs = sw.elapsed_sec();
  return SpecRun{checksum_signal(re.data(), im.data(), n), secs, stats};
}

}  // namespace mutls::workloads
