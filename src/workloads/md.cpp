#include "workloads/md.h"

#include <cmath>
#include <vector>

#include "support/prng.h"

namespace mutls::workloads {

namespace {

void init_particles(const MolecularDynamics::Params& p, std::vector<double>& pos,
                    std::vector<double>& vel) {
  Xorshift64 rng(p.seed);
  pos.resize(static_cast<size_t>(p.n) * 3);
  vel.resize(static_cast<size_t>(p.n) * 3);
  for (size_t i = 0; i < pos.size(); ++i) {
    pos[i] = rng.next_double() * 10.0 - 5.0;
    vel[i] = rng.next_double() * 0.2 - 0.1;
  }
}

// Force on particle i from all others; reads `pos` through the accessor so
// the same kernel serves the sequential and speculative versions.
template <typename LoadFn>
void force_on(int i, int n, const LoadFn& load_pos, double out[3]) {
  double xi = load_pos(3 * i), yi = load_pos(3 * i + 1),
         zi = load_pos(3 * i + 2);
  double fx = 0, fy = 0, fz = 0;
  for (int j = 0; j < n; ++j) {
    if (j == i) continue;
    double dx = load_pos(3 * j) - xi;
    double dy = load_pos(3 * j + 1) - yi;
    double dz = load_pos(3 * j + 2) - zi;
    double r2 = dx * dx + dy * dy + dz * dz + 1e-2;  // softened
    double inv = 1.0 / (r2 * std::sqrt(r2));
    fx += dx * inv;
    fy += dy * inv;
    fz += dz * inv;
  }
  out[0] = fx;
  out[1] = fy;
  out[2] = fz;
}

uint64_t checksum_state(const std::vector<double>& pos,
                        const std::vector<double>& vel) {
  uint64_t h = hash_begin();
  for (double d : pos) h = hash_double(h, d);
  for (double d : vel) h = hash_double(h, d);
  return h;
}

}  // namespace

SeqRun MolecularDynamics::run_seq(const Params& p) {
  std::vector<double> pos, vel, force(static_cast<size_t>(p.n) * 3);
  init_particles(p, pos, vel);
  Stopwatch sw;
  for (int s = 0; s < p.steps; ++s) {
    for (int i = 0; i < p.n; ++i) {
      double f[3];
      force_on(i, p.n, [&](int k) { return pos[static_cast<size_t>(k)]; }, f);
      for (int d = 0; d < 3; ++d) force[static_cast<size_t>(3 * i + d)] = f[d];
    }
    for (int i = 0; i < 3 * p.n; ++i) {
      size_t k = static_cast<size_t>(i);
      vel[k] += p.dt * force[k];
      pos[k] += p.dt * vel[k];
    }
  }
  return SeqRun{checksum_state(pos, vel), sw.elapsed_sec()};
}

SpecRun MolecularDynamics::run_spec(Runtime& rt, const Params& p,
                                    ForkModel model) {
  SharedArray<double> pos(rt, static_cast<size_t>(p.n) * 3);
  SharedArray<double> vel(rt, static_cast<size_t>(p.n) * 3);
  SharedArray<double> force(rt, static_cast<size_t>(p.n) * 3, 0.0);
  {
    std::vector<double> p0, v0;
    init_particles(p, p0, v0);
    for (size_t i = 0; i < p0.size(); ++i) {
      pos[i] = p0[i];
      vel[i] = v0[i];
    }
  }
  Stopwatch sw;
  RunStats stats = rt.run([&](Ctx& ctx) {
    for (int s = 0; s < p.steps; ++s) {
      // Parallel force phase: every speculative chunk reads all positions
      // but writes only its own force rows -> no conflicts, as the paper's
      // md exhibits.
      par::for_each(
          rt, ctx, 0, p.n,
          par::LoopOpts{.chunks = p.chunks, .model = model,
                        .checkpoint_every = 1},
          [&](auto& c, int64_t i) {
            auto ps = pos.span(c);
            auto fs = force.span(c);
            double f[3];
            force_on(static_cast<int>(i), p.n,
                     [&](int k) -> double {
                       return ps[static_cast<size_t>(k)];
                     },
                     f);
            for (int d = 0; d < 3; ++d) {
              fs[static_cast<size_t>(3 * i + d)] = f[d];
            }
          });
      // Sequential integration on the critical path.
      SharedSpan<double> ps = pos.span(ctx);
      SharedSpan<double> vs = vel.span(ctx);
      SharedSpan<double> fs = force.span(ctx);
      for (int i = 0; i < 3 * p.n; ++i) {
        size_t k = static_cast<size_t>(i);
        double v = vs[k] + p.dt * fs[k];
        vs[k] = v;
        ps[k] += p.dt * v;
      }
    }
  });
  double secs = sw.elapsed_sec();
  std::vector<double> pf(pos.data(), pos.data() + pos.size());
  std::vector<double> vf(vel.data(), vel.data() + vel.size());
  return SpecRun{checksum_state(pf, vf), secs, stats};
}

}  // namespace mutls::workloads
