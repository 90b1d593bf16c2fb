#include "workloads/bh.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/check.h"
#include "support/prng.h"

namespace mutls::workloads {

namespace {

// Flat octree in structure-of-arrays form so both the sequential and the
// speculative traversal read it through plain typed pointers.
struct Octree {
  // Per node: center of the cell, half width, center of mass, total mass,
  // 8 child indices (-1 = none), body index for single-body leaves (-1 for
  // internal nodes).
  std::vector<double> cellx, celly, cellz, half;
  std::vector<double> comx, comy, comz, mass;
  std::vector<int32_t> child;  // 8 per node
  std::vector<int32_t> body;

  size_t size() const { return half.size(); }

  int32_t add_node(double cx, double cy, double cz, double h) {
    cellx.push_back(cx);
    celly.push_back(cy);
    cellz.push_back(cz);
    half.push_back(h);
    comx.push_back(0);
    comy.push_back(0);
    comz.push_back(0);
    mass.push_back(0);
    for (int i = 0; i < 8; ++i) child.push_back(-1);
    body.push_back(-1);
    return static_cast<int32_t>(size() - 1);
  }

  void clear() {
    cellx.clear(); celly.clear(); cellz.clear(); half.clear();
    comx.clear(); comy.clear(); comz.clear(); mass.clear();
    child.clear(); body.clear();
  }
};

int octant(double cx, double cy, double cz, double x, double y, double z) {
  return (x >= cx ? 1 : 0) | (y >= cy ? 2 : 0) | (z >= cz ? 4 : 0);
}

void tree_insert(Octree& t, int32_t node, int b, const double* px,
                 const double* py, const double* pz, const double* pm) {
  while (true) {
    if (t.body[static_cast<size_t>(node)] == -1 &&
        t.mass[static_cast<size_t>(node)] == 0.0) {
      // Empty leaf: claim it.
      t.body[static_cast<size_t>(node)] = static_cast<int32_t>(b);
      t.mass[static_cast<size_t>(node)] = pm[b];
      t.comx[static_cast<size_t>(node)] = px[b];
      t.comy[static_cast<size_t>(node)] = py[b];
      t.comz[static_cast<size_t>(node)] = pz[b];
      return;
    }
    if (t.body[static_cast<size_t>(node)] != -1) {
      // Single-body leaf: push the resident body down and convert to an
      // internal node.
      int old = t.body[static_cast<size_t>(node)];
      t.body[static_cast<size_t>(node)] = -1;
      double cx = t.cellx[static_cast<size_t>(node)];
      double cy = t.celly[static_cast<size_t>(node)];
      double cz = t.cellz[static_cast<size_t>(node)];
      double h = t.half[static_cast<size_t>(node)] / 2;
      int oq = octant(cx, cy, cz, px[old], py[old], pz[old]);
      int32_t oc = t.add_node(cx + (oq & 1 ? h : -h), cy + (oq & 2 ? h : -h),
                              cz + (oq & 4 ? h : -h), h);
      t.child[static_cast<size_t>(node) * 8 + static_cast<size_t>(oq)] = oc;
      tree_insert(t, oc, old, px, py, pz, pm);
    }
    // Internal node: accumulate mass and descend.
    size_t ni = static_cast<size_t>(node);
    double m = t.mass[ni] + pm[b];
    t.comx[ni] = (t.comx[ni] * t.mass[ni] + px[b] * pm[b]) / m;
    t.comy[ni] = (t.comy[ni] * t.mass[ni] + py[b] * pm[b]) / m;
    t.comz[ni] = (t.comz[ni] * t.mass[ni] + pz[b] * pm[b]) / m;
    t.mass[ni] = m;
    double cx = t.cellx[ni], cy = t.celly[ni], cz = t.cellz[ni];
    double h = t.half[ni] / 2;
    int q = octant(cx, cy, cz, px[b], py[b], pz[b]);
    int32_t c = t.child[ni * 8 + static_cast<size_t>(q)];
    if (c == -1) {
      c = t.add_node(cx + (q & 1 ? h : -h), cy + (q & 2 ? h : -h),
                     cz + (q & 4 ? h : -h), h);
      t.child[ni * 8 + static_cast<size_t>(q)] = c;
    }
    node = c;
  }
}

void build_tree(Octree& t, int n, const double* px, const double* py,
                const double* pz, const double* pm) {
  t.clear();
  double lo = 1e30, hi = -1e30;
  for (int i = 0; i < n; ++i) {
    lo = std::min({lo, px[i], py[i], pz[i]});
    hi = std::max({hi, px[i], py[i], pz[i]});
  }
  double c = (lo + hi) / 2, h = (hi - lo) / 2 + 1e-9;
  t.add_node(c, c, c, h);
  for (int b = 0; b < n; ++b) tree_insert(t, 0, b, px, py, pz, pm);
}

// Acceleration on body b by tree traversal. LoadD/LoadI abstract the
// element reads so the identical kernel serves the sequential baseline and
// the routed versions (via Ctx or NativeCtx), keeping floating-point
// results bit-identical. The loaders are taken by value, and the routed
// ones hold their views by value: GCC assumes a relaxed atomic load may
// write any memory whose address has escaped, so a loader reached through
// a reference re-loads its view's data pointer on every access. On a
// 4-vCPU VM, bh run by the caller alone took 1.2x its sequential time that
// way and 1.0x with the loaders by value.
template <typename LoadD, typename LoadI>
void accel_on(int b, double bx, double by, double bz, double theta,
              LoadD ld, LoadI li, size_t nodes, double out[3]) {
  (void)nodes;
  double ax = 0, ay = 0, az = 0;
  int32_t stack[256];
  int sp = 0;
  stack[sp++] = 0;
  while (sp > 0) {
    int32_t node = stack[--sp];
    size_t ni = static_cast<size_t>(node);
    double m = ld('m', ni);
    if (m == 0.0) continue;
    int32_t leaf_body = li('b', ni);
    double dx = ld('x', ni) - bx;
    double dy = ld('y', ni) - by;
    double dz = ld('z', ni) - bz;
    double r2 = dx * dx + dy * dy + dz * dz;
    double h = ld('h', ni);
    if (leaf_body == static_cast<int32_t>(b)) continue;
    bool is_leaf = leaf_body != -1;
    if (is_leaf || 4.0 * h * h < theta * theta * r2) {
      double r2s = r2 + 1e-4;
      double inv = m / (r2s * std::sqrt(r2s));
      ax += dx * inv;
      ay += dy * inv;
      az += dz * inv;
    } else {
      for (int q = 0; q < 8; ++q) {
        int32_t c = li('c', ni * 8 + static_cast<size_t>(q));
        if (c != -1) {
          MUTLS_CHECK(sp < 256, "bh traversal stack overflow");
          stack[sp++] = c;
        }
      }
    }
  }
  out[0] = ax;
  out[1] = ay;
  out[2] = az;
}

void init_bodies(const BarnesHut::Params& p, std::vector<double>& px,
                 std::vector<double>& py, std::vector<double>& pz,
                 std::vector<double>& vx, std::vector<double>& vy,
                 std::vector<double>& vz, std::vector<double>& pm) {
  Xorshift64 rng(p.seed);
  size_t n = static_cast<size_t>(p.n);
  px.resize(n); py.resize(n); pz.resize(n);
  vx.assign(n, 0.0); vy.assign(n, 0.0); vz.assign(n, 0.0);
  pm.resize(n);
  for (size_t i = 0; i < n; ++i) {
    px[i] = rng.next_double() * 10 - 5;
    py[i] = rng.next_double() * 10 - 5;
    pz[i] = rng.next_double() * 10 - 5;
    pm[i] = 0.5 + rng.next_double();
  }
}

uint64_t checksum_bodies(const double* px, const double* py, const double* pz,
                         size_t n) {
  uint64_t h = hash_begin();
  for (size_t i = 0; i < n; ++i) {
    h = hash_double(h, px[i]);
    h = hash_double(h, py[i]);
    h = hash_double(h, pz[i]);
  }
  return h;
}

}  // namespace

SeqRun BarnesHut::run_seq(const Params& p) {
  std::vector<double> px, py, pz, vx, vy, vz, pm;
  init_bodies(p, px, py, pz, vx, vy, vz, pm);
  std::vector<double> ax(static_cast<size_t>(p.n)), ay(ax), az(ax);
  Octree t;
  Stopwatch sw;
  for (int s = 0; s < p.steps; ++s) {
    build_tree(t, p.n, px.data(), py.data(), pz.data(), pm.data());
    auto ld = [&](char what, size_t i) -> double {
      switch (what) {
        case 'x': return t.comx[i];
        case 'y': return t.comy[i];
        case 'z': return t.comz[i];
        case 'm': return t.mass[i];
        default: return t.half[i];
      }
    };
    auto li = [&](char what, size_t i) -> int32_t {
      return what == 'b' ? t.body[i] : t.child[i];
    };
    for (int b = 0; b < p.n; ++b) {
      double a[3];
      size_t bi = static_cast<size_t>(b);
      accel_on(b, px[bi], py[bi], pz[bi], p.theta, ld, li, t.size(), a);
      ax[bi] = a[0];
      ay[bi] = a[1];
      az[bi] = a[2];
    }
    for (size_t i = 0; i < static_cast<size_t>(p.n); ++i) {
      vx[i] += p.dt * ax[i];
      vy[i] += p.dt * ay[i];
      vz[i] += p.dt * az[i];
      px[i] += p.dt * vx[i];
      py[i] += p.dt * vy[i];
      pz[i] += p.dt * vz[i];
    }
  }
  return SeqRun{checksum_bodies(px.data(), py.data(), pz.data(),
                                static_cast<size_t>(p.n)),
                sw.elapsed_sec()};
}

SpecRun BarnesHut::run_spec(Runtime& rt, const Params& p, ForkModel model) {
  size_t n = static_cast<size_t>(p.n);
  std::vector<double> px0, py0, pz0, vx0, vy0, vz0, pm0;
  init_bodies(p, px0, py0, pz0, vx0, vy0, vz0, pm0);
  SharedArray<double> px(rt, n), py(rt, n), pz(rt, n), vx(rt, n, 0.0),
      vy(rt, n, 0.0), vz(rt, n, 0.0), ax(rt, n, 0.0), ay(rt, n, 0.0),
      az(rt, n, 0.0);
  std::vector<double> pm = pm0;
  for (size_t i = 0; i < n; ++i) {
    px[i] = px0[i]; py[i] = py0[i]; pz[i] = pz0[i];
  }
  // Shared flat tree arrays, rebuilt (and re-filled) every step; capacity
  // bounds the node count.
  size_t cap = n * 4 + 64;
  SharedArray<double> tcomx(rt, cap), tcomy(rt, cap), tcomz(rt, cap),
      tmass(rt, cap), thalf(rt, cap);
  SharedArray<int32_t> tchild(rt, cap * 8), tbody(rt, cap);
  Octree t;
  Stopwatch sw;
  RunStats stats = rt.run([&](Ctx& ctx) {
    for (int s = 0; s < p.steps; ++s) {
      // Tree build on the critical path (sequential, like the paper's bh
      // which only speculates the force loop).
      build_tree(t, p.n, px.data(), py.data(), pz.data(), pm.data());
      MUTLS_CHECK(t.size() <= cap, "octree capacity exceeded");
      for (size_t i = 0; i < t.size(); ++i) {
        tcomx[i] = t.comx[i]; tcomy[i] = t.comy[i]; tcomz[i] = t.comz[i];
        tmass[i] = t.mass[i]; thalf[i] = t.half[i];
        tbody[i] = t.body[i];
        for (int q = 0; q < 8; ++q) tchild[i * 8 + static_cast<size_t>(q)] =
            t.child[i * 8 + static_cast<size_t>(q)];
      }
      par::for_each_chunk(
          rt, ctx, 0, p.n, par::LoopOpts{.chunks = p.chunks, .model = model},
          [&](auto& c, int, int64_t lo, int64_t hi) {
            // Views and accessors hoisted out of the per-body loop: this
            // is the hottest measured loop of the figure benches.
            auto comx = tcomx.span(c), comy = tcomy.span(c),
                 comz = tcomz.span(c), mass = tmass.span(c),
                 half = thalf.span(c);
            auto child = tchild.span(c), body = tbody.span(c);
            auto pxs = px.span(c), pys = py.span(c), pzs = pz.span(c),
                 axs = ax.span(c), ays = ay.span(c), azs = az.span(c);
            auto ld = [=](char what, size_t i) -> double {
              switch (what) {
                case 'x': return comx[i];
                case 'y': return comy[i];
                case 'z': return comz[i];
                case 'm': return mass[i];
                default: return half[i];
              }
            };
            auto li = [=](char what, size_t i) -> int32_t {
              return what == 'b' ? body[i] : child[i];
            };
            for (int64_t b = lo; b < hi; ++b) {
              size_t bi = static_cast<size_t>(b);
              double a[3];
              accel_on(static_cast<int>(b), pxs[bi], pys[bi], pzs[bi],
                       p.theta, ld, li, t.size(), a);
              axs[bi] = a[0];
              ays[bi] = a[1];
              azs[bi] = a[2];
              c.check_point();
            }
          });
      SharedSpan<double> pxs = px.span(ctx), pys = py.span(ctx),
                         pzs = pz.span(ctx), vxs = vx.span(ctx),
                         vys = vy.span(ctx), vzs = vz.span(ctx),
                         axs = ax.span(ctx), ays = ay.span(ctx),
                         azs = az.span(ctx);
      for (size_t i = 0; i < n; ++i) {
        double nvx = vxs[i] + p.dt * axs[i];
        double nvy = vys[i] + p.dt * ays[i];
        double nvz = vzs[i] + p.dt * azs[i];
        vxs[i] = nvx;
        vys[i] = nvy;
        vzs[i] = nvz;
        pxs[i] += p.dt * nvx;
        pys[i] += p.dt * nvy;
        pzs[i] += p.dt * nvz;
      }
    }
  });
  double secs = sw.elapsed_sec();
  return SpecRun{checksum_bodies(px.data(), py.data(), pz.data(), n), secs,
                 stats};
}

}  // namespace mutls::workloads
