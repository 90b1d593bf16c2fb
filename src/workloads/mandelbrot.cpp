#include "workloads/mandelbrot.h"

#include <vector>

namespace mutls::workloads {

namespace {

uint64_t checksum_image(const int* img, size_t n) {
  uint64_t h = hash_begin();
  for (size_t i = 0; i < n; ++i) {
    h = hash_mix(h, static_cast<uint64_t>(img[i]));
  }
  return h;
}

}  // namespace

SeqRun Mandelbrot::run_seq(const Params& p) {
  std::vector<int> img(static_cast<size_t>(p.width) * p.height);
  Stopwatch sw;
  for (int y = 0; y < p.height; ++y) {
    double ci = p.y0 + (p.y1 - p.y0) * y / p.height;
    for (int x = 0; x < p.width; ++x) {
      double cr = p.x0 + (p.x1 - p.x0) * x / p.width;
      img[static_cast<size_t>(y) * p.width + x] =
          escape_iters(cr, ci, p.max_iter);
    }
  }
  double secs = sw.elapsed_sec();
  return SeqRun{checksum_image(img.data(), img.size()), secs};
}

SpecRun Mandelbrot::run_spec(Runtime& rt, const Params& p, ForkModel model) {
  SharedArray<int> img(rt, static_cast<size_t>(p.width) * p.height, 0);
  Stopwatch sw;
  RunStats stats = rt.run([&](Ctx& ctx) {
    // Speculate over rows: each pixel is pure compute; the single shared
    // store per pixel writes a distinct image cell.
    par::for_each(
        rt, ctx, 0, p.height,
        par::LoopOpts{.chunks = p.chunks, .model = model,
                      .checkpoint_every = 1},
        [&](auto& c, int64_t y) {
          auto out = img.span(c);
          double ci = p.y0 + (p.y1 - p.y0) * static_cast<double>(y) /
                                 p.height;
          // Compute the row into private scratch and publish it with one
          // bulk write: one buffer-map probe per word instead of one
          // routed store per pixel.
          std::vector<int> row(static_cast<size_t>(p.width));
          for (int x = 0; x < p.width; ++x) {
            double cr = p.x0 + (p.x1 - p.x0) * x / p.width;
            row[static_cast<size_t>(x)] = escape_iters(cr, ci, p.max_iter);
          }
          out.write(static_cast<size_t>(y) * p.width, row.data(),
                    row.size());
        });
  });
  double secs = sw.elapsed_sec();
  return SpecRun{checksum_image(img.data(), img.size()), secs, stats};
}

}  // namespace mutls::workloads
