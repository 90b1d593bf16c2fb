// Serving subsystem tests: parser grammar and bounds, route table
// precedence, cache index semantics, and seq/spec equivalence of the
// serve_batch driver. The parser properties run against exactly-sized heap
// buffers so the ASan job turns any read past buf.size() into a failure —
// the "never reads past the buffer" guarantee is enforced, not assumed.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "serving/cache_index.h"
#include "serving/http_parse.h"
#include "serving/request_gen.h"
#include "serving/route.h"
#include "serving/serve_batch.h"
#include "support/prng.h"

namespace mutls::serving {
namespace {

// Heap copy of exactly s.size() bytes — no NUL terminator, no slack — so
// sanitizers catch any parser read beyond the view.
class ExactBuf {
 public:
  explicit ExactBuf(std::string_view s)
      : n_(s.size()), p_(new char[n_ == 0 ? 1 : n_]) {
    std::memcpy(p_.get(), s.data(), n_);
  }
  std::string_view view() const { return {p_.get(), n_}; }

 private:
  size_t n_;
  std::unique_ptr<char[]> p_;
};

// Parse a heap copy of `s` and drop the copy before returning: callers may
// only look at `out.status` / counts, never at the string_view fields (the
// views point into the freed copy). Tests that inspect views keep their own
// ExactBuf alive instead.
ParseStatus parse_exact(std::string_view s, ParsedRequest& out,
                        Arena* arena = nullptr) {
  ExactBuf buf(s);
  return parse_request(buf.view(), out, arena);
}

// --- parser grammar ---

TEST(HttpParse, BasicGet) {
  ParsedRequest r;
  std::string_view raw =
      "GET /cache/items/42?fresh=1 HTTP/1.1\r\n"
      "Host: example.test\r\n"
      "Accept: */*\r\n"
      "\r\n";
  ExactBuf buf(raw);
  ASSERT_EQ(parse_request(buf.view(), r), ParseStatus::kOk);
  EXPECT_EQ(r.method, Method::kGet);
  EXPECT_EQ(r.method_text, "GET");
  EXPECT_EQ(r.target, "/cache/items/42?fresh=1");
  EXPECT_EQ(r.path, "/cache/items/42");
  EXPECT_EQ(r.query, "fresh=1");
  EXPECT_EQ(r.version, "HTTP/1.1");
  EXPECT_EQ(r.header_count, 2u);
  EXPECT_EQ(r.consumed, raw.size());
  EXPECT_EQ(r.header_value("host"), "example.test");  // case-insensitive
  EXPECT_EQ(r.header_value("ACCEPT"), "*/*");
  EXPECT_FALSE(r.spilled());
}

TEST(HttpParse, ViewsAliasTheBuffer) {
  ExactBuf buf("PUT /x HTTP/1.0\r\nA: b\r\n\r\n");
  ParsedRequest r;
  ASSERT_EQ(parse_request(buf.view(), r), ParseStatus::kOk);
  const char* lo = buf.view().data();
  const char* hi = lo + buf.view().size();
  for (std::string_view v :
       {r.method_text, r.target, r.path, r.version, r.header(0).name,
        r.header(0).value}) {
    EXPECT_GE(v.data(), lo);
    EXPECT_LE(v.data() + v.size(), hi);
  }
}

TEST(HttpParse, ConsumedStopsAtHeadEnd) {
  std::string raw = "PUT /k HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODY";
  ExactBuf buf(raw);
  ParsedRequest r;
  ASSERT_EQ(parse_request(buf.view(), r), ParseStatus::kOk);
  EXPECT_EQ(r.consumed, raw.size() - 4);
  uint64_t len = 0;
  ASSERT_TRUE(parse_decimal(r.header_value("Content-Length"), &len));
  EXPECT_EQ(len, 4u);
}

TEST(HttpParse, OwsTrimmedEmptyValueLegal) {
  ExactBuf buf("GET / HTTP/1.1\r\nX-Empty:   \r\n\r\n");
  ParsedRequest r;
  ASSERT_EQ(parse_request(buf.view(), r), ParseStatus::kOk);
  EXPECT_TRUE(r.has_header("X-Empty"));
  EXPECT_EQ(r.header_value("X-Empty"), "");
  EXPECT_FALSE(r.has_header("X-Absent"));
}

TEST(HttpParse, MalformedRejections) {
  const char* cases[] = {
      "G T / HTTP/1.1\r\n\r\n",             // space inside method split
      " GET / HTTP/1.1\r\n\r\n",            // empty method
      "GET  / HTTP/1.1\r\n\r\n",            // double space -> empty target
      "GET x HTTP/1.1\r\n\r\n",             // target not origin-form
      "GET /a b HTTP/1.1\r\n\r\n",          // space in target
      "GET / HTTP/2\r\n\r\n",               // version too short
      "GET / HTTPS/1.1\r\n\r\n",            // wrong protocol
      "GET / HTTP/1.x\r\n\r\n",             // non-digit minor
      "GET / HTTP/1.1\nHost: a\r\n\r\n",    // bare LF line ending
      "GET / HTTP/1.1\r\nHost a\r\n\r\n",   // header without colon
      "GET / HTTP/1.1\r\n: v\r\n\r\n",      // empty header name
      "GET / HTTP/1.1\r\nHost : a\r\n\r\n", // space before colon
      "GET / HTTP/1.1\r\nBad\x01: v\r\n\r\n",  // CTL in name
      "GET / HTTP/1.1\r\nA: b\x01\r\n\r\n",    // CTL in value
      "GET / HTTP/1.1\rX\r\n\r\n",          // stray CR
  };
  for (const char* c : cases) {
    ParsedRequest r;
    EXPECT_EQ(parse_exact(c, r), ParseStatus::kMalformed) << c;
    EXPECT_EQ(r.status, ParseStatus::kMalformed);
  }
}

TEST(HttpParse, EveryPrefixOfAValidHeadIsIncomplete) {
  std::string raw =
      "DELETE /cache/items/7 HTTP/1.1\r\n"
      "Host: h\r\n"
      "X-Trace: abc123\r\n"
      "\r\n";
  for (size_t cut = 0; cut < raw.size(); ++cut) {
    ParsedRequest r;
    ASSERT_EQ(parse_exact(std::string_view(raw).substr(0, cut), r),
              ParseStatus::kIncomplete)
        << "cut=" << cut;
  }
  ParsedRequest r;
  EXPECT_EQ(parse_exact(raw, r), ParseStatus::kOk);
}

TEST(HttpParse, OverlongLineRejectedOnceUndecidable) {
  std::string raw = "GET /";
  raw.append(kMaxLine + 10, 'a');
  raw += " HTTP/1.1\r\n\r\n";
  ParsedRequest r;
  EXPECT_EQ(parse_exact(raw, r), ParseStatus::kMalformed);
}

TEST(HttpParse, HeaderSpillIntoArena) {
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 12; ++i) {
    raw += "X-H" + std::to_string(i) + ": v" + std::to_string(i) + "\r\n";
  }
  raw += "\r\n";
  // Without an arena, the inline capacity is the hard bound.
  ParsedRequest r;
  EXPECT_EQ(parse_exact(raw, r), ParseStatus::kMalformed);
  // With an arena the fields spill and stay addressable.
  Arena arena;
  ExactBuf buf(raw);
  ASSERT_EQ(parse_request(buf.view(), r, &arena), ParseStatus::kOk);
  EXPECT_TRUE(r.spilled());
  EXPECT_EQ(r.header_count, 12u);
  EXPECT_EQ(r.header_value("X-H0"), "v0");   // copied inline fields
  EXPECT_EQ(r.header_value("X-H11"), "v11");  // spill-resident fields
}

TEST(HttpParse, HeaderCountHardBound) {
  std::string raw = "GET / HTTP/1.1\r\n";
  for (size_t i = 0; i < kMaxHeaders + 1; ++i) {
    raw += "X-" + std::to_string(i) + ": v\r\n";
  }
  raw += "\r\n";
  Arena arena;
  ParsedRequest r;
  EXPECT_EQ(parse_exact(raw, r, &arena), ParseStatus::kMalformed);
}

TEST(HttpParse, ParseDecimal) {
  uint64_t v = 0;
  EXPECT_TRUE(parse_decimal("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_decimal("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(parse_decimal("18446744073709551616", &v));  // overflow
  EXPECT_FALSE(parse_decimal("", &v));
  EXPECT_FALSE(parse_decimal("12a", &v));
  EXPECT_FALSE(parse_decimal("-1", &v));
}

// Randomized: arbitrary bytes must never crash or read out of bounds
// (ASan-checked via the exact-sized buffer), whatever status they get.
TEST(HttpParse, RandomBytesNeverOverread) {
  Xorshift64 rng(71);
  Arena arena;
  for (int iter = 0; iter < 3000; ++iter) {
    size_t len = rng.next_below(200);
    std::string s(len, '\0');
    for (char& c : s) {
      // Bias toward protocol-ish bytes so parses get past the first line.
      uint64_t r = rng.next_below(10);
      if (r < 6) {
        c = "GET /PUTHOST: 1.\r\n"[rng.next_below(18)];
      } else {
        c = static_cast<char>(rng.next());
      }
    }
    ParsedRequest r;
    parse_exact(s, r, &arena);
  }
}

// Round-trip: every well-formed generated request parses back to the
// generator's oracle; every corrupted one is rejected.
TEST(HttpParse, GeneratedTrafficRoundTrip) {
  TrafficConfig cfg;
  cfg.num_keys = 500;
  cfg.zipf_s = 1.1;
  cfg.put_ratio = 0.3;
  cfg.malformed_ratio = 0.25;
  cfg.seed = 99;
  RequestGen gen(cfg);
  char buf[kMaxRequestBytes];
  int corrupted = 0;
  for (int i = 0; i < 5000; ++i) {
    size_t len = gen.generate(buf, sizeof(buf));
    RequestGen::Shape shape = gen.last();
    ParsedRequest r;
    ExactBuf exact(std::string_view(buf, len));  // keeps the views alive
    ParseStatus s = parse_request(exact.view(), r);
    if (shape.corrupted) {
      ++corrupted;
      EXPECT_NE(s, ParseStatus::kOk) << std::string_view(buf, len);
      continue;
    }
    ASSERT_EQ(s, ParseStatus::kOk);
    EXPECT_EQ(r.method, shape.is_put ? Method::kPut : Method::kGet);
    EXPECT_EQ(r.path,
              "/cache/items/" + std::to_string(shape.key));
    if (shape.is_put) {
      uint64_t cl = 0;
      ASSERT_TRUE(parse_decimal(r.header_value("Content-Length"), &cl));
      EXPECT_EQ(cl, shape.content_length);
    }
  }
  EXPECT_GT(corrupted, 1000);  // the injection ratio actually applied
}

// --- route table ---

TEST(RouteTable, ExactBeatsPrefixAndLongestPrefixWins) {
  RouteTable t;
  int items = t.add_prefix("/cache/items/");
  int cache = t.add_prefix("/cache/");
  int stats = t.add_exact("/cache/stats");
  EXPECT_EQ(t.match("/cache/stats").route, stats);
  EXPECT_EQ(t.match("/cache/items/42").route, items);
  EXPECT_EQ(t.match("/cache/items/42").rest, "42");
  EXPECT_EQ(t.match("/cache/other").route, cache);
  EXPECT_EQ(t.match("/cache/other").rest, "other");
  EXPECT_EQ(t.match("/nope").route, RouteTable::kNoRoute);
  EXPECT_EQ(t.match("/cache/item").route, cache);  // no partial items match
}

TEST(RouteTable, ExactRequiresFullEquality) {
  RouteTable t;
  int h = t.add_exact("/healthz");
  EXPECT_EQ(t.match("/healthz").route, h);
  EXPECT_EQ(t.match("/healthz/").route, RouteTable::kNoRoute);
  EXPECT_EQ(t.match("/health").route, RouteTable::kNoRoute);
}

// --- cache index (sequential semantics) ---

TEST(CacheIndex, PutGetRefreshAndHitCounts) {
  CacheIndex idx(6);
  EXPECT_FALSE(idx.get_seq(7).hit);
  EXPECT_FALSE(idx.put_seq(7, 100, 1));
  CacheIndex::GetResult r = idx.get_seq(7);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.byte_size, 100u);
  // Refresh replaces size/epoch without eviction.
  EXPECT_FALSE(idx.put_seq(7, 250, 2));
  EXPECT_EQ(idx.get_seq(7).byte_size, 250u);
  EXPECT_EQ(idx.live_entries(), 1u);
}

TEST(CacheIndex, EvictsColdestWhenWindowFull) {
  // A tiny index (one probe window's worth of slots) filled past capacity
  // must evict, and the hot key must survive: get_seq bumps hit counts and
  // the eviction victim is the coldest entry in the window.
  CacheIndex idx(4);  // 16 slots == kProbeWindow
  for (uint64_t k = 1; k <= 16; ++k) idx.put_seq(k, k, 0);
  EXPECT_EQ(idx.live_entries(), 16u);
  for (int i = 0; i < 5; ++i) {
    for (uint64_t k = 1; k <= 16; ++k) {
      if (k != 3) idx.get_seq(k);  // key 3 stays cold
    }
  }
  uint64_t evictions = 0;
  for (uint64_t k = 17; k <= 20; ++k) {
    if (idx.put_seq(k, k, 1)) ++evictions;
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_FALSE(idx.get_seq(3).hit);  // the cold key was the first victim
}

TEST(CacheIndex, ChecksumReflectsContentExactly) {
  CacheIndex a(8), b(8);
  EXPECT_EQ(a.checksum(), b.checksum());
  Xorshift64 rng(3);
  for (int i = 0; i < 500; ++i) {
    uint64_t k = 1 + rng.next_below(100);
    if (rng.bernoulli(0.3)) {
      a.put_seq(k, k * 10, static_cast<uint64_t>(i));
      b.put_seq(k, k * 10, static_cast<uint64_t>(i));
    } else {
      a.get_seq(k);
      b.get_seq(k);
    }
    ASSERT_EQ(a.checksum(), b.checksum());
  }
  a.put_seq(999, 1, 0);
  EXPECT_NE(a.checksum(), b.checksum());
  a.clear();
  b.clear();
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_EQ(a.live_entries(), 0u);
}

// --- serve_batch: speculative vs sequential ---

class ServeBatchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ServeBatchEquivalence, CountersAndIndexMatchSequential) {
  TrafficConfig cfg;
  cfg.num_keys = 80;
  cfg.zipf_s = 1.1;
  cfg.put_ratio = 0.3;
  cfg.malformed_ratio = 0.15;
  cfg.seed = 1234;

  // Sequential reference.
  CacheIndex seq_index(5);
  RequestGen seq_gen(cfg);
  RequestBatch seq_batch(128);
  BatchCounters seq_totals;
  for (uint64_t b = 0; b < 4; ++b) {
    seq_gen.fill(seq_batch);
    seq_totals += Server::serve_batch_seq(seq_index, seq_batch, b);
  }

  // Speculative run over the identical stream.
  Runtime::Options o;
  o.num_cpus = GetParam();
  o.buffer_log2 = 14;
  Runtime rt(o);
  CacheIndex index(rt, 5);
  Server server(rt, index, 128);
  RequestGen gen(cfg);
  RequestBatch batch(128);
  BatchCounters totals;
  rt.run([&](Ctx& ctx) {
    ServeOpts opts;
    opts.chunks = 8;
    for (uint64_t b = 0; b < 4; ++b) {
      gen.fill(batch);
      totals += server.serve_batch(ctx, batch, b, opts);
    }
  });

  EXPECT_EQ(totals, seq_totals);
  EXPECT_EQ(index.checksum(), seq_index.checksum());
  // The traffic mix actually exercised every disposition.
  EXPECT_GT(totals.malformed, 0u);
  EXPECT_GT(totals.get_hits, 0u);
  EXPECT_GT(totals.get_misses, 0u);
  EXPECT_GT(totals.puts, 0u);
  EXPECT_GT(totals.evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Cpus, ServeBatchEquivalence,
                         ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "cpu";
                         });

TEST(ServeBatch, LatencySamplingRecordsSettles) {
  Runtime::Options o;
  o.num_cpus = 2;
  o.adaptive_forks = false;  // every batch forks its pieces
  Runtime rt(o);
  CacheIndex index(rt, 6);
  Server server(rt, index, 64);
  TrafficConfig cfg;
  cfg.num_keys = 32;
  RequestGen gen(cfg);
  RequestBatch batch(64);
  LatencyHistogram lat;
  uint64_t scratch[8];
  rt.run([&](Ctx& ctx) {
    ServeOpts opts;
    opts.chunks = 8;
    opts.fork_latency = &lat;
    opts.fork_ns_scratch = scratch;
    for (uint64_t b = 0; b < 3; ++b) {
      gen.fill(batch);
      server.serve_batch(ctx, batch, b, opts);
    }
  });
  // Every adopted join of every batch recorded one sample.
  EXPECT_GT(lat.count(), 0u);
  EXPECT_GT(lat.percentile(0.5), 0u);
  EXPECT_GE(lat.max(), lat.percentile(0.99));
}

}  // namespace
}  // namespace mutls::serving
