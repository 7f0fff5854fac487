// Tests for Status/Result, Rng distributions, CSV, ParallelFor, and the
// persistent thread pool behind it.
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/atomic_io.h"
#include "src/util/csv.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kIoError,
        StatusCode::kNotConverged}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 42);
  EXPECT_TRUE(ok_result.status().ok());

  Result<int> err_result(Status::NotFound("missing"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err_result.value_or(-1), -1);
}

TEST(ResultTest, ReturnIfErrorMacro) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    GRGAD_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicStream) {
  Rng a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    if (va != c.NextU64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, UniformIntIsUnbiasedOverSmallRange) {
  Rng rng(8);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.UniformInt(uint64_t{5})];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{2});
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(10);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 3.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(14);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (size_t v : uniq) EXPECT_LT(v, 100u);
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 5).size(), 5u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(CsvTest, EscapingRules) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, FormatDoubleEdgeCases) {
  EXPECT_EQ(FormatDouble(std::nan("")), "nan");
  EXPECT_EQ(FormatDouble(HUGE_VAL), "inf");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
}

TEST(CsvTest, BuildsTable) {
  CsvWriter w({"name", "value"});
  w.AppendRow({"alpha", "1"});
  w.AppendNumericRow({2.5, 3.25});
  EXPECT_EQ(w.num_rows(), 2u);
  EXPECT_EQ(w.ToString(), "name,value\nalpha,1\n2.5,3.25\n");
}

TEST(CsvTest, WriteFileRoundTrip) {
  CsvWriter w({"x"});
  w.AppendRow({"1"});
  const std::string path = ::testing::TempDir() + "/grgad_csv_test.csv";
  ASSERT_TRUE(w.WriteFile(path).ok());
  EXPECT_FALSE(w.WriteFile("/nonexistent-dir/zzz.csv").ok());
}

TEST(ParallelTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(1000, 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, EmptyAndTinyRanges) {
  int calls = 0;
  ParallelFor(0, 8, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  ParallelFor(3, 100, [&](size_t begin, size_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 3);
}

using ::grgad::testing::ScopedDegree;

TEST(ParallelTest, MinGrainZeroIsClamped) {
  // Regression: the seed computed n / min_grain and died on min_grain == 0.
  ScopedDegree degree(4);
  std::vector<std::atomic<int>> hits(10);
  ParallelFor(10, 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, OversubscribedPoolCoversTinyRange) {
  // More pool lanes than iterations: every index still runs exactly once.
  ScopedDegree degree(8);
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(3, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, NestedCallsRunInlineWithoutDeadlock) {
  ScopedDegree degree(4);
  std::atomic<int> total{0};
  ParallelFor(8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      EXPECT_TRUE(ThreadPool::InParallelRegion());
      ParallelFor(10, 1, [&](size_t inner_begin, size_t inner_end) {
        total += static_cast<int>(inner_end - inner_begin);
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ParallelTest, PoolIsReusedAcrossManySmallCalls) {
  // The pool must survive thousands of dispatches (the seed spawned and
  // joined threads per call; the pool parks and re-wakes the same workers).
  ScopedDegree degree(4);
  for (int call = 0; call < 2000; ++call) {
    std::atomic<int> total{0};
    ParallelFor(64, 4, [&](size_t begin, size_t end) {
      total += static_cast<int>(end - begin);
    });
    ASSERT_EQ(total.load(), 64);
  }
}

TEST(ParallelTest, ConcurrentCallersFallBackSafely) {
  // Two user threads dispatching at once: one takes the pool, the other runs
  // inline. Both must cover their ranges exactly.
  ScopedDegree degree(4);
  std::atomic<int> totals[2] = {{0}, {0}};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (int call = 0; call < 200; ++call) {
        ParallelFor(128, 1, [&](size_t begin, size_t end) {
          totals[c] += static_cast<int>(end - begin);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(totals[0].load(), 200 * 128);
  EXPECT_EQ(totals[1].load(), 200 * 128);
}

TEST(ParallelTest, DegreeOverrideAppliesAndRestores) {
  {
    ScopedDegree degree(3);
    EXPECT_EQ(ParallelismDegree(), 3);
  }
  EXPECT_GE(ParallelismDegree(), 1);
}

TEST(ParallelTest, PartitionIsDeterministicPerDegree) {
  // The chunk ranges must be a pure function of (n, min_grain, degree).
  ScopedDegree degree(4);
  auto partition = [](size_t n, size_t grain) {
    std::vector<std::pair<size_t, size_t>> chunks(64);
    std::atomic<size_t> used{0};
    ParallelFor(n, grain, [&](size_t begin, size_t end) {
      chunks[used.fetch_add(1)] = {begin, end};
    });
    chunks.resize(used.load());
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(partition(1000, 16), partition(1000, 16));
  }
}

TEST(TokenScannerTest, TokensKeywordsAndNumbers) {
  const std::string text = "header 42\n  -7 3.25\ttail";
  TokenScanner in(text);
  EXPECT_TRUE(in.Keyword("header"));
  long long i = 0;
  EXPECT_TRUE(in.I64(&i));
  EXPECT_EQ(i, 42);
  EXPECT_FALSE(in.AtEnd());
  EXPECT_TRUE(in.I64(&i));
  EXPECT_EQ(i, -7);
  double d = 0.0;
  EXPECT_TRUE(in.F64(&d));
  EXPECT_EQ(d, 3.25);
  std::string_view token;
  EXPECT_TRUE(in.Token(&token));
  EXPECT_EQ(token, "tail");
  EXPECT_TRUE(in.AtEnd());
  EXPECT_FALSE(in.Token(&token));
}

TEST(TokenScannerTest, RejectsPartialAndMalformedNumbers) {
  // from_chars-style strictness: a numeric token must parse COMPLETELY, so
  // "123abc" is damage, not the number 123 — the right posture for
  // checksummed machine-written state.
  long long i = 0;
  double d = 0.0;
  EXPECT_FALSE(TokenScanner(std::string_view("123abc")).I64(&i));
  EXPECT_FALSE(TokenScanner(std::string_view("1.5x")).F64(&d));
  EXPECT_FALSE(TokenScanner(std::string_view("")).I64(&i));
  EXPECT_TRUE(TokenScanner(std::string_view(" \n\t ")).AtEnd());
}

TEST(TokenScannerTest, DoubleBitsRoundTripIsExact) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          3.141592653589793,
                          -2.2250738585072014e-308,  // Smallest normal.
                          4.9406564584124654e-324,   // Smallest subnormal.
                          1.7976931348623157e308,    // Largest finite.
                          0.1};
  for (double v : cases) {
    const std::string wire = FormatDoubleBits(v);
    ASSERT_EQ(wire.size(), 16u) << v;
    // The wire form IS the bit pattern, read back as one Hex64 token.
    uint64_t bits = 0;
    TokenScanner in(wire);
    ASSERT_TRUE(in.Hex64(&bits)) << wire;
    uint64_t vbits = 0;
    std::memcpy(&vbits, &v, sizeof vbits);
    EXPECT_EQ(vbits, bits) << wire;  // Bitwise, so -0.0 and NaN-safe.
  }
}

TEST(TokenScannerTest, Hex64RejectsWrongWidthAndNonHex) {
  uint64_t bits = 0;
  EXPECT_FALSE(TokenScanner(std::string_view("3ff")).Hex64(&bits));
  EXPECT_FALSE(
      TokenScanner(std::string_view("3fg0000000000000")).Hex64(&bits));
  EXPECT_FALSE(
      TokenScanner(std::string_view("3ff00000000000001")).Hex64(&bits));
  EXPECT_TRUE(TokenScanner(std::string_view("3FF0000000000000")).Hex64(&bits));
  EXPECT_EQ(bits, 0x3ff0000000000000u);  // Upper-case hex decodes too.
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(i);
  ASSERT_GT(sink, 0.0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace grgad
