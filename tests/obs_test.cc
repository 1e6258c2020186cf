// Tests for src/obs: histogram bucket math (incl. under/overflow),
// percentile interpolation error bounds vs the exact nearest-rank helper,
// exactness of striped counters/histograms under a concurrent storm (the CI
// TSan lane runs this suite), trace-ring wraparound semantics, and the JSON
// export schema.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/percentile.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace piggy {
namespace obs {
namespace {

TEST(PercentileTest, NearestRankMatchesSortedIndex) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(NearestRankPercentile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(v, 0.5), 3);   // idx 2 of sorted
  EXPECT_DOUBLE_EQ(NearestRankPercentile(v, 0.99), 5);  // idx 4 clamped
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(NearestRankPercentile(empty, 0.5), 0);
}

TEST(HistogramTest, BucketIndexLayout) {
  // 4 buckets over [1, 16): ratio 2, boundaries 1,2,4,8,16.
  Histogram h(1.0, 16.0, 4);
  EXPECT_DOUBLE_EQ(h.bucket_ratio(), 2.0);
  EXPECT_EQ(h.BucketIndex(0.5), 0u);    // underflow
  EXPECT_EQ(h.BucketIndex(1.0), 1u);
  EXPECT_EQ(h.BucketIndex(1.9), 1u);
  EXPECT_EQ(h.BucketIndex(2.0), 2u);
  EXPECT_EQ(h.BucketIndex(7.9), 3u);
  EXPECT_EQ(h.BucketIndex(8.0), 4u);
  EXPECT_EQ(h.BucketIndex(15.9), 4u);
  EXPECT_EQ(h.BucketIndex(16.0), 5u);   // overflow
  EXPECT_EQ(h.BucketIndex(1e9), 5u);
  EXPECT_DOUBLE_EQ(h.SlotLowerBound(1), 1.0);
  EXPECT_DOUBLE_EQ(h.SlotLowerBound(4), 8.0);
  EXPECT_DOUBLE_EQ(h.SlotLowerBound(5), 16.0);
}

TEST(HistogramTest, UnderOverflowCounted) {
  Histogram h(1.0, 16.0, 4);
  h.Record(0.25);
  h.Record(0.5);
  h.Record(3.0);
  h.Record(100.0);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_DOUBLE_EQ(h.Sum(), 103.75);
  const std::vector<uint64_t> slots = h.MergedSlots();
  EXPECT_EQ(slots[0], 2u);  // underflow
  EXPECT_EQ(slots[2], 1u);  // [2, 4)
  EXPECT_EQ(slots[5], 1u);  // overflow
  // Percentiles clamp to the histogram range on the extreme buckets.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 16.0);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram h(1.0, 16.0, 4);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.Count(), 0u);
}

// The interpolated percentile must land in the same bucket as the exact
// nearest-rank statistic, i.e. within one (geometric) bucket width. Samples
// below min_value() or at/above max_value() fall into the underflow and
// overflow slots, whose estimate is the range bound, so the exact value is
// clamped to [min_value, max_value] before the comparison. Part of the load
// is recorded from several threads at once, so the estimate is read off the
// merged stripes.
TEST(HistogramTest, PercentileWithinOneBucketOfExact) {
  Histogram h(0.5, 1e6, 96);
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform latencies across four decades, like real op latencies.
    const double v = std::exp(rng.UniformDouble() * std::log(1e5)) * 0.8;
    samples.push_back(v);
    h.Record(v);
  }
  // Four recording threads, each with 5% of its samples under the range and
  // 5% over it: enough that the exact p1 and p99 lie outside the range.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2500;
  std::vector<std::vector<double>> recorded(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &recorded, t] {
      Rng trng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const double u = trng.UniformDouble();
        double v = std::exp(trng.UniformDouble() * std::log(1e5)) * 0.8;
        if (u < 0.05) v = h.min_value() * (0.05 + 0.9 * trng.UniformDouble());
        if (u >= 0.95) v = h.max_value() * (1 + 9 * trng.UniformDouble());
        recorded[t].push_back(v);
        h.Record(v);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<double>& r : recorded) {
    samples.insert(samples.end(), r.begin(), r.end());
  }
  ASSERT_EQ(h.Count(), samples.size());

  for (double q : {0.01, 0.5, 0.95, 0.99}) {
    std::vector<double> copy = samples;
    const double exact = NearestRankPercentile(copy, q);
    if (q == 0.01) {
      EXPECT_LT(exact, h.min_value());
    }
    if (q == 0.99) {
      EXPECT_GT(exact, h.max_value());
    }
    const double clamped = std::clamp(exact, h.min_value(), h.max_value());
    const double est = h.Percentile(q);
    EXPECT_LE(est, clamped * h.bucket_ratio() * (1 + 1e-9)) << "q=" << q;
    EXPECT_GE(est, clamped / h.bucket_ratio() * (1 - 1e-9)) << "q=" << q;
  }
}

TEST(CounterTest, ConcurrentIncrementsExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, ConcurrentRecordsExact) {
  Histogram h(0.5, 1e6, 64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(1.0 + rng.UniformDouble() * 100.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t slot_total = 0;
  for (uint64_t s : h.MergedSlots()) slot_total += s;
  EXPECT_EQ(slot_total, h.Count());
  // All samples are inside [1, 101]: nothing under/overflowed.
  const std::vector<uint64_t> slots = h.MergedSlots();
  EXPECT_EQ(slots.front(), 0u);
  EXPECT_EQ(slots.back(), 0u);
}

TEST(RegistryTest, SameNameSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("requests");
  Counter& b = reg.GetCounter("requests");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);
  Histogram& h1 = reg.GetHistogram("lat", 1.0, 16.0, 4);
  Histogram& h2 = reg.GetHistogram("lat");  // sizing ignored after creation
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.num_buckets(), 4u);
  EXPECT_EQ(reg.FindCounter("requests"), &a);
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
}

TEST(RegistryTest, JsonAndTextExport) {
  MetricsRegistry reg;
  reg.GetCounter("ops").Add(42);
  reg.GetGauge("imbalance").Set(1.5);
  Histogram& h = reg.GetHistogram("lat_us", 1.0, 1024.0, 10);
  h.Record(8.0);
  h.Record(8.0);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"ops\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"imbalance\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat_us\":{\"count\":2"), std::string::npos) << json;
  const std::string text = reg.ToText();
  EXPECT_NE(text.find("ops"), std::string::npos);
  EXPECT_NE(text.find("lat_us"), std::string::npos);
}

TEST(TraceLogTest, RecordsInstantsAndSpans) {
  TraceLog log(16);
  log.Instant(TraceEventKind::kShardKill, /*shard=*/2, {{"reason", "test"}});
  const double start = log.NowUs();
  log.Span(TraceEventKind::kReplanCommit, start, /*shard=*/0,
           {{"planner", "chitchat"}});
  const std::vector<TraceEvent> events = log.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kShardKill);
  EXPECT_EQ(events[0].shard, 2);
  EXPECT_EQ(events[0].dur_us, 0);
  EXPECT_EQ(events[0].name, "shard_kill");  // defaults to the kind name
  EXPECT_EQ(events[1].kind, TraceEventKind::kReplanCommit);
  EXPECT_GE(events[1].dur_us, 0);
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].first, "planner");
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceLogTest, RingWrapsDroppingOldest) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Instant(TraceEventKind::kEpoch, -1, {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(log.dropped(), 6u);
  const std::vector<TraceEvent> events = log.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and the oldest six were dropped: 6, 7, 8, 9 remain.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].args[0].second,
              std::to_string(i + 6));
  }
}

TEST(TraceLogTest, ConcurrentEmitKeepsEveryEventAccounted) {
  TraceLog log(128);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Instant(TraceEventKind::kEpoch);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.Events().size(), 128u);
  EXPECT_EQ(log.dropped(),
            static_cast<uint64_t>(kThreads) * kPerThread - 128u);
}

TEST(TraceLogTest, JsonHasBothViewsAndEscapes) {
  TraceLog log(8);
  log.Instant(TraceEventKind::kTriggerFire, 1, {{"watch", "imbalance\"x\""}});
  const double start = log.NowUs();
  log.Span(TraceEventKind::kRecovery, start, 0, {{"wal_records", "19000"}});
  const std::string json = log.ToJson();
  // Typed view: stable kind names, shard, args.
  EXPECT_NE(json.find("\"kind\":\"trigger_fire\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"watch\":\"imbalance\\\"x\\\"\""), std::string::npos);
  // Chrome view: instants are ph:"i", spans ph:"X".
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

TEST(TraceLogTest, JsonRoundTripThroughEvents) {
  // TraceToJson over a copied Events() vector matches ToJson exactly: the
  // export is a pure function of (events, dropped).
  TraceLog log(8);
  log.Instant(TraceEventKind::kMigrationBegin, 3, {{"users", "12"}});
  EXPECT_EQ(log.ToJson(), TraceToJson(log.Events(), log.dropped()));
}

TEST(RunReportTest, RendersTimelineAndTotals) {
  TraceLog log(32);
  log.Instant(TraceEventKind::kEpoch, -1, {{"epoch", "0"}});
  log.Instant(TraceEventKind::kShardKill, 1);
  const double start = log.NowUs();
  log.Span(TraceEventKind::kReplanCommit, start, 0, {{"cost", "12.5"}});
  const std::string report = RenderRunReport(log);
  EXPECT_NE(report.find("epoch=0"), std::string::npos) << report;
  EXPECT_NE(report.find("shard 1"), std::string::npos);
  EXPECT_NE(report.find("replan_commit"), std::string::npos);
  EXPECT_NE(report.find("epoch=1"), std::string::npos)
      << "summary should count one epoch event: " << report;
}

}  // namespace
}  // namespace obs
}  // namespace piggy
