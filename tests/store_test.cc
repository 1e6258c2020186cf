#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"
#include "core/baselines.h"
#include "core/chitchat.h"
#include "core/planner.h"
#include "gen/generators.h"
#include "gen/presets.h"
#include "store/app_client.h"
#include "store/newest_k_merge.h"
#include "store/partitioner.h"
#include "store/view_store.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace piggy {
namespace {

// ------------------------------------------------------------- Partitioner

TEST(HashPartitionerTest, StaysInRangeAndDeterministic) {
  HashPartitioner p(7);
  for (NodeId u = 0; u < 1000; ++u) {
    uint32_t s = p.ServerOf(u);
    EXPECT_LT(s, 7u);
    EXPECT_EQ(s, p.ServerOf(u));
  }
}

TEST(HashPartitionerTest, SaltChangesPlacement) {
  HashPartitioner a(16, 1), b(16, 2);
  size_t diff = 0;
  for (NodeId u = 0; u < 1000; ++u) diff += a.ServerOf(u) != b.ServerOf(u);
  EXPECT_GT(diff, 500u);
}

TEST(HashPartitionerTest, RoughlyBalanced) {
  HashPartitioner p(10);
  std::vector<int> counts(10, 0);
  for (NodeId u = 0; u < 10000; ++u) ++counts[p.ServerOf(u)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(PlacementCostTest, OneServerIsSumOfRates) {
  Graph g = GenerateErdosRenyi(40, 200, 1).ValueOrDie();
  Workload w = UniformWorkload(40, 2.0, 3.0);
  Schedule s = HybridSchedule(g, w);
  HashPartitioner one(1);
  // Every request touches exactly one server: cost = sum rp + sum rc.
  EXPECT_NEAR(PlacementAwareCost(g, w, s, one), 40 * (2.0 + 3.0), 1e-9);
}

TEST(PlacementCostTest, MoreServersNeverCheaper) {
  Graph g = GenerateErdosRenyi(60, 400, 2).ValueOrDie();
  Workload w = UniformWorkload(60, 1.0, 5.0);
  Schedule s = HybridSchedule(g, w);
  double prev = PlacementAwareCost(g, w, s, HashPartitioner(1));
  for (size_t servers : {2, 8, 64, 1024}) {
    double cost = PlacementAwareCost(g, w, s, HashPartitioner(servers));
    EXPECT_GE(cost, prev - 1e-9);
    prev = cost;
  }
}

TEST(PlacementCostTest, ConvergesToPlacementFreeCost) {
  // With far more servers than users, no two views share a server, so the
  // placement cost equals rate-weighted (1 + set size) sums.
  Graph g = GenerateErdosRenyi(30, 150, 3).ValueOrDie();
  Workload w = UniformWorkload(30, 1.0, 1.0);
  Schedule s = PushAllSchedule(g);
  double cost = PlacementAwareCost(g, w, s, HashPartitioner(1u << 20));
  double expected = 0;
  for (NodeId u = 0; u < 30; ++u) {
    expected += 1.0 * (1.0 + static_cast<double>(g.OutDegree(u)));  // updates
    expected += 1.0;                                                // own-view query
  }
  EXPECT_NEAR(cost, expected, expected * 0.01);
}

// ------------------------------------------------------------- ViewStore

TEST(ViewStoreTest, UpdateAndReadBack) {
  ViewStore store(0, 10);
  EventTuple e{1, 100, 5};
  std::vector<NodeId> views{7, 8};
  store.UpdateBatch(views, e);
  EXPECT_EQ(store.num_views(), 2u);
  EXPECT_EQ(store.ReadView(7).size(), 1u);
  EXPECT_EQ(store.ReadView(8)[0].event_id, 100u);
  EXPECT_TRUE(store.ReadView(9).empty());
  EXPECT_EQ(store.metrics().update_messages, 1u);
  EXPECT_EQ(store.metrics().view_writes, 2u);
}

TEST(ViewStoreTest, CapacityTrimsOldest) {
  ViewStore store(0, 3);
  std::vector<NodeId> views{1};
  for (uint64_t i = 1; i <= 5; ++i) {
    store.UpdateBatch(views, EventTuple{0, i, i});
  }
  auto view = store.ReadView(1);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0].event_id, 3u);  // 1 and 2 trimmed
  EXPECT_EQ(store.metrics().trimmed_events, 2u);
}

TEST(ViewStoreTest, UnboundedCapacityNeverTrims) {
  ViewStore store(0, 0);
  std::vector<NodeId> views{1};
  for (uint64_t i = 1; i <= 500; ++i) {
    store.UpdateBatch(views, EventTuple{0, i, i});
  }
  EXPECT_EQ(store.ReadView(1).size(), 500u);
  EXPECT_EQ(store.metrics().trimmed_events, 0u);
}

TEST(ViewStoreTest, QueryFiltersByInterest) {
  ViewStore store(0, 0);
  std::vector<NodeId> views{9};
  store.UpdateBatch(views, EventTuple{3, 1, 1});
  store.UpdateBatch(views, EventTuple{4, 2, 2});
  store.UpdateBatch(views, EventTuple{5, 3, 3});
  std::vector<NodeId> interest{3, 5};  // not following 4
  auto result = store.QueryBatch(views, interest, 10);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].producer, 5u);  // newest first
  EXPECT_EQ(result[1].producer, 3u);
}

TEST(ViewStoreTest, QueryReturnsTopKAcrossViews) {
  ViewStore store(0, 0);
  store.UpdateBatch(std::vector<NodeId>{1}, EventTuple{0, 1, 10});
  store.UpdateBatch(std::vector<NodeId>{2}, EventTuple{0, 2, 20});
  store.UpdateBatch(std::vector<NodeId>{1}, EventTuple{0, 3, 30});
  std::vector<NodeId> views{1, 2};
  std::vector<NodeId> interest{0};
  auto result = store.QueryBatch(views, interest, 2);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].event_id, 3u);
  EXPECT_EQ(result[1].event_id, 2u);
  EXPECT_EQ(store.metrics().query_messages, 1u);
  EXPECT_EQ(store.metrics().view_reads, 2u);
}

TEST(ViewStoreTest, UnfilteredQueryMatchesFilteredWithSupersetInterest) {
  // The unfiltered overload must be bit-identical to the filtered one
  // whenever the interest span covers every producer in the views — the
  // contract AppClient's schedule-implied membership fast path relies on.
  ViewStore store(0, 0);
  for (uint64_t i = 1; i <= 30; ++i) {
    store.UpdateBatch(std::vector<NodeId>{NodeId(i % 3)},
                      EventTuple{NodeId(i % 5), i, i});
  }
  std::vector<NodeId> views{0, 1, 2};
  std::vector<NodeId> all{0, 1, 2, 3, 4};
  auto filtered = store.QueryBatch(views, all, 7);
  auto unfiltered = store.QueryBatch(views, 7);
  EXPECT_EQ(filtered, unfiltered);
  EXPECT_EQ(store.metrics().query_messages, 2u);
  EXPECT_EQ(store.metrics().view_reads, 6u);
}

// The pre-ring view store: sorted vectors, insert in sorted position, then
// erase the front past the capacity. The ring must match it exactly.
class ReferenceViewStore {
 public:
  explicit ReferenceViewStore(size_t capacity) : capacity_(capacity) {}

  void UpdateBatch(const std::vector<NodeId>& views, const EventTuple& event) {
    for (NodeId owner : views) {
      std::vector<EventTuple>& view = views_[owner];
      auto pos = view.end();
      while (pos != view.begin() && NewerThan(*(pos - 1), event)) --pos;
      view.insert(pos, event);
      if (capacity_ > 0 && view.size() > capacity_) {
        view.erase(view.begin());
        ++trimmed_events;
      }
      ++view_writes;
    }
  }

  std::vector<EventTuple> QueryBatch(const std::vector<NodeId>& views,
                                     const std::vector<NodeId>* interest, size_t k) const {
    std::vector<EventTuple> candidates;
    for (NodeId owner : views) {
      auto it = views_.find(owner);
      if (it == views_.end()) continue;
      size_t taken = 0;
      for (auto e = it->second.rbegin(); e != it->second.rend() && taken < k; ++e) {
        if (interest == nullptr ||
            std::binary_search(interest->begin(), interest->end(), e->producer)) {
          candidates.push_back(*e);
          ++taken;
        }
      }
    }
    return TopKNewest(std::move(candidates), k);
  }

  std::vector<EventTuple> ReadView(NodeId owner) const {
    auto it = views_.find(owner);
    return it == views_.end() ? std::vector<EventTuple>{} : it->second;
  }

  uint64_t view_writes = 0;
  uint64_t trimmed_events = 0;

 private:
  size_t capacity_;
  std::map<NodeId, std::vector<EventTuple>> views_;
};

TEST(ViewStoreTest, RingMatchesInsertThenEraseReference) {
  constexpr NodeId kViews = 4;      // view owners 0..3; 9 is never written
  constexpr NodeId kProducers = 8;
  for (size_t capacity : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{128}}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    Rng rng(1000 + capacity);
    ViewStore ring(0, capacity);
    ReferenceViewStore ref(capacity);
    uint64_t clock = 100;
    uint64_t next_id = 1;
    std::vector<EventTuple> written;
    // Enough writes to wrap every view's ring several times, so the scans
    // below run at every head offset.
    const int ops = capacity == 128 ? 1500 : 400;
    for (int op = 0; op < ops; ++op) {
      EventTuple event{NodeId(rng.Uniform(kProducers)), next_id++, 0};
      switch (rng.Uniform(8)) {
        case 0:  // late: a concurrent writer delivers a slightly stale stamp
          event.timestamp = clock - rng.Uniform(6);
          break;
        case 1:  // older than anything a capped view still holds
          event.timestamp = rng.Uniform(50);
          break;
        case 2:  // an exact duplicate of an earlier event
          event = written.empty() ? EventTuple{event.producer, event.event_id, clock}
                                  : written[rng.Uniform(written.size())];
          break;
        case 3:  // a timestamp tie with a different event id
          event.timestamp = clock;
          break;
        default:  // in order
          event.timestamp = ++clock;
      }
      written.push_back(event);
      std::vector<NodeId> targets;
      for (NodeId v = 0; v < kViews; ++v) {
        if (rng.Bernoulli(0.6)) targets.push_back(v);
      }
      ring.UpdateBatch(targets, event);
      ref.UpdateBatch(targets, event);

      for (NodeId v = 0; v <= kViews; ++v) {
        ASSERT_EQ(ring.ReadView(v), ref.ReadView(v)) << "op " << op << " view " << v;
      }
      std::vector<NodeId> views{9};
      for (NodeId v = 0; v < kViews; ++v) {
        if (rng.Bernoulli(0.5)) views.push_back(v);
      }
      std::vector<NodeId> interest;
      for (NodeId p = 0; p < kProducers; ++p) {
        if (rng.Bernoulli(0.5)) interest.push_back(p);
      }
      for (size_t k : {size_t{1}, size_t{3}, size_t{10}, size_t{300}}) {
        ASSERT_EQ(ring.QueryBatch(views, interest, k), ref.QueryBatch(views, &interest, k))
            << "op " << op << " k " << k;
        ASSERT_EQ(ring.QueryBatch(views, k), ref.QueryBatch(views, nullptr, k))
            << "op " << op << " k " << k;
      }
      ASSERT_EQ(ring.metrics().view_writes, ref.view_writes) << "op " << op;
      ASSERT_EQ(ring.metrics().trimmed_events, ref.trimmed_events) << "op " << op;
    }
    if (capacity > 0) {
      EXPECT_GT(ref.trimmed_events, 3 * kViews * capacity);
    }
  }
}

// A query merges every server's batch, in sequence, into one bounded
// buffer. The result must be the servers' reference replies concatenated
// and passed through the sort-based TopKNewest: the same event stored in
// views on several servers is kept once, the floor a full buffer carries
// from earlier batches cuts later ones exactly, and view_reads counts every
// queried view, also one the floor skips.
TEST(ViewStoreTest, MultiBatchMergeMatchesConcatenatedReference) {
  constexpr uint32_t kServers = 3;
  constexpr NodeId kViews = 6;  // owner v lives on server v % kServers
  constexpr NodeId kProducers = 8;
  for (size_t capacity : {size_t{0}, size_t{1}, size_t{3}, size_t{128}}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    Rng rng(2000 + capacity);
    std::vector<ViewStore> rings;
    std::vector<ReferenceViewStore> refs;
    for (uint32_t s = 0; s < kServers; ++s) {
      rings.emplace_back(s, capacity);
      refs.emplace_back(capacity);
    }
    uint64_t clock = 100;
    uint64_t next_id = 1;
    std::vector<EventTuple> written;
    const int ops = capacity == 128 ? 900 : 300;
    for (int op = 0; op < ops; ++op) {
      EventTuple event{NodeId(rng.Uniform(kProducers)), next_id++, 0};
      switch (rng.Uniform(6)) {
        case 0:  // late
          event.timestamp = clock - rng.Uniform(6);
          break;
        case 1:  // an exact duplicate of an earlier event
          event = written.empty() ? EventTuple{event.producer, event.event_id, clock}
                                  : written[rng.Uniform(written.size())];
          break;
        case 2:  // a timestamp tie with a different event id
          event.timestamp = clock;
          break;
        default:
          event.timestamp = ++clock;
      }
      written.push_back(event);
      // One update message per server, so an event usually lands in views
      // on several servers.
      for (uint32_t s = 0; s < kServers; ++s) {
        std::vector<NodeId> targets;
        for (NodeId v = s; v < kViews; v += kServers) {
          if (rng.Bernoulli(0.6)) targets.push_back(v);
        }
        rings[s].UpdateBatch(targets, event);
        refs[s].UpdateBatch(targets, event);
      }

      std::vector<std::vector<NodeId>> views(kServers);
      std::vector<std::vector<NodeId>> interest(kServers);
      std::vector<bool> filtered(kServers);
      size_t num_views = 0;
      for (uint32_t s = 0; s < kServers; ++s) {
        for (NodeId v = s; v < kViews; v += kServers) {
          if (rng.Bernoulli(0.7)) views[s].push_back(v);
        }
        views[s].push_back(NodeId(kViews + s));  // never written
        num_views += views[s].size();
        filtered[s] = rng.Bernoulli(0.5);
        for (NodeId p = 0; p < kProducers; ++p) {
          if (rng.Bernoulli(0.6)) interest[s].push_back(p);
        }
      }
      for (size_t k : {size_t{1}, size_t{3}, size_t{10}, size_t{300}}) {
        std::vector<uint64_t> reads_before(kServers);
        for (uint32_t s = 0; s < kServers; ++s) {
          reads_before[s] = rings[s].metrics().view_reads;
        }
        NewestKMerge merge(k);
        std::vector<EventTuple> replies;
        for (uint32_t s = 0; s < kServers; ++s) {
          if (filtered[s]) {
            rings[s].QueryBatchInto(views[s], interest[s], &merge);
          } else {
            rings[s].QueryBatchInto(views[s], &merge);
          }
          std::vector<EventTuple> reply =
              refs[s].QueryBatch(views[s], filtered[s] ? &interest[s] : nullptr, k);
          replies.insert(replies.end(), reply.begin(), reply.end());
        }
        ASSERT_EQ(std::move(merge).Take(), TopKNewest(std::move(replies), k))
            << "op " << op << " k " << k;
        size_t reads = 0;
        for (uint32_t s = 0; s < kServers; ++s) {
          reads += rings[s].metrics().view_reads - reads_before[s];
        }
        ASSERT_EQ(reads, num_views) << "op " << op << " k " << k;
      }
    }
  }
}

TEST(TopKNewestTest, SortsAndTruncates) {
  std::vector<EventTuple> events{{0, 1, 5}, {0, 2, 9}, {0, 3, 1}, {0, 4, 9}};
  auto top = TopKNewest(events, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].event_id, 4u);  // ts 9, higher id wins tie
  EXPECT_EQ(top[1].event_id, 2u);
  EXPECT_EQ(top[2].event_id, 1u);
}

// ------------------------------------------------------------- AppClient

TEST(AppClientTest, OneServerMeansOneMessagePerRequest) {
  Graph g = GenerateErdosRenyi(20, 80, 4).ValueOrDie();
  Workload w = UniformWorkload(20, 1.0, 5.0);
  Schedule s = HybridSchedule(g, w);
  HashPartitioner part(1);
  std::vector<ViewStore> servers;
  servers.emplace_back(0, size_t{0});
  AppClient client(g, s, &part, &servers, 10);
  client.ShareEvent(3, 1, 1);
  client.QueryStream(5);
  client.ShareEvent(7, 2, 2);
  EXPECT_EQ(client.metrics().requests(), 3u);
  EXPECT_EQ(client.metrics().update_messages, 2u);
  EXPECT_EQ(client.metrics().query_messages, 1u);
  EXPECT_DOUBLE_EQ(client.metrics().MessagesPerRequest(), 1.0);
}

TEST(AppClientTest, PushDeliversToFollowerView) {
  // 0 -> 1 pushed: sharing by 0 must land in 1's view; 1's query sees it.
  Graph g = BuildGraph(2, {{0, 1}}).ValueOrDie();
  Schedule s;
  s.AddPush(0, 1);
  HashPartitioner part(4);
  std::vector<ViewStore> servers;
  for (uint32_t i = 0; i < 4; ++i) servers.emplace_back(i, size_t{0});
  AppClient client(g, s, &part, &servers, 10);
  client.ShareEvent(0, 42, 7);
  auto stream = client.QueryStream(1);
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0].event_id, 42u);
  EXPECT_EQ(stream[0].producer, 0u);
}

TEST(AppClientTest, PullReadsProducerView) {
  Graph g = BuildGraph(2, {{0, 1}}).ValueOrDie();
  Schedule s;
  s.AddPull(0, 1);  // 1 pulls from 0's view
  HashPartitioner part(4);
  std::vector<ViewStore> servers;
  for (uint32_t i = 0; i < 4; ++i) servers.emplace_back(i, size_t{0});
  AppClient client(g, s, &part, &servers, 10);
  client.ShareEvent(0, 43, 8);  // goes only to 0's own view
  auto stream = client.QueryStream(1);
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0].event_id, 43u);
}

TEST(AppClientTest, HubDeliversViaPiggyback) {
  // Figure 2 wiring: Art(0) pushes to Charlie(2); Billie(1) pulls from
  // Charlie. Billie must see Art's events without any direct 0->1 service.
  Graph g = BuildGraph(3, {{0, 2}, {2, 1}, {0, 1}}).ValueOrDie();
  Schedule s;
  s.AddPush(0, 2);
  s.AddPull(2, 1);
  s.SetHubCover(0, 1, 2);
  HashPartitioner part(8);
  std::vector<ViewStore> servers;
  for (uint32_t i = 0; i < 8; ++i) servers.emplace_back(i, size_t{0});
  AppClient client(g, s, &part, &servers, 10);
  client.ShareEvent(0, 99, 9);
  auto stream = client.QueryStream(1);
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0].producer, 0u);
  EXPECT_EQ(stream[0].event_id, 99u);
}

TEST(AppClientTest, HubDoesNotLeakUnfollowedProducers) {
  // 3 -> 2 (hub) pushed, 2 -> 1 pulled, but 1 does NOT follow 3.
  Graph g = BuildGraph(4, {{0, 2}, {2, 1}, {0, 1}, {3, 2}}).ValueOrDie();
  Schedule s;
  s.AddPush(0, 2);
  s.AddPush(3, 2);
  s.AddPull(2, 1);
  s.SetHubCover(0, 1, 2);
  HashPartitioner part(4);
  std::vector<ViewStore> servers;
  for (uint32_t i = 0; i < 4; ++i) servers.emplace_back(i, size_t{0});
  AppClient client(g, s, &part, &servers, 10);
  client.ShareEvent(3, 7, 1);  // producer 1 does not follow
  client.ShareEvent(0, 8, 2);
  auto stream = client.QueryStream(1);
  ASSERT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream[0].producer, 0u);
}

TEST(AppClientTest, CoveredViewAfterHubKeepsBatchFiltered) {
  // One server, so user 0's pulls form one batch: own view 0, hub view 3
  // (pushed by 1, which 0 follows, and by 4, which 0 does not) and view 5
  // (pushed by 2; every source followed). The covered view comes after the
  // hub, and the batch must stay filtered so 4's event cannot leak.
  Graph g = BuildGraph(6, {{1, 0}, {2, 0}, {3, 0}, {5, 0}, {1, 3}, {4, 3}, {2, 5}})
                .ValueOrDie();
  Schedule s;
  s.AddPush(1, 3);
  s.AddPush(4, 3);
  s.AddPush(2, 5);
  s.AddPull(3, 0);
  s.AddPull(5, 0);
  HashPartitioner part(1);
  std::vector<ViewStore> servers;
  servers.emplace_back(0, size_t{0});
  AppClient client(g, s, &part, &servers, 10);
  size_t batches = 0;
  client.ForEachPullBatch(0, [&](uint32_t, std::span<const NodeId>) { ++batches; });
  ASSERT_EQ(batches, 1u);
  EXPECT_FALSE(client.QueryFilterFree(0));
  const auto keep = client.KeepSet(0, 0);
  ASSERT_TRUE(keep.has_value());
  EXPECT_EQ(std::vector<NodeId>(keep->begin(), keep->end()),
            (std::vector<NodeId>{0, 1, 2, 3, 5}));
  client.ShareEvent(4, 7, 1);
  client.ShareEvent(1, 8, 2);
  client.ShareEvent(2, 9, 3);
  const auto stream = client.QueryStream(0);
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].producer, 2u);
  EXPECT_EQ(stream[1].producer, 1u);
}

TEST(AppClientTest, FilterFreePrecomputeMatchesScheduleShape) {
  // Pull-only wiring: every pulled view is its owner's own view and the
  // owner is followed, so queries are provably filter-free. Adding a hub
  // with an unfollowed pusher makes the hub's pullers filtered again.
  Graph g = BuildGraph(4, {{0, 2}, {2, 1}, {0, 1}, {3, 2}}).ValueOrDie();
  Schedule pull_only;
  pull_only.AddPull(0, 1);  // 1 pulls followee 0's own view
  pull_only.AddPull(2, 1);  // 1 pulls followee 2's own view
  HashPartitioner part(4);
  std::vector<ViewStore> servers;
  for (uint32_t i = 0; i < 4; ++i) servers.emplace_back(i, size_t{0});
  AppClient pull_client(g, pull_only, &part, &servers, 10);
  EXPECT_TRUE(pull_client.QueryFilterFree(1));

  Schedule hub;
  hub.AddPush(0, 2);
  hub.AddPush(3, 2);  // 3 is not followed by 1: hub view 2 can leak
  hub.AddPull(2, 1);
  std::vector<ViewStore> servers2;
  for (uint32_t i = 0; i < 4; ++i) servers2.emplace_back(i, size_t{0});
  AppClient hub_client(g, hub, &part, &servers2, 10);
  EXPECT_FALSE(hub_client.QueryFilterFree(1));
}

TEST(AppClientTest, StreamsMatchOracleOnHubsAndFastPaths) {
  // Every user shares one event, so u's stream must be the feed_size newest
  // of the events shared by {u} ∪ followees(u) — on filter-free queries and
  // on hub-filtered ones alike. Timestamps are a permutation of user ids so
  // the merge order is not the id order.
  constexpr size_t kUsers = 60;
  constexpr size_t kFeed = 10;
  Graph g = GenerateErdosRenyi(kUsers, 900, 5).ValueOrDie();
  Workload w = UniformWorkload(kUsers, 1.0, 5.0);
  auto event_of = [](NodeId v) {
    return EventTuple{v, uint64_t{v} + 1, (uint64_t{v} * 7) % kUsers + 1};
  };
  std::vector<std::pair<std::string, Schedule>> cases;
  cases.emplace_back("pull-all", PullAllSchedule(g));
  cases.emplace_back("hybrid", HybridSchedule(g, w));
  cases.emplace_back("chitchat", RunChitChat(g, w).ValueOrDie());
  for (const auto& [name, s] : cases) {
    SCOPED_TRACE(name);
    HashPartitioner part(4);
    std::vector<ViewStore> servers;
    for (uint32_t i = 0; i < 4; ++i) servers.emplace_back(i, size_t{0});
    AppClient client(g, s, &part, &servers, kFeed);
    for (NodeId u = 0; u < kUsers; ++u) {
      const EventTuple e = event_of(u);
      client.ShareEvent(u, e.event_id, e.timestamp);
    }
    size_t filtered = 0;
    for (NodeId u = 0; u < kUsers; ++u) {
      if (!client.QueryFilterFree(u)) ++filtered;
      std::vector<EventTuple> expect{event_of(u)};
      for (NodeId v : g.InNeighbors(u)) expect.push_back(event_of(v));
      KeepTopKNewest(&expect, kFeed);
      EXPECT_EQ(client.QueryStream(u), expect) << "user " << u;
    }
    // The hub schedule must exercise the filtered branch too.
    if (name == "chitchat") {
      EXPECT_GT(filtered, 0u);
    }
  }
}

TEST(AppClientTest, KeepSetStreamsMatchFullInterestMerge) {
  // Filtering each query batch by its keep set must return exactly what the
  // full interest set {u} ∪ followees(u) selects from the same views, on
  // every schedule shape and through trimming: shares arrive with permuted
  // and late timestamps, and after each burst every user's stream is
  // compared with the full-interest merge over the same server batches.
  constexpr size_t kUsers = 240;
  constexpr size_t kFeed = 10;
  Graph g = MakeFlickrLike(kUsers, 19).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  std::vector<std::pair<std::string, Schedule>> cases;
  cases.emplace_back("pull-all", PullAllSchedule(g));
  cases.emplace_back("hybrid", HybridSchedule(g, w));
  cases.emplace_back("chitchat", RunChitChat(g, w).ValueOrDie());
  cases.emplace_back("nosy",
                     MakePlanner("nosy").ValueOrDie()->Plan(g, w).MoveValueOrDie().schedule);
  size_t all_filtered = 0;
  size_t none_filtered = 0;
  size_t mixed = 0;
  for (const auto& [name, s] : cases) {
    for (size_t capacity : {size_t{0}, size_t{3}, size_t{128}}) {
      SCOPED_TRACE(testing::Message() << name << " capacity " << capacity);
      HashPartitioner part(3);
      std::vector<ViewStore> servers;
      for (uint32_t i = 0; i < 3; ++i) servers.emplace_back(i, capacity);
      AppClient client(g, s, &part, &servers, kFeed);
      std::vector<std::vector<NodeId>> interest(kUsers);
      for (NodeId u = 0; u < kUsers; ++u) {
        auto followees = g.InNeighbors(u);
        interest[u].assign(followees.begin(), followees.end());
        interest[u].push_back(u);
        std::sort(interest[u].begin(), interest[u].end());
        size_t batches = 0;
        size_t filtered = 0;
        client.ForEachPullBatch(u, [&](uint32_t, std::span<const NodeId>) {
          if (auto keep = client.KeepSet(u, batches)) {
            ++filtered;
            EXPECT_TRUE(std::includes(interest[u].begin(), interest[u].end(),
                                      keep->begin(), keep->end()));
          }
          ++batches;
        });
        EXPECT_EQ(client.QueryFilterFree(u), filtered == 0) << "user " << u;
        if (capacity == 0) {
          if (filtered == 0) {
            ++none_filtered;
          } else if (filtered == batches) {
            ++all_filtered;
          } else {
            ++mixed;
          }
        }
      }
      auto full_interest_merge = [&](NodeId u) {
        std::vector<EventTuple> merged;
        client.ForEachPullBatch(u, [&](uint32_t server, std::span<const NodeId> views) {
          std::vector<EventTuple> reply =
              servers[server].QueryBatch(views, interest[u], kFeed);
          merged.insert(merged.end(), reply.begin(), reply.end());
        });
        KeepTopKNewest(&merged, kFeed);
        return merged;
      };
      Rng rng(capacity + 7);
      uint64_t event_id = 1;
      uint64_t clock = 1000;
      for (int burst = 0; burst < 4; ++burst) {
        // The burst's timestamps are a permutation of its time slots; every
        // fourth share is late, stamped before the burst began.
        constexpr size_t kShares = 400;
        std::vector<uint64_t> stamps(kShares);
        std::iota(stamps.begin(), stamps.end(), clock);
        rng.Shuffle(stamps);
        for (uint64_t stamp : stamps) {
          const uint64_t ts = rng.Uniform(4) == 0 ? 1 + rng.Uniform(clock - 1) : stamp;
          client.ShareEvent(static_cast<NodeId>(rng.Uniform(kUsers)), event_id++, ts);
        }
        clock += kShares;
        for (NodeId u = 0; u < kUsers; ++u) {
          ASSERT_EQ(client.QueryStream(u), full_interest_merge(u))
              << "user " << u << " after burst " << burst;
        }
      }
    }
  }
  // Every kind of user occurs: all batches filtered, none, and a mix.
  EXPECT_GT(all_filtered, 0u);
  EXPECT_GT(none_filtered, 0u);
  EXPECT_GT(mixed, 0u);
}

TEST(AppClientTest, StripedCountersAreExactUnderConcurrency) {
  // Threads share and query on one client at once; once they join, the
  // counters hold the exact totals, and after a reset they count anew.
  constexpr size_t kUsers = 120;
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 1500;
  Graph g = MakeFlickrLike(kUsers, 23).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  Schedule s = RunChitChat(g, w).ValueOrDie();
  HashPartitioner part(4);
  std::vector<ViewStore> servers;
  for (uint32_t i = 0; i < 4; ++i) servers.emplace_back(i, size_t{16});
  AppClient client(g, s, &part, &servers, 10);
  std::vector<uint64_t> push_batches(kUsers, 0);
  std::vector<uint64_t> pull_batches(kUsers, 0);
  for (NodeId u = 0; u < kUsers; ++u) {
    client.ForEachPushBatch(u, [&](uint32_t, auto) { ++push_batches[u]; });
    client.ForEachPullBatch(u, [&](uint32_t, auto) { ++pull_batches[u]; });
  }
  // Runs one round of traffic and returns the totals it must have counted.
  auto run_round = [&](uint64_t seed) {
    std::vector<ClientMetrics> expect(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(seed * 100 + t);
        for (size_t i = 0; i < kOpsPerThread; ++i) {
          const NodeId u = static_cast<NodeId>(rng.Uniform(kUsers));
          if (rng.Bernoulli(0.3)) {
            client.ShareEvent(u, seed * 1000000 + t * kOpsPerThread + i, i + 1);
            ++expect[t].share_requests;
            expect[t].update_messages += push_batches[u];
          } else {
            client.QueryStream(u);
            ++expect[t].query_requests;
            expect[t].query_messages += pull_batches[u];
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    ClientMetrics total;
    for (const ClientMetrics& m : expect) {
      total.share_requests += m.share_requests;
      total.query_requests += m.query_requests;
      total.update_messages += m.update_messages;
      total.query_messages += m.query_messages;
    }
    return total;
  };
  auto expect_equal = [](const ClientMetrics& got, const ClientMetrics& want) {
    EXPECT_EQ(got.share_requests, want.share_requests);
    EXPECT_EQ(got.query_requests, want.query_requests);
    EXPECT_EQ(got.update_messages, want.update_messages);
    EXPECT_EQ(got.query_messages, want.query_messages);
  };
  expect_equal(client.metrics(), run_round(1));
  client.ResetMetrics();
  expect_equal(client.metrics(), ClientMetrics{});
  expect_equal(client.metrics(), run_round(2));
}

TEST(AppClientTest, BatchesAreAStableGroupingByServer) {
  // Hub schedules put many views in one request; each share and query must
  // send exactly the stable grouping of its view list by ServerOf (ascending
  // server, list order within a server), one message per server.
  Graph g = GenerateErdosRenyi(60, 900, 5).ValueOrDie();
  Workload w = UniformWorkload(60, 1.0, 5.0);
  Schedule s = RunChitChat(g, w).ValueOrDie();
  size_t hubs = 0;
  s.ForEachHubCover([&](auto, NodeId) { ++hubs; });
  ASSERT_GT(hubs, 0u);
  for (size_t num_servers : {size_t{1}, size_t{2}, size_t{7}}) {
    SCOPED_TRACE(testing::Message() << num_servers << " servers");
    HashPartitioner part(num_servers);
    std::vector<ViewStore> servers;
    for (uint32_t i = 0; i < num_servers; ++i) servers.emplace_back(i, size_t{0});
    AppClient client(g, s, &part, &servers, 10);
    using Batches = std::vector<std::pair<uint32_t, std::vector<NodeId>>>;
    auto stable_grouping = [&](std::span<const NodeId> views) {
      std::vector<std::pair<uint32_t, NodeId>> placed;
      for (NodeId v : views) placed.emplace_back(part.ServerOf(v), v);
      std::stable_sort(placed.begin(), placed.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      Batches batches;
      for (const auto& [server, view] : placed) {
        if (batches.empty() || batches.back().first != server) {
          batches.emplace_back(server, std::vector<NodeId>{});
        }
        batches.back().second.push_back(view);
      }
      return batches;
    };
    auto server_metrics = [&] {
      std::vector<ServerMetrics> m;
      for (const ViewStore& server : servers) m.push_back(server.metrics());
      return m;
    };
    for (NodeId u = 0; u < 60; ++u) {
      Batches sent;
      client.ForEachPushBatch(u, [&](uint32_t server, std::span<const NodeId> views) {
        sent.emplace_back(server, std::vector<NodeId>(views.begin(), views.end()));
      });
      const Batches push = stable_grouping(client.PushViews(u));
      ASSERT_EQ(sent, push) << "share of " << u;
      sent.clear();
      client.ForEachPullBatch(u, [&](uint32_t server, std::span<const NodeId> views) {
        sent.emplace_back(server, std::vector<NodeId>(views.begin(), views.end()));
      });
      const Batches pull = stable_grouping(client.PullViews(u));
      ASSERT_EQ(sent, pull) << "query of " << u;

      // The requests themselves: one message per batch, to its server,
      // touching exactly the batch's views.
      const ClientMetrics before = client.metrics();
      std::vector<ServerMetrics> was = server_metrics();
      client.ShareEvent(u, u + 1, u + 1);
      std::vector<ServerMetrics> now = server_metrics();
      EXPECT_EQ(client.metrics().update_messages - before.update_messages, push.size());
      uint64_t messages = 0;
      for (size_t i = 0; i < num_servers; ++i) {
        messages += now[i].update_messages - was[i].update_messages;
      }
      EXPECT_EQ(messages, push.size());
      for (const auto& [server, views] : push) {
        EXPECT_EQ(now[server].update_messages - was[server].update_messages, 1u);
        EXPECT_EQ(now[server].view_writes - was[server].view_writes, views.size());
      }

      was = now;
      client.QueryStream(u);
      now = server_metrics();
      EXPECT_EQ(client.metrics().query_messages - before.query_messages, pull.size());
      messages = 0;
      for (size_t i = 0; i < num_servers; ++i) {
        messages += now[i].query_messages - was[i].query_messages;
      }
      EXPECT_EQ(messages, pull.size());
      for (const auto& [server, views] : pull) {
        EXPECT_EQ(now[server].query_messages - was[server].query_messages, 1u);
        EXPECT_EQ(now[server].view_reads - was[server].view_reads, views.size());
      }
    }
  }
}

TEST(AppClientTest, ViewListsIncludeOwnView) {
  Graph g = BuildGraph(2, {{0, 1}}).ValueOrDie();
  Schedule s;
  s.AddPush(0, 1);
  HashPartitioner part(2);
  std::vector<ViewStore> servers;
  servers.emplace_back(0, size_t{0});
  servers.emplace_back(1, size_t{0});
  AppClient client(g, s, &part, &servers, 10);
  ASSERT_EQ(client.PushViews(0).size(), 2u);
  EXPECT_EQ(client.PushViews(0)[0], 0u);
  EXPECT_EQ(client.PushViews(0)[1], 1u);
  ASSERT_EQ(client.PullViews(1).size(), 1u);
  EXPECT_EQ(client.PullViews(1)[0], 1u);
}

}  // namespace
}  // namespace piggy
