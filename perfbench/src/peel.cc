// The layer peel of a traced run. Below the serving boundary every layer is
// reached through its public API on a private copy of the serving plane
// (same graph snapshot, schedule and event log as the live one), so the
// live service never sees a request twice:
//
//   query: [ClusterService::QueryStream] -> FeedService::QueryStream ->
//          Prototype::QueryStream -> AppClient::QueryStream ->
//          ViewStore::QueryBatch over PullViews grouped by ServerOf
//   share: [ClusterService::Share] -> FeedService::Share ->
//          Prototype::ShareEvent -> ViewStore::UpdateBatch over PushViews
//
// Each sampled user first touches both planes untimed, then goes through
// every layer once, in an order rotated per sample, so every timed call
// finds the user's data equally warm. A
// layer's self time is its call time minus the next layer's, per sample; the
// cluster's shard share time comes from the shard's own feed.share_us
// histogram, because calling the shard directly would apply the share twice.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "deployment.h"
#include "obs/metrics.h"
#include "store/prototype.h"
#include "util/alias_table.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using piggy::FeedService;
using piggy::Prototype;

constexpr size_t kQuerySamples = 4000;
constexpr size_t kShareSamples = 2000;
// Self times are medians of per-sample differences; their sum departs from
// the boundary median by the skew of each layer's own distribution.
constexpr double kReconcileTolerance = 0.25;

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct PlaneCounters {
  uint64_t view_writes = 0;
  uint64_t view_reads = 0;
  uint64_t update_messages = 0;
  uint64_t query_messages = 0;
};

PlaneCounters ReadCounters(Prototype& p) {
  PlaneCounters c;
  for (const piggy::ViewStore& s : p.servers()) {
    const piggy::ServerMetrics m = s.metrics();
    c.view_writes += m.view_writes;
    c.view_reads += m.view_reads;
  }
  const piggy::ClientMetrics cm = p.client().metrics();
  c.update_messages = cm.update_messages;
  c.query_messages = cm.query_messages;
  return c;
}

// Views grouped by hosting server, in the order AppClient sends them.
std::vector<std::pair<uint32_t, std::vector<NodeId>>> GroupByServer(
    const Prototype& p, std::span<const NodeId> views) {
  std::vector<std::pair<uint32_t, NodeId>> placed;
  for (NodeId v : views) placed.emplace_back(p.partitioner().ServerOf(v), v);
  std::stable_sort(placed.begin(), placed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<uint32_t, std::vector<NodeId>>> batches;
  for (const auto& [server, view] : placed) {
    if (batches.empty() || batches.back().first != server) {
      batches.emplace_back(server, std::vector<NodeId>{});
    }
    batches.back().second.push_back(view);
  }
  return batches;
}

// Time spent inside ViewStore::QueryBatch for one query of `u`; the merged
// top-k goes to `merged` for the cross-layer consistency check.
double ViewQueryUs(Prototype& p, NodeId u, std::vector<EventTuple>* merged) {
  const size_t k = p.options().feed_size;
  const bool filtered = !p.client().QueryFilterFree(u);
  std::vector<NodeId> interest;
  if (filtered) {
    const auto followees = p.graph().InNeighbors(u);
    interest.assign(followees.begin(), followees.end());
    interest.push_back(u);
    std::sort(interest.begin(), interest.end());
  }
  std::vector<EventTuple> all;
  double us = 0;
  for (const auto& [server, views] : GroupByServer(p, p.client().PullViews(u))) {
    piggy::ViewStore& store = p.servers()[server];
    const Clock::time_point t0 = Clock::now();
    std::vector<EventTuple> part = filtered ? store.QueryBatch(views, interest, k)
                                            : store.QueryBatch(views, k);
    us += UsBetween(t0, Clock::now());
    all.insert(all.end(), part.begin(), part.end());
  }
  *merged = piggy::TopKNewest(std::move(all), k);
  return us;
}

// Time spent inside ViewStore::UpdateBatch writing one event of `u` to its
// push views.
double ViewWriteUs(Prototype& p, NodeId u, uint64_t event_id) {
  const EventTuple event{u, event_id, event_id};
  double us = 0;
  for (const auto& [server, views] : GroupByServer(p, p.client().PushViews(u))) {
    piggy::ViewStore& store = p.servers()[server];
    const Clock::time_point t0 = Clock::now();
    store.UpdateBatch(views, event);
    us += UsBetween(t0, Clock::now());
  }
  return us;
}

// Medians of the per-sample self times of a layer chain, and how far their
// sum lies from the boundary's median (relative).
struct ChainStats {
  std::vector<double> self_median;
  double boundary_median = 0;
  double reconcile_err = 0;
};

ChainStats Reconcile(const std::vector<std::vector<double>>& t) {
  ChainStats s;
  double sum = 0;
  for (size_t layer = 0; layer < t.size(); ++layer) {
    std::vector<double> self(t[layer].size());
    for (size_t i = 0; i < self.size(); ++i) {
      self[i] = t[layer][i] - (layer + 1 < t.size() ? t[layer + 1][i] : 0.0);
    }
    s.self_median.push_back(Median(std::move(self)));
    sum += s.self_median.back();
  }
  s.boundary_median = Median(t[0]);
  s.reconcile_err =
      s.boundary_median > 0 ? std::abs(sum - s.boundary_median) / s.boundary_median : 0;
  return s;
}

std::vector<NodeId> SampleUsers(const Deployment& d, const std::vector<double>& rates,
                                uint32_t shard, size_t n, piggy::Rng& rng) {
  const piggy::AliasTable table(rates);
  std::vector<NodeId> users;
  while (users.size() < n) {
    const NodeId u = table.Sample(rng);
    if (d.ShardOf(u) == shard) users.push_back(u);
  }
  return users;
}

}  // namespace

Status PeelLayers(Deployment& d, const piggy::Workload& w, Oracle& oracle,
                  uint64_t seed, MetricSet* out, size_t* attempted) {
  // The store layers are peeled on one shard: the one with the most users.
  uint32_t store_shard = 0;
  if (d.cluster) {
    for (uint32_t s = 1; s < d.num_shards(); ++s) {
      if (d.cluster->shard_map().Members(s).size() >
          d.cluster->shard_map().Members(store_shard).size()) {
        store_shard = s;
      }
    }
  }
  FeedService& svc = d.shard(store_shard);

  PIGGY_ASSIGN_OR_RETURN(piggy::Graph snapshot, svc.graph().Snapshot());
  PIGGY_ASSIGN_OR_RETURN(Prototype * live, svc.ServingPlane());
  const std::vector<EventTuple> log = live->EventLog();
  Clock::time_point t0 = Clock::now();
  PIGGY_ASSIGN_OR_RETURN(std::unique_ptr<Prototype> plane,
                         Prototype::Create(snapshot, svc.schedule(),
                                           svc.options().prototype));
  const double build_ms = UsBetween(t0, Clock::now()) / 1e3;
  t0 = Clock::now();
  PIGGY_RETURN_NOT_OK(plane->RestoreEvents(log));
  const double restore_ms = UsBetween(t0, Clock::now()) / 1e3;
  out->Set("store.plane_build_ms", build_ms, "ms");
  out->Set("store.restore_events_ms", restore_ms, "ms");
  out->Set("store.event_log_mb",
           static_cast<double>(log.size() * sizeof(EventTuple)) / 1e6, "MB");
  out->Set("store.interest_bytes_per_edge",
           snapshot.num_edges() > 0 ? static_cast<double>(plane->client().InterestBytes()) /
                                          static_cast<double>(snapshot.num_edges())
                                    : 0.0,
           "B");

  piggy::Rng rng(piggy::Mix64(seed ^ 0x9ee1ULL));
  const bool routed = d.cluster != nullptr;

  // ---- query chain: [router], feed service, prototype, client, views ----
  {
    const std::vector<NodeId> users =
        SampleUsers(d, w.consumption, store_shard, kQuerySamples, rng);
    const size_t layers = routed ? 5 : 4;
    std::vector<std::vector<double>> t(layers, std::vector<double>(users.size()));
    PlaneCounters plane_delta;
    size_t filter_free = 0;
    for (size_t i = 0; i < users.size(); ++i) {
      const NodeId u = users[i];
      const NodeId local = d.LocalId(u);
      std::vector<EventTuple> shard_feed, proto, client, views;
      // Untimed first touch of the live and the private plane, so every
      // timed call below finds the user's data equally warm.
      ++*attempted;
      Result<std::vector<EventTuple>> warm =
          routed ? d.cluster->QueryStream(u) : svc.QueryStream(local);
      if (!warm.ok()) return warm.status();
      plane->QueryStream(local);
      for (size_t j = 0; j < layers; ++j) {
        const size_t layer = (i + j) % layers;
        const size_t depth = routed ? layer : layer + 1;  // 0 = router
        Clock::time_point start = Clock::now();
        double us = 0;
        if (depth == 0 || depth == 1) {
          auto r = depth == 0 ? d.cluster->QueryStream(u) : svc.QueryStream(local);
          us = UsBetween(start, Clock::now());
          ++*attempted;
          if (!r.ok()) return r.status();
          if (depth == 1) shard_feed = std::move(r).MoveValueOrDie();
        } else if (depth == 2) {
          const PlaneCounters before = ReadCounters(*plane);
          start = Clock::now();
          proto = plane->QueryStream(local);
          us = UsBetween(start, Clock::now());
          const PlaneCounters after = ReadCounters(*plane);
          plane_delta.view_reads += after.view_reads - before.view_reads;
          plane_delta.query_messages += after.query_messages - before.query_messages;
        } else if (depth == 3) {
          client = plane->client().QueryStream(local);
          us = UsBetween(start, Clock::now());
        } else {
          us = ViewQueryUs(*plane, local, &views);
        }
        t[layer][i] = us;
      }
      if (shard_feed != proto || proto != client || client != views) {
        return Status::Internal(piggy::StrFormat(
            "layers disagree on the feed of user %u (service %zu, prototype "
            "%zu, client %zu, views %zu events)",
            u, shard_feed.size(), proto.size(), client.size(), views.size()));
      }
      if (plane->client().QueryFilterFree(local)) ++filter_free;
    }
    const ChainStats q = Reconcile(t);
    const size_t feed_layer = routed ? 1 : 0;
    out->Set("cluster.router_query_self_us", routed ? q.self_median[0] : 0.0, "us");
    out->Set("store.feed_query_self_us", q.self_median[feed_layer], "us");
    out->Set("store.client_query_us_p50", Median(t[feed_layer + 2]), "us");
    out->Set("store.view_query_us_p50", Median(t[feed_layer + 3]), "us");
    out->Set("store.filter_free_frac",
             static_cast<double>(filter_free) / static_cast<double>(users.size()), "ratio");
    out->Set("store.view_reads_per_query",
             static_cast<double>(plane_delta.view_reads) / static_cast<double>(users.size()),
             "count");
    out->Set("store.query_msgs_per_query",
             static_cast<double>(plane_delta.query_messages) /
                 static_cast<double>(users.size()),
             "count");
    out->Set("trace.query_reconcile_err", q.reconcile_err, "ratio");
    std::printf("# query peel: boundary p50 %.3f us, self medians", q.boundary_median);
    for (double s : q.self_median) std::printf(" %.3f", s);
    std::printf(" us, reconcile error %.3f\n", q.reconcile_err);
    if (q.reconcile_err > kReconcileTolerance) {
      return Status::Internal(piggy::StrFormat(
          "query layer self times miss the boundary median by %.1f%% (tolerance %.0f%%)",
          q.reconcile_err * 100, kReconcileTolerance * 100));
    }
  }

  // ---- share chain: [router], feed service, prototype, views ----
  {
    const std::vector<NodeId> users =
        SampleUsers(d, w.production, store_shard, kShareSamples, rng);
    piggy::obs::Histogram& shard_share = svc.registry().GetHistogram("feed.share_us");
    // Only the timed boundary shares count: slots are read around each.
    std::vector<uint64_t> slots(shard_share.MergedSlots().size(), 0);
    std::vector<std::vector<double>> t(3, std::vector<double>(users.size()));
    PlaneCounters plane_delta;
    // Ids far above any the service assigns: the private plane only.
    uint64_t scratch_id = uint64_t{1} << 62;
    for (size_t i = 0; i < users.size(); ++i) {
      const NodeId u = users[i];
      const NodeId local = d.LocalId(u);
      // Untimed first touch, as for queries: one more acked share, and one
      // on the private plane.
      ++*attempted;
      PIGGY_RETURN_NOT_OK(routed ? d.cluster->Share(u) : svc.Share(local));
      oracle.Acked(u);
      plane->ShareEvent(local);
      for (size_t j = 0; j < 3; ++j) {
        const size_t layer = (i + j) % 3;
        if (layer == 0) {
          const std::vector<uint64_t> before = shard_share.MergedSlots();
          const Clock::time_point start = Clock::now();
          Status st = routed ? d.cluster->Share(u) : svc.Share(local);
          t[0][i] = UsBetween(start, Clock::now());
          const std::vector<uint64_t> after = shard_share.MergedSlots();
          for (size_t k = 0; k < slots.size(); ++k) slots[k] += after[k] - before[k];
          ++*attempted;
          PIGGY_RETURN_NOT_OK(st);
          oracle.Acked(u);
        } else if (layer == 1) {
          const PlaneCounters before = ReadCounters(*plane);
          const Clock::time_point start = Clock::now();
          plane->ShareEvent(local);
          t[1][i] = UsBetween(start, Clock::now());
          const PlaneCounters after = ReadCounters(*plane);
          plane_delta.view_writes += after.view_writes - before.view_writes;
          plane_delta.update_messages += after.update_messages - before.update_messages;
        } else {
          t[2][i] = ViewWriteUs(*plane, local, scratch_id++);
        }
      }
    }
    const double shard_p50 = SlotPercentile(shard_share, slots, 0.5);
    const ChainStats s = Reconcile(t);
    const double plane_p50 = Median(t[1]);
    // With a router, the boundary's self time is its median over the shard's.
    const double router_self = routed ? s.boundary_median - shard_p50 : 0.0;
    const double feed_self = routed ? shard_p50 - plane_p50 : s.self_median[0];
    const double sum = router_self + feed_self + s.self_median[1] + s.self_median[2];
    const double err = s.boundary_median > 0
                           ? std::abs(sum - s.boundary_median) / s.boundary_median
                           : 0;
    out->Set("cluster.router_share_self_us", router_self, "us");
    out->Set("store.plane_share_us_p50", plane_p50, "us");
    out->Set("store.view_writes_per_share",
             static_cast<double>(plane_delta.view_writes) / static_cast<double>(users.size()),
             "count");
    out->Set("store.update_msgs_per_share",
             static_cast<double>(plane_delta.update_messages) /
                 static_cast<double>(users.size()),
             "count");
    out->Set("trace.share_reconcile_err", err, "ratio");
    std::printf(
        "# share peel: boundary p50 %.3f us, router %.3f feed %.3f prototype %.3f "
        "views %.3f us, reconcile error %.3f\n",
        s.boundary_median, router_self, feed_self, s.self_median[1], s.self_median[2], err);
    if (err > kReconcileTolerance) {
      return Status::Internal(piggy::StrFormat(
          "share layer self times miss the boundary median by %.1f%% (tolerance %.0f%%)",
          err * 100, kReconcileTolerance * 100));
    }
  }
  return Status::OK();
}

}  // namespace perfbench
