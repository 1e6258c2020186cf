// The deployment under test: one FeedService, or a sharded ClusterService,
// seen through the same small surface by the drivers, checks and peels.

#pragma once

#include <memory>

#include "bench.h"
#include "cluster/cluster_service.h"
#include "store/feed_service.h"

namespace perfbench {

struct Deployment {
  std::unique_ptr<piggy::FeedService> feed;
  std::unique_ptr<piggy::ClusterService> cluster;

  Endpoint MakeEndpoint() {
    Endpoint ep;
    if (cluster != nullptr) {
      piggy::ClusterService* c = cluster.get();
      ep.share = [c](NodeId u) { return c->Share(u); };
      ep.query = [c](NodeId u) { return c->QueryStream(u); };
      ep.follow = [c](NodeId f, NodeId p) { return c->Follow(f, p); };
      ep.unfollow = [c](NodeId f, NodeId p) { return c->Unfollow(f, p); };
    } else {
      piggy::FeedService* s = feed.get();
      ep.share = [s](NodeId u) { return s->Share(u); };
      ep.query = [s](NodeId u) { return s->QueryStream(u); };
      ep.follow = [s](NodeId f, NodeId p) { return s->Follow(f, p); };
      ep.unfollow = [s](NodeId f, NodeId p) { return s->Unfollow(f, p); };
    }
    return ep;
  }

  size_t num_shards() const { return cluster ? cluster->num_shards() : 1; }
  piggy::FeedService& shard(size_t s) { return cluster ? cluster->shard(s) : *feed; }
  uint32_t ShardOf(NodeId u) const {
    return cluster ? cluster->shard_map().ShardOf(u) : 0;
  }
  NodeId LocalId(NodeId u) const {
    return cluster ? cluster->shard_map().LocalId(u) : u;
  }
  NodeId GlobalId(uint32_t s, NodeId local) const {
    return cluster ? cluster->shard_map().GlobalId(s, local) : local;
  }

  Status Validate() const { return cluster ? cluster->Validate() : feed->Validate(); }
  /// (schedule cost, hybrid cost) under `w`.
  std::pair<double, double> Costs(const piggy::Workload& w) const {
    return cluster ? cluster->CostsUnder(w) : feed->CostsUnder(w);
  }
};

/// The layer peel of a traced run: times calls into each layer below the
/// serving boundary for sampled users, from the benchmark's own code, and
/// sets the store.* / cluster.router_* / trace.*_reconcile_err metrics.
/// Shares issued at the boundary are recorded in `oracle`. Fails when the
/// layer self times do not add up to the boundary median within tolerance.
Status PeelLayers(Deployment& d, const piggy::Workload& w, Oracle& oracle,
                  uint64_t seed, MetricSet* out, size_t* attempted);

}  // namespace perfbench
