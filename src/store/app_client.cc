#include "store/app_client.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace piggy {

namespace {

// True iff sorted `sub` is a subset of sorted `super`.
bool SortedSubset(std::span<const NodeId> sub, std::span<const NodeId> super) {
  if (sub.size() > super.size()) return false;
  auto it = super.begin();
  for (NodeId v : sub) {
    it = std::lower_bound(it, super.end(), v);
    if (it == super.end() || *it != v) return false;
    ++it;
  }
  return true;
}

}  // namespace

AppClient::AppClient(const Graph& graph, const Schedule& schedule,
                     const Partitioner* partitioner, std::vector<ViewStore>* servers,
                     size_t feed_size)
    : graph_(graph), partitioner_(partitioner), servers_(servers), feed_size_(feed_size) {
  PIGGY_CHECK(partitioner_ != nullptr);
  PIGGY_CHECK(servers_ != nullptr);
  PIGGY_CHECK_EQ(servers_->size(), partitioner_->num_servers());

  const size_t n = graph.num_nodes();
  push_views_ = schedule.BuildPushSets(n);
  pull_views_ = schedule.BuildPullSets(n);
  interest_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    // Own view first in both lists (updates and queries always touch it).
    push_views_[u].insert(push_views_[u].begin(), u);
    pull_views_[u].insert(pull_views_[u].begin(), u);
    auto followees = graph.InNeighbors(u);
    interest_[u].reserve(followees.size() + 1);
    interest_[u].assign(followees.begin(), followees.end());
    auto it = std::lower_bound(interest_[u].begin(), interest_[u].end(), u);
    interest_[u].insert(it, u);
  }
  // Schedule-implied membership: view w can only ever contain events from
  // producers whose push set includes w. When that producer set is a subset
  // of interest[u] for every view u pulls, the query-side interest filter is
  // an identity — mark u filter-free and its queries skip the filter
  // entirely. Covers the common non-hub pulls: own views and followee-owned
  // views.
  std::vector<std::vector<NodeId>> sources(n);
  for (NodeId u = 0; u < n; ++u) {
    // Ascending u keeps every sources[w] sorted.
    for (NodeId w : push_views_[u]) sources[w].push_back(u);
  }
  filter_free_.assign(n, 1);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId w : pull_views_[u]) {
      if (!SortedSubset(sources[w], interest_[u])) {
        filter_free_[u] = 0;
        break;
      }
    }
  }

  // The placement is fixed for this client's lifetime: group every request's
  // views by server once, here, instead of per request.
  std::vector<uint32_t> server_of(n);
  for (NodeId v = 0; v < n; ++v) server_of[v] = partitioner_->ServerOf(v);
  push_batches_ = BatchPlan::Build(push_views_, server_of, servers_->size());
  pull_batches_ = BatchPlan::Build(pull_views_, server_of, servers_->size());

  interest_bytes_ = interest_.size() * sizeof(std::vector<NodeId>);
  for (const std::vector<NodeId>& list : interest_) {
    interest_bytes_ += list.capacity() * sizeof(NodeId);
  }
}

AppClient::BatchPlan AppClient::BatchPlan::Build(
    const std::vector<std::vector<NodeId>>& lists, const std::vector<uint32_t>& server_of,
    size_t num_servers) {
  BatchPlan plan;
  size_t total = 0;
  for (const std::vector<NodeId>& list : lists) total += list.size();
  PIGGY_CHECK_LE(total, size_t{UINT32_MAX});
  plan.views.resize(total);
  plan.batches.reserve(total);  // at most one batch per view
  plan.first.reserve(lists.size() + 1);
  plan.first.push_back(0);
  // A stable counting sort of each list by server: count the views per
  // server, marking each touched server in a bitmap; walk the marked
  // servers in ascending order to turn the counts into write cursors; then
  // place the views in list order. The walk covers only the bitmap words
  // between the lowest and highest touched server, and only touched
  // servers are reset, so the cost follows the list, not the fleet.
  std::vector<uint32_t> cursor(num_servers, 0);
  std::vector<uint64_t> touched((num_servers + 63) / 64, 0);
  uint32_t pos = 0;
  for (const std::vector<NodeId>& list : lists) {
    const size_t first_batch = plan.batches.size();
    size_t lo = touched.size();
    size_t hi = 0;
    for (NodeId v : list) {
      const uint32_t server = server_of[v];
      if (cursor[server]++ == 0) {
        touched[server / 64] |= uint64_t{1} << (server % 64);
        lo = std::min<size_t>(lo, server / 64);
        hi = std::max<size_t>(hi, server / 64);
      }
    }
    for (size_t w = lo; w <= hi; ++w) {
      for (uint64_t bits = std::exchange(touched[w], 0); bits != 0; bits &= bits - 1) {
        const uint32_t server = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        const uint32_t count = cursor[server];
        plan.batches.push_back({server, pos, pos + count});
        cursor[server] = pos;
        pos += count;
      }
    }
    for (NodeId v : list) plan.views[cursor[server_of[v]]++] = v;
    for (size_t b = first_batch; b < plan.batches.size(); ++b) {
      cursor[plan.batches[b].server] = 0;
    }
    plan.first.push_back(static_cast<uint32_t>(plan.batches.size()));
  }
  return plan;
}

void AppClient::ShareEvent(NodeId u, uint64_t event_id, uint64_t timestamp) {
  PIGGY_CHECK_LT(u, push_views_.size());
  share_requests_.fetch_add(1, std::memory_order_relaxed);
  const EventTuple event{u, event_id, timestamp};
  push_batches_.ForEach(u, [&](uint32_t server, std::span<const NodeId> views) {
    (*servers_)[server].UpdateBatch(views, event);
  });
  update_messages_.fetch_add(push_batches_.NumBatches(u), std::memory_order_relaxed);
}

std::vector<EventTuple> AppClient::QueryStream(NodeId u) {
  PIGGY_CHECK_LT(u, pull_views_.size());
  query_requests_.fetch_add(1, std::memory_order_relaxed);
  // Filter-free users (schedule-implied membership, see the constructor)
  // skip the interest filter; filtered users read interest_[u] directly.
  // The merge buffer is thread_local, not per-call: each serving thread
  // owning one buffer keeps concurrent queries allocation-free and
  // race-free (it never escapes this call; the result is a copy).
  const bool filtered = filter_free_[u] == 0;
  static thread_local std::vector<EventTuple> merged;
  merged.clear();
  pull_batches_.ForEach(u, [&](uint32_t server, std::span<const NodeId> views) {
    ViewStore& store = (*servers_)[server];
    std::vector<EventTuple> part = filtered ? store.QueryBatch(views, interest_[u], feed_size_)
                                            : store.QueryBatch(views, feed_size_);
    merged.insert(merged.end(), part.begin(), part.end());
  });
  query_messages_.fetch_add(pull_batches_.NumBatches(u), std::memory_order_relaxed);
  KeepTopKNewest(&merged, feed_size_);
  return merged;
}

}  // namespace piggy
