#include "store/app_client.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "store/newest_k_merge.h"
#include "util/logging.h"

namespace piggy {

AppClient::AppClient(const Graph& graph, const Schedule& schedule,
                     const Partitioner* partitioner, std::vector<ViewStore>* servers,
                     size_t feed_size)
    : partitioner_(partitioner), servers_(servers), feed_size_(feed_size) {
  PIGGY_CHECK(partitioner_ != nullptr);
  PIGGY_CHECK(servers_ != nullptr);
  PIGGY_CHECK_EQ(servers_->size(), partitioner_->num_servers());

  const size_t n = graph.num_nodes();
  push_views_ = ViewLists::Build(n, [&](auto add) {
    schedule.ForEachPush([&](Edge e) { add(e.src, e.dst); });
  });
  pull_views_ = ViewLists::Build(n, [&](auto add) {
    schedule.ForEachPull([&](Edge e) { add(e.dst, e.src); });
  });

  // The placement is fixed for this client's lifetime: group every request's
  // views by server once, here, instead of per request.
  std::vector<uint32_t> server_of(n);
  for (NodeId v = 0; v < n; ++v) server_of[v] = partitioner_->ServerOf(v);
  push_batches_ = BatchPlan::Build(push_views_, server_of, servers_->size());
  pull_batches_ = BatchPlan::Build(pull_views_, server_of, servers_->size());

  // Schedule-implied membership: view w can only ever contain events from
  // producers whose push set includes w (its sources). A query batch's keep
  // set is the union of its views' sources intersected with u's interest
  // set {u} ∪ followees(u); filtering by it selects exactly what the full
  // interest set would. When the union lies inside the interest set the
  // filter is an identity and the batch is unfiltered — the common case for
  // own views and followee-owned views.
  // sources(w) in CSR form; ascending u keeps every list sorted.
  std::vector<size_t> source_first(n + 1, 0);
  for (NodeId w : push_views_.views) ++source_first[w + 1];
  for (NodeId w = 0; w < n; ++w) source_first[w + 1] += source_first[w];
  std::vector<NodeId> source_nodes(source_first[n]);
  {
    std::vector<size_t> fill(source_first.begin(), source_first.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId w : push_views_.Of(u)) source_nodes[fill[w]++] = u;
    }
  }
  auto sources = [&](NodeId w) {
    return std::span<const NodeId>(source_nodes.data() + source_first[w],
                                   source_first[w + 1] - source_first[w]);
  };
  // interest_of[v] == u marks v as in u's interest set while u is built;
  // seen[v] == b marks v as already kept for batch b.
  constexpr uint32_t kNone = UINT32_MAX;
  std::vector<NodeId> interest_of(n, kNone);
  std::vector<uint32_t> seen(n, kNone);
  keep_.reserve(pull_batches_.batches.size());
  for (NodeId u = 0; u < n; ++u) {
    const std::span<const NodeId> followees = graph.InNeighbors(u);
    interest_of[u] = u;
    for (NodeId v : followees) interest_of[v] = u;
    // A view with more sources than u has interests (a hub's view) cannot
    // be covered.
    auto covered = [&](std::span<const NodeId> src) {
      if (src.size() > followees.size() + 1) return false;
      for (NodeId v : src) {
        if (interest_of[v] != u) return false;
      }
      return true;
    };
    for (uint32_t b = pull_batches_.first[u]; b < pull_batches_.first[u + 1]; ++b) {
      const BatchPlan::Batch& batch = pull_batches_.batches[b];
      const size_t begin = keep_nodes_.size();
      bool filtered = false;
      for (uint32_t i = batch.begin; i < batch.end && !filtered; ++i) {
        filtered = !covered(sources(pull_batches_.views[i]));
      }
      if (filtered) {
        auto keep = [&](NodeId v) {
          if (seen[v] == b) return;
          seen[v] = b;
          keep_nodes_.push_back(v);
        };
        for (uint32_t i = batch.begin; i < batch.end; ++i) {
          const std::span<const NodeId> src = sources(pull_batches_.views[i]);
          if (src.size() > followees.size() + 1) {
            // Walk u's interest set instead of the hub's sources: the cost
            // follows u's in-degree.
            if (std::binary_search(src.begin(), src.end(), u)) keep(u);
            ForEachSortedIntersection(followees, src,
                                      [&](NodeId v, size_t, size_t) { keep(v); });
          } else {
            for (NodeId v : src) {
              if (interest_of[v] == u) keep(v);
            }
          }
        }
        std::sort(keep_nodes_.begin() + static_cast<std::ptrdiff_t>(begin), keep_nodes_.end());
      }
      PIGGY_CHECK_LE(keep_nodes_.size(), size_t{UINT32_MAX});
      keep_.push_back({static_cast<uint32_t>(begin),
                       static_cast<uint32_t>(keep_nodes_.size()), filtered});
    }
  }
  keep_nodes_.shrink_to_fit();
  interest_bytes_ = keep_.capacity() * sizeof(Keep) + keep_nodes_.capacity() * sizeof(NodeId);
}

template <typename F>
AppClient::ViewLists AppClient::ViewLists::Build(size_t n, F for_each_edge) {
  // A counting sort of the scheduled (owner, view) pairs by owner: count
  // each owner's views, turn the counts into offsets that leave each list's
  // first slot to the own view, place the views, then sort each list past
  // its own view.
  ViewLists lists;
  lists.first.assign(n + 1, 0);
  for_each_edge([&](NodeId owner, NodeId view) {
    if (owner < n && view < n) ++lists.first[owner + 1];
  });
  for (NodeId u = 0; u < n; ++u) {
    PIGGY_CHECK_LE(size_t{lists.first[u]} + 1 + lists.first[u + 1], size_t{UINT32_MAX});
    lists.first[u + 1] += lists.first[u] + 1;
  }
  lists.views.resize(lists.first[n]);
  std::vector<uint32_t> fill(n);
  for (NodeId u = 0; u < n; ++u) {
    lists.views[lists.first[u]] = u;
    fill[u] = lists.first[u] + 1;
  }
  for_each_edge([&](NodeId owner, NodeId view) {
    if (owner < n && view < n) lists.views[fill[owner]++] = view;
  });
  for (NodeId u = 0; u < n; ++u) {
    std::sort(lists.views.begin() + lists.first[u] + 1,
              lists.views.begin() + lists.first[u + 1]);
  }
  return lists;
}

AppClient::BatchPlan AppClient::BatchPlan::Build(const ViewLists& lists,
                                                 const std::vector<uint32_t>& server_of,
                                                 size_t num_servers) {
  BatchPlan plan;
  const size_t total = lists.views.size();
  plan.views.resize(total);
  plan.batches.reserve(total);  // at most one batch per view
  plan.first.reserve(lists.num_users() + 1);
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
  for (NodeId u = 0; u < lists.num_users(); ++u) {
    const std::span<const NodeId> list = lists.Of(u);
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

bool AppClient::QueryFilterFree(NodeId u) const {
  for (uint32_t b = pull_batches_.first[u]; b < pull_batches_.first[u + 1]; ++b) {
    if (keep_[b].filtered) return false;
  }
  return true;
}

std::optional<std::span<const NodeId>> AppClient::KeepSet(NodeId u, size_t i) const {
  PIGGY_CHECK_LT(i, pull_batches_.NumBatches(u));
  const Keep& keep = keep_[pull_batches_.first[u] + i];
  if (!keep.filtered) return std::nullopt;
  return Members(keep);
}

void AppClient::ShareEvent(NodeId u, uint64_t event_id, uint64_t timestamp) {
  PIGGY_CHECK_LT(u, push_views_.num_users());
  share_requests_.Add();
  const EventTuple event{u, event_id, timestamp};
  push_batches_.ForEach(u, [&](uint32_t server, std::span<const NodeId> views) {
    (*servers_)[server].UpdateBatch(views, event);
  });
  update_messages_.Add(push_batches_.NumBatches(u));
}

std::vector<EventTuple> AppClient::QueryStream(NodeId u) {
  PIGGY_CHECK_LT(u, pull_views_.num_users());
  query_requests_.Add();
  // Each batch is filtered by its keep set, or not at all (see the
  // constructor), and every batch merges into the one buffer returned.
  NewestKMerge merge(feed_size_);
  for (uint32_t b = pull_batches_.first[u]; b < pull_batches_.first[u + 1]; ++b) {
    const BatchPlan::Batch& batch = pull_batches_.batches[b];
    const std::span<const NodeId> views(pull_batches_.views.data() + batch.begin,
                                        batch.end - batch.begin);
    const Keep& keep = keep_[b];
    ViewStore& store = (*servers_)[batch.server];
    if (keep.filtered) {
      store.QueryBatchInto(views, Members(keep), &merge);
    } else {
      store.QueryBatchInto(views, &merge);
    }
  }
  query_messages_.Add(pull_batches_.NumBatches(u));
  return std::move(merge).Take();
}

}  // namespace piggy
