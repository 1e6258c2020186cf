// Application-logic client (Algorithm 3 of the paper).
//
// Translates user requests into batched data-store messages:
//
//   share(u, e):  insert e into u's own view and every view in u's push set
//                 h[u]; one update message per distinct server.
//   query(u):     query u's own view and every view in u's pull set l[u];
//                 one query message per distinct server; merge the replies
//                 into the 10 latest events (the generic `filter`). Every
//                 server offers its records into one bounded NewestKMerge
//                 that becomes the returned stream: no per-batch reply is
//                 built, sorted or copied.
//
// Push and pull sets come from the request schedule; the client logic is
// schedule-agnostic exactly as the paper stresses. The schedule and the
// placement are fixed for a client's lifetime, so each user's view lists
// (one flat array per direction, own view first) and per-server message
// batches are computed once, at construction — and with them each
// query batch's keep set: the producers the batch's views can hold that u
// follows (or u itself). A view only ever holds events of its push sources,
// so filtering a batch by its keep set selects exactly what u's full
// interest set {u} ∪ followees(u) would, while the filter's cost follows
// what u keeps rather than how many producers u follows.
//
// Thread safety: the materialized view lists, batches and keep sets are
// immutable after construction and the counters are thread-striped relaxed
// atomics — ShareEvent / QueryStream may be called from any number of
// threads concurrently without writing a shared cache line.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/schedule.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "store/partitioner.h"
#include "store/view_store.h"

namespace piggy {

/// \brief Client-side counters; messages are the throughput currency.
struct ClientMetrics {
  uint64_t share_requests = 0;
  uint64_t query_requests = 0;
  uint64_t update_messages = 0;
  uint64_t query_messages = 0;

  uint64_t requests() const { return share_requests + query_requests; }
  double MessagesPerRequest() const {
    uint64_t r = requests();
    return r ? static_cast<double>(update_messages + query_messages) /
                   static_cast<double>(r)
             : 0.0;
  }
};

/// \brief One application-logic server acting as data-store client.
class AppClient {
 public:
  /// \param graph       social graph (borrowed only during construction);
  ///                    provides interest sets
  /// \param schedule    request schedule (borrowed only during construction)
  /// \param partitioner view placement (borrowed)
  /// \param servers     data-store fleet (borrowed, mutated by requests)
  /// \param feed_size   events per assembled stream (paper: 10)
  AppClient(const Graph& graph, const Schedule& schedule,
            const Partitioner* partitioner, std::vector<ViewStore>* servers,
            size_t feed_size = 10);

  /// Shares a new event by user u (Algorithm 3, update path).
  void ShareEvent(NodeId u, uint64_t event_id, uint64_t timestamp);

  /// Assembles u's event stream (Algorithm 3, query path).
  std::vector<EventTuple> QueryStream(NodeId u);

  /// Snapshot of the counters (relaxed loads; exact once writers quiesce).
  ClientMetrics metrics() const {
    ClientMetrics m;
    m.share_requests = share_requests_.Value();
    m.query_requests = query_requests_.Value();
    m.update_messages = update_messages_.Value();
    m.query_messages = query_messages_.Value();
    return m;
  }
  /// Zeroes the counters; callers hold off concurrent requests.
  void ResetMetrics() {
    share_requests_.Reset();
    query_requests_.Reset();
    update_messages_.Reset();
    query_messages_.Reset();
  }

  /// The views written on u's shares (own view first).
  std::span<const NodeId> PushViews(NodeId u) const { return push_views_.Of(u); }
  /// The views read on u's queries (own view first).
  std::span<const NodeId> PullViews(NodeId u) const { return pull_views_.Of(u); }

  /// Calls fn(server, views) for every update message a share by u sends, in
  /// send order: PushViews(u) grouped by hosting server, ascending server,
  /// list order within a server.
  template <typename F>
  void ForEachPushBatch(NodeId u, F fn) const {
    push_batches_.ForEach(u, fn);
  }
  /// The same for the query messages of u's queries (over PullViews(u)).
  template <typename F>
  void ForEachPullBatch(NodeId u, F fn) const {
    pull_batches_.ForEach(u, fn);
  }

  /// True when u's queries skip the interest filter entirely: no batch of u
  /// is filtered, i.e. the schedule guarantees every producer that can land
  /// in u's pulled views is already in u's interest set.
  bool QueryFilterFree(NodeId u) const;

  /// The keep set query batch `i` of u (in ForEachPullBatch order) filters
  /// by: the sorted producers whose events the batch's views can hold and
  /// that lie in u's interest set {u} ∪ followees(u). nullopt when the batch
  /// is unfiltered (every producer its views can hold is interesting).
  std::optional<std::span<const NodeId>> KeepSet(NodeId u, size_t i) const;

  /// Resident bytes of the query-side filter state: the filtered batches'
  /// keep sets plus the per-batch keep-set index (no per-user interest set
  /// is kept).
  size_t InterestBytes() const { return interest_bytes_; }

 private:
  const Partitioner* partitioner_;
  std::vector<ViewStore>* servers_;
  size_t feed_size_;

  // Materialized per-user view lists in CSR form: u's list is
  // views[first[u], first[u + 1]), its own view then h[u] (push) or l[u]
  // (pull) ascending. Immutable after construction (rebuilds create a
  // fresh client).
  struct ViewLists {
    std::vector<NodeId> views;
    std::vector<uint32_t> first;

    // Builds the lists of n users from for_each_edge(add), which calls
    // add(owner, view) once per scheduled view of an owner.
    template <typename F>
    static ViewLists Build(size_t n, F for_each_edge);
    size_t num_users() const { return first.size() - 1; }
    std::span<const NodeId> Of(NodeId u) const {
      return {views.data() + first[u], first[u + 1] - first[u]};
    }
  };
  ViewLists push_views_;
  ViewLists pull_views_;
  size_t interest_bytes_ = 0;

  // Striped so concurrent requests never write one cache line.
  obs::Counter share_requests_;
  obs::Counter query_requests_;
  obs::Counter update_messages_;
  obs::Counter query_messages_;

  // Every user's view list regrouped into per-server message batches, in
  // CSR form: user u's batches are batches[first[u], first[u + 1]) and batch
  // b carries views[b.begin, b.end). Immutable after construction.
  struct BatchPlan {
    struct Batch {
      uint32_t server;
      uint32_t begin;
      uint32_t end;
    };
    std::vector<NodeId> views;
    std::vector<Batch> batches;
    std::vector<uint32_t> first;

    static BatchPlan Build(const ViewLists& lists, const std::vector<uint32_t>& server_of,
                           size_t num_servers);
    size_t NumBatches(NodeId u) const { return first[u + 1] - first[u]; }
    template <typename F>
    void ForEach(NodeId u, F&& fn) const {
      for (uint32_t b = first[u]; b < first[u + 1]; ++b) {
        const Batch& batch = batches[b];
        fn(batch.server, std::span<const NodeId>(views.data() + batch.begin,
                                                 batch.end - batch.begin));
      }
    }
  };
  BatchPlan push_batches_;
  BatchPlan pull_batches_;

  // Keep sets of the query batches, indexed like pull_batches_.batches:
  // batch b filters by keep_nodes_[keep_[b].begin, keep_[b].end), or not at
  // all when !keep_[b].filtered. Only filtered batches store members.
  // Immutable after construction.
  struct Keep {
    uint32_t begin;
    uint32_t end;
    bool filtered;
  };
  std::vector<Keep> keep_;
  std::vector<NodeId> keep_nodes_;
  std::span<const NodeId> Members(const Keep& keep) const {
    return {keep_nodes_.data() + keep.begin, keep.end - keep.begin};
  }
};

}  // namespace piggy
