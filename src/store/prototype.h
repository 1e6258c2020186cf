// The assembled social-networking system prototype (paper Sec. 4.3).
//
// Wires together a partitioned view-server fleet, an Algorithm-3 client, and
// an event-log auditor. The paper measures *actual throughput* — requests per
// second with the fleet saturated; in this simulator the binding resource is
// server messages, so actual throughput is modeled as
//
//     throughput = messages_per_second_per_client / messages_per_request
//
// which reproduces the paper's per-client curves: with one server every
// request costs exactly one message; as the fleet grows requests fan out to
// more servers and per-client throughput drops, while better schedules
// (fewer views per request) fan out less.
//
// Thread safety: ShareEvent and QueryStream may be called concurrently from
// many threads (the client and fleet are internally synchronized; the audit
// log has its own mutex). Audits stay *exact* only when no share overlapped
// the audited query — BeginAudit captures a token (log version + quiescence)
// before the query and AuditStream downgrades to soundness-only checks when
// the token shows a racing share; single-threaded drivers always get the
// full oracle comparison.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/schedule.h"
#include "graph/graph.h"
#include "store/app_client.h"
#include "store/event_log.h"
#include "store/partitioner.h"
#include "store/view_store.h"
#include "util/status.h"

namespace piggy {

/// Calibration constant: batched messages one client can issue per second.
/// Chosen so the 1-server point lands in the paper's 60-70k req/s range.
inline constexpr double kClientMessagesPerSecond = 70000.0;

/// \brief Prototype configuration. Views are placed by HashPartitioner with
/// the shared kDefaultPartitionSalt.
struct PrototypeOptions {
  size_t num_servers = 16;
  size_t feed_size = 10;       ///< events per stream (paper: 10 latest)
  size_t view_capacity = 128;  ///< events retained per view (0 = unbounded)
};

/// \brief A running system instance.
class Prototype {
 public:
  /// Builds the fleet and client for a graph + finalized schedule.
  static Result<std::unique_ptr<Prototype>> Create(const Graph& graph,
                                                   const Schedule& schedule,
                                                   const PrototypeOptions& options);

  /// User u shares an event; the event is also recorded in the audit log.
  /// Returns the assigned tuple (the durability layer logs its event id).
  EventTuple ShareEvent(NodeId u);

  /// Draws the next self-assigned sequence number WITHOUT publishing
  /// anything. A durable FeedService frames the WAL record under this seq
  /// first and only then publishes via ShareEvent(u, seq), so an event a
  /// concurrent reader can observe is always at least on the log. Keeps the
  /// id == timestamp invariant of the plain overload; a seq burned by a
  /// failed log append leaves a harmless gap.
  uint64_t DrawShareSeq();

  /// Shares with an externally assigned sequence number used as both event id
  /// and timestamp (the cluster's global ordering). Self-assigned ids are
  /// 1, 2, 3, ... = timestamps, so passing seq = next id is bit-identical to
  /// the plain overload.
  void ShareEvent(NodeId u, uint64_t seq);

  /// Assembles u's event stream.
  std::vector<EventTuple> QueryStream(NodeId u);

  /// Pre-query capture for exact audits under concurrency: remembers the log
  /// version and whether any share was in flight.
  struct AuditToken {
    uint64_t log_version = 0;
    bool quiescent = true;
  };
  AuditToken BeginAudit() const {
    AuditToken token;
    // Order matters: read in-flight before the version so a share that
    // appends between the two reads flips quiescent, not just the version.
    token.quiescent = shares_in_flight_.load(std::memory_order_acquire) == 0;
    token.log_version = log_version_.load(std::memory_order_acquire);
    return token;
  }

  /// Checks a query result against the audit log oracle: with unbounded (or
  /// untrimmed) views the stream must equal the k newest events of u's
  /// followees (+ u); with trimming it must at least be sound (only followee
  /// events, newest-first). Returns the first violation found.
  Status AuditStream(NodeId u, const std::vector<EventTuple>& stream) const {
    return AuditStream(u, stream, BeginAudit());
  }

  /// Same, with a token captured *before* the audited query ran. Soundness
  /// (no leaked producers, newest-first order) is always checked;
  /// completeness against the oracle only when no share overlapped the query
  /// (token quiescent, log version unchanged, nothing in flight now).
  Status AuditStream(NodeId u, const std::vector<EventTuple>& stream,
                     const AuditToken& token) const;

  /// Modeled per-client actual throughput (requests/second) given the
  /// messages-per-request observed since the last ResetMetrics.
  double ActualThroughput() const;

  /// Per-server query-message counts (Fig. 8's load metric).
  std::vector<uint64_t> PerServerQueryLoad() const;
  /// Per-server update-message counts.
  std::vector<uint64_t> PerServerUpdateLoad() const;

  AppClient& client() { return *client_; }
  const AppClient& client() const { return *client_; }
  std::vector<ViewStore>& servers() { return servers_; }
  const Partitioner& partitioner() const { return *partitioner_; }
  const Graph& graph() const { return graph_; }
  const PrototypeOptions& options() const { return options_; }

  /// Total events dropped by view trimming across the fleet.
  uint64_t TotalTrimmedEvents() const;

  /// Copy of every event shared so far, in share order (the audit oracle's
  /// input; a copy so serving threads can keep appending).
  std::vector<EventTuple> EventLog() const { return EventLogView().Flatten(); }

  /// The same events as an immutable view that shares the log's sealed
  /// segments: O(segment) to take whatever the history length, and safe to
  /// read from another thread while shares keep landing (see event_log.h).
  SegmentedEventLog::View EventLogView() const {
    std::lock_guard<std::mutex> lock(log_mu_);
    return event_log_.Snapshot();
  }

  /// Replays a previously captured event log into a freshly built instance:
  /// each event is written through the client into the fleet and appended to
  /// the audit log, preserving ids and timestamps; the id/clock counters
  /// resume past the replayed maxima. Used by FeedService to rebuild the
  /// serving plane around a new schedule without losing stored events.
  /// Fails if events were already shared or the log is not in share order.
  Status RestoreEvents(const std::vector<EventTuple>& log);

  void ResetMetrics();

 private:
  Prototype(const Graph& graph, const PrototypeOptions& options);

  void AppendAndDeliver(NodeId u, uint64_t event_id, uint64_t timestamp);

  const Graph& graph_;
  PrototypeOptions options_;
  std::unique_ptr<HashPartitioner> partitioner_;
  std::vector<ViewStore> servers_;
  std::unique_ptr<AppClient> client_;

  // Audit log: every shared event in timestamp order, guarded by log_mu_.
  mutable std::mutex log_mu_;
  SegmentedEventLog event_log_;
  uint64_t next_event_id_ = 1;
  uint64_t clock_ = 1;
  // Bumped on every log append; with shares_in_flight_ it lets audits detect
  // shares that overlapped a query.
  std::atomic<uint64_t> log_version_{0};
  std::atomic<int64_t> shares_in_flight_{0};
};

}  // namespace piggy
