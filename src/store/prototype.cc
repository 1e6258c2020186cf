#include "store/prototype.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace piggy {

Prototype::Prototype(const Graph& graph, const PrototypeOptions& options)
    : graph_(graph), options_(options) {}

Result<std::unique_ptr<Prototype>> Prototype::Create(const Graph& graph,
                                                     const Schedule& schedule,
                                                     const PrototypeOptions& options) {
  if (options.num_servers == 0) {
    return Status::InvalidArgument("need at least one server");
  }
  if (options.feed_size == 0) {
    return Status::InvalidArgument("feed_size must be positive");
  }
  auto proto = std::unique_ptr<Prototype>(new Prototype(graph, options));
  proto->partitioner_ = std::make_unique<HashPartitioner>(options.num_servers,
                                                          options.partition_salt);
  proto->servers_.reserve(options.num_servers);
  for (size_t s = 0; s < options.num_servers; ++s) {
    proto->servers_.emplace_back(static_cast<uint32_t>(s), options.view_capacity);
  }
  proto->client_ = std::make_unique<AppClient>(
      graph, schedule, proto->partitioner_.get(), &proto->servers_,
      options.feed_size);
  return proto;
}

void Prototype::AppendAndDeliver(NodeId u, uint64_t event_id, uint64_t timestamp) {
  shares_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  EventTuple event{u, event_id, timestamp};
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    // Keep the log in (timestamp, event id) share order: concurrent cluster
    // writers can deliver externally sequenced events slightly late, so the
    // insert walks back from the tail (one step at most in the common case).
    event_log_.Insert(event);
    next_event_id_ = std::max(next_event_id_, event_id + 1);
    clock_ = std::max(clock_, timestamp + 1);
    log_version_.fetch_add(1, std::memory_order_release);
  }
  client_->ShareEvent(u, event.event_id, event.timestamp);
  shares_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

EventTuple Prototype::ShareEvent(NodeId u) {
  shares_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  EventTuple event;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    event = EventTuple{u, next_event_id_++, clock_++};
    event_log_.Insert(event);
    log_version_.fetch_add(1, std::memory_order_release);
  }
  client_->ShareEvent(u, event.event_id, event.timestamp);
  shares_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return event;
}

uint64_t Prototype::DrawShareSeq() {
  std::lock_guard<std::mutex> lock(log_mu_);
  const uint64_t seq = next_event_id_++;
  clock_ = std::max(clock_, seq + 1);
  return seq;
}

void Prototype::ShareEvent(NodeId u, uint64_t seq) {
  AppendAndDeliver(u, seq, seq);
}

std::vector<EventTuple> Prototype::QueryStream(NodeId u) {
  return client_->QueryStream(u);
}

Status Prototype::AuditStream(NodeId u, const std::vector<EventTuple>& stream,
                              const AuditToken& token) const {
  // Soundness: only events of followed producers (or u itself), newest-first.
  auto followees = graph_.InNeighbors(u);
  for (size_t i = 0; i < stream.size(); ++i) {
    const EventTuple& e = stream[i];
    bool allowed = e.producer == u ||
                   std::binary_search(followees.begin(), followees.end(), e.producer);
    if (!allowed) {
      return Status::Internal(StrFormat("stream of %u leaks producer %u", u,
                                        e.producer));
    }
    if (i > 0 && NewerThan(e, stream[i - 1])) {
      return Status::Internal(StrFormat("stream of %u not sorted at %zu", u, i));
    }
  }

  // Completeness is provable only when no share overlapped the query: the
  // token was quiescent, nothing is in flight now, and the log version did
  // not move in between. (Single-threaded drivers always satisfy this.)
  AuditToken now = BeginAudit();
  if (!token.quiescent || !now.quiescent || now.log_version != token.log_version) {
    return Status::OK();
  }
  if (TotalTrimmedEvents() > 0) return Status::OK();  // completeness not provable

  // Completeness (bounded staleness with Theta = 0 in the simulator): the
  // stream must be exactly the k newest oracle events.
  const SegmentedEventLog::View log = EventLogView();
  // The log view sits outside the window `now` proved share-free: a share
  // landing between that check and the view would put an event in the oracle
  // the stream never saw. Re-verify before comparing (a share starting after
  // this line cannot have touched the view above).
  const AuditToken after = BeginAudit();
  if (!after.quiescent || after.log_version != token.log_version) {
    return Status::OK();
  }
  std::vector<EventTuple> oracle;
  log.ForEachRun([&](const EventTuple* events, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const EventTuple& e = events[i];
      if (e.producer == u ||
          std::binary_search(followees.begin(), followees.end(), e.producer)) {
        oracle.push_back(e);
      }
    }
  });
  oracle = TopKNewest(std::move(oracle), options_.feed_size);
  if (oracle.size() != stream.size()) {
    return Status::Internal(StrFormat("stream of %u has %zu events, oracle %zu", u,
                                      stream.size(), oracle.size()));
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (!(oracle[i] == stream[i])) {
      return Status::Internal(
          StrFormat("stream of %u diverges from oracle at position %zu "
                    "(event %lu vs %lu)",
                    u, i, stream[i].event_id, oracle[i].event_id));
    }
  }
  return Status::OK();
}

double Prototype::ActualThroughput() const {
  double mpr = client_->metrics().MessagesPerRequest();
  return mpr > 0 ? options_.client_messages_per_second / mpr : 0.0;
}

std::vector<uint64_t> Prototype::PerServerQueryLoad() const {
  std::vector<uint64_t> load;
  load.reserve(servers_.size());
  for (const ViewStore& s : servers_) load.push_back(s.metrics().query_messages);
  return load;
}

std::vector<uint64_t> Prototype::PerServerUpdateLoad() const {
  std::vector<uint64_t> load;
  load.reserve(servers_.size());
  for (const ViewStore& s : servers_) load.push_back(s.metrics().update_messages);
  return load;
}

Status Prototype::RestoreEvents(const std::vector<EventTuple>& log) {
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    if (!event_log_.empty()) {
      return Status::FailedPrecondition(
          "RestoreEvents requires a fresh prototype (events already shared)");
    }
  }
  for (size_t i = 0; i < log.size(); ++i) {
    if (i > 0 && log[i].timestamp < log[i - 1].timestamp) {
      return Status::InvalidArgument("event log not in share (timestamp) order");
    }
    if (log[i].producer >= graph_.num_nodes()) {
      return Status::InvalidArgument("event log references unknown producer");
    }
  }
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    event_log_.Assign(log);
    for (const EventTuple& e : log) {
      next_event_id_ = std::max(next_event_id_, e.event_id + 1);
      clock_ = std::max(clock_, e.timestamp + 1);
    }
    log_version_.fetch_add(1, std::memory_order_release);
  }
  for (const EventTuple& e : log) {
    client_->ShareEvent(e.producer, e.event_id, e.timestamp);
  }
  return Status::OK();
}

uint64_t Prototype::TotalTrimmedEvents() const {
  uint64_t total = 0;
  for (const ViewStore& s : servers_) total += s.metrics().trimmed_events;
  return total;
}

void Prototype::ResetMetrics() {
  client_->ResetMetrics();
  for (ViewStore& s : servers_) s.ResetMetrics();
}

}  // namespace piggy
