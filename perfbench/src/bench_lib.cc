#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "obs/metrics.h"
#include "util/alias_table.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {

using piggy::AliasTable;
using piggy::Rng;

OpStream MakeOpStream(const piggy::Graph& g, const piggy::Workload& w,
                      size_t requests, const ChurnSpec& churn, uint64_t seed) {
  OpStream out;
  Rng rng(piggy::Mix64(seed ^ 0x0b5eedULL));
  const AliasTable producers(w.production);
  const AliasTable consumers(w.consumption);
  const double share_p =
      w.TotalProduction() / (w.TotalProduction() + w.TotalConsumption());

  // Newcomer -> producer edges used by this stream, so no two pairs touch
  // the same edge.
  std::unordered_set<uint64_t> used_edges;
  int64_t open_follow = -1;  // index of the follow awaiting its unfollow

  for (size_t i = 0; i < requests; ++i) {
    if (churn.every > 0 && i % churn.every == churn.every / 2) {
      if (open_follow >= 0) {
        Op op = out.ops[static_cast<size_t>(open_follow)];
        op.kind = OpKind::kUnfollow;
        op.after = open_follow;
        out.ops.push_back(op);
        ++out.churn_ops;
        open_follow = -1;
      } else if (i + churn.every < requests) {
        // A new pair only when its unfollow still fits in the stream. The
        // newcomer follows a popular account: the producer is drawn by rate.
        Op op;
        op.kind = OpKind::kFollow;
        do {
          op.user = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
          op.other = producers.Sample(rng);
        } while (op.user == op.other || g.HasEdge(op.other, op.user) ||
                 !used_edges.insert((uint64_t{op.user} << 32) | op.other).second);
        open_follow = static_cast<int64_t>(out.ops.size());
        out.ops.push_back(op);
        ++out.churn_ops;
      }
    }
    Op op;
    if (rng.UniformDouble() < share_p) {
      op.kind = OpKind::kShare;
      op.user = producers.Sample(rng);
    } else {
      op.kind = OpKind::kQuery;
      op.user = consumers.Sample(rng);
    }
    out.ops.push_back(op);
  }
  return out;
}

uint64_t HashOpStream(const OpStream& stream) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Op& op : stream.ops) {
    mix(static_cast<uint64_t>(op.kind));
    mix(op.user);
    mix(op.other);
    mix(static_cast<uint64_t>(op.after));
  }
  return h;
}

Status Issue(const Endpoint& ep, const Op& op) {
  switch (op.kind) {
    case OpKind::kShare:
      return ep.share(op.user);
    case OpKind::kQuery:
      return ep.query(op.user).status();
    case OpKind::kFollow:
      return ep.follow(op.user, op.other);
    case OpKind::kUnfollow:
      return ep.unfollow(op.user, op.other);
  }
  return Status::Internal("unknown op kind");
}

namespace {

int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

// Drives `stream` from `threads` client threads sharing one op queue: each
// thread takes the next op, waits for `due_ns(index)` (open loop; nullptr =
// closed loop), waits for the op it depends on, and issues it.
PhaseResult Drive(const Endpoint& ep, const OpStream& stream, size_t threads,
                  const std::function<int64_t(size_t)>& due_ns, bool record_timing) {
  const size_t n = stream.ops.size();
  PhaseResult r;
  r.attempted = n;
  r.ok.assign(n, 0);
  if (record_timing) r.timing.resize(n);
  std::vector<std::atomic<uint8_t>> done(n);
  std::atomic<size_t> next{0};
  std::atomic<size_t> failed{0};
  std::vector<std::string> errors(threads);
  std::vector<int64_t> end_ns(threads, 0);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Precise sleeps: the default 50 us timer slack would make ops late.
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      while (Clock::now() < t0) {
      }
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const Op& op = stream.ops[i];
        int64_t now = NsSince(t0);
        if (due_ns) {
          // Sleep while the op is far from due (freeing the core for the
          // service's own threads), spin the last stretch.
          const int64_t due = due_ns(i);
          while (now < due) {
            if (due - now > 60'000) {
              std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 40'000));
            }
            now = NsSince(t0);
          }
          if (record_timing) r.timing[i].due_ns = due;
        }
        if (op.after >= 0) {
          while (done[static_cast<size_t>(op.after)].load(std::memory_order_acquire) == 0) {
            std::this_thread::yield();
          }
        }
        if (record_timing) r.timing[i].start_ns = due_ns ? now : NsSince(t0);
        Status st = Issue(ep, op);
        if (record_timing) r.timing[i].end_ns = NsSince(t0);
        r.ok[i] = st.ok() ? 1 : 0;
        done[i].store(1, std::memory_order_release);
        if (!st.ok()) {
          failed.fetch_add(1);
          if (errors[t].empty()) errors[t] = st.ToString();
        }
      }
      end_ns[t] = NsSince(t0);
    });
  }
  for (std::thread& w : workers) w.join();
  r.failed = failed.load();
  for (const std::string& e : errors) {
    if (r.first_error.empty()) r.first_error = e;
  }
  r.wall_s = static_cast<double>(*std::max_element(end_ns.begin(), end_ns.end())) * 1e-9;
  return r;
}

}  // namespace

PhaseResult RunOpenLoop(const Endpoint& ep, const OpStream& stream, size_t threads,
                        double rate) {
  const double ns_per_op = 1e9 / rate;
  return Drive(ep, stream, threads,
               [ns_per_op](size_t i) {
                 return std::llround(static_cast<double>(i) * ns_per_op);
               },
               true);
}

PhaseResult RunClosedLoop(const Endpoint& ep, const OpStream& stream, size_t threads,
                          bool record_timing) {
  return Drive(ep, stream, threads, nullptr, record_timing);
}

void Oracle::Apply(const OpStream& stream, const PhaseResult& result) {
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    if (!result.ok[i]) continue;
    const Op& op = stream.ops[i];
    switch (op.kind) {
      case OpKind::kShare:
        Acked(op.user);
        break;
      case OpKind::kFollow:
        Follow(op.user, op.other);
        break;
      case OpKind::kUnfollow:
        Unfollow(op.user, op.other);
        break;
      case OpKind::kQuery:
        break;
    }
  }
}

Status CheckAuditFeed(NodeId u, const std::vector<NodeId>& expected,
                      const std::vector<EventTuple>& feed, uint64_t floor_id) {
  if (feed.size() != expected.size()) {
    return Status::Internal(piggy::StrFormat(
        "feed of %u has %zu events, oracle expects %zu", u, feed.size(),
        expected.size()));
  }
  for (size_t i = 0; i < feed.size(); ++i) {
    const NodeId want = expected[expected.size() - 1 - i];
    if (feed[i].producer != want) {
      return Status::Internal(piggy::StrFormat(
          "feed of %u slot %zu holds producer %u, oracle expects %u", u, i,
          feed[i].producer, want));
    }
    if (feed[i].event_id <= floor_id) {
      return Status::Internal(piggy::StrFormat(
          "feed of %u slot %zu holds stale event %llu", u, i,
          static_cast<unsigned long long>(feed[i].event_id)));
    }
    if (i > 0 && !piggy::NewerThan(feed[i - 1], feed[i])) {
      return Status::Internal(
          piggy::StrFormat("feed of %u is not newest-first at %zu", u, i));
    }
  }
  return Status::OK();
}

Status CheckAckedShares(const std::vector<uint64_t>& acked,
                        const std::vector<EventTuple>& log) {
  std::vector<uint64_t> logged(acked.size(), 0);
  std::vector<uint64_t> ids;
  ids.reserve(log.size());
  for (const EventTuple& e : log) {
    if (e.producer >= logged.size()) {
      return Status::Internal(piggy::StrFormat("log holds unknown producer %u", e.producer));
    }
    ++logged[e.producer];
    ids.push_back(e.event_id);
  }
  for (size_t u = 0; u < acked.size(); ++u) {
    if (logged[u] != acked[u]) {
      return Status::Internal(piggy::StrFormat(
          "producer %zu has %llu acked shares but %llu logged events", u,
          static_cast<unsigned long long>(acked[u]),
          static_cast<unsigned long long>(logged[u])));
    }
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return Status::Internal("event log holds a duplicate event id");
  }
  return Status::OK();
}

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

double MiddleMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t drop = v.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

// Percentile of the histogram samples counted in `slots` (a difference of
// two MergedSlots reads), at the geometric middle of the covering bucket.
double SlotPercentile(const piggy::obs::Histogram& h,
                      const std::vector<uint64_t>& slots, double q) {
  uint64_t count = 0;
  for (uint64_t c : slots) count += c;
  if (count == 0) return 0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    seen += slots[i];
    if (seen < rank) continue;
    if (i == 0) return h.min_value();
    if (i == slots.size() - 1) return h.max_value();
    return h.SlotLowerBound(i) * std::sqrt(h.bucket_ratio());
  }
  return h.max_value();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : metrics.values) {
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
