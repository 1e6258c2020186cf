#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "graph/dynamic_graph.h"
#include "util/alias_table.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace piggy {

const char* ToString(ScenarioOpKind kind) {
  switch (kind) {
    case ScenarioOpKind::kShare: return "share";
    case ScenarioOpKind::kQuery: return "query";
    case ScenarioOpKind::kFollow: return "follow";
    case ScenarioOpKind::kUnfollow: return "unfollow";
    case ScenarioOpKind::kRateShift: return "rate-shift";
    case ScenarioOpKind::kShardFail: return "shard-fail";
    case ScenarioOpKind::kShardRestart: return "shard-restart";
  }
  return "?";
}

std::string ScenarioOp::ToString() const {
  if (kind == ScenarioOpKind::kFollow || kind == ScenarioOpKind::kUnfollow) {
    return StrFormat("t=%.3f e=%u %s %u->%u", time, epoch,
                     piggy::ToString(kind), producer, user);
  }
  if (kind == ScenarioOpKind::kShardFail ||
      kind == ScenarioOpKind::kShardRestart) {
    return StrFormat("t=%.3f e=%u %s shard=%u", time, epoch,
                     piggy::ToString(kind), user);
  }
  return StrFormat("t=%.3f e=%u %s u=%u", time, epoch, piggy::ToString(kind),
                   user);
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Factories parameterize the shared emitter with per-epoch CustomEpoch specs
// (ground-truth rates + churn ops, sorted by time at construction).
using EpochSpec = CustomEpoch;

/// The one concrete emitter behind every registered scenario: factories only
/// differ in how they derive the per-epoch specs, so stream semantics —
/// request sampling, epoch proportionality, churn/request merging, rate-shift
/// markers, determinism — are uniform by construction.
class EpochScenario final : public Scenario {
 public:
  EpochScenario(ScenarioInfo info, const Graph& graph, Workload base,
                ScenarioOptions options, std::vector<EpochSpec> epochs)
      : info_(std::move(info)),
        graph_(graph),
        base_(std::move(base)),
        options_(options),
        epochs_(std::move(epochs)),
        rng_(options.seed) {
    PIGGY_CHECK(!epochs_.empty());
    epoch_len_ = options_.duration / static_cast<double>(epochs_.size());
    // Requests per epoch, proportional to the epoch's total rate (epochs are
    // equal-length, so lengths cancel). Cumulative rounding keeps the total
    // exactly num_requests.
    std::vector<double> weight(epochs_.size());
    double total_weight = 0;
    for (size_t e = 0; e < epochs_.size(); ++e) {
      weight[e] = epochs_[e].workload->TotalProduction() +
                  epochs_[e].workload->TotalConsumption();
      total_weight += weight[e];
    }
    req_counts_.assign(epochs_.size(), 0);
    if (total_weight > 0) {
      double cum = 0;
      size_t assigned = 0;
      for (size_t e = 0; e < epochs_.size(); ++e) {
        cum += weight[e];
        const size_t upto = static_cast<size_t>(std::llround(
            static_cast<double>(options_.num_requests) * cum / total_weight));
        req_counts_[e] = upto - assigned;
        assigned = upto;
      }
    }
    Reset();
  }

  const ScenarioInfo& info() const override { return info_; }
  const Graph& graph() const override { return graph_; }
  const Workload& base_workload() const override { return base_; }
  size_t num_epochs() const override { return epochs_.size(); }
  double duration() const override { return options_.duration; }

  const Workload& EpochWorkload(size_t epoch) const override {
    PIGGY_CHECK_LT(epoch, epochs_.size());
    return *epochs_[epoch].workload;
  }

  bool Next(ScenarioOp* op) override {
    while (epoch_ < epochs_.size()) {
      const EpochSpec& spec = epochs_[epoch_];
      if (!opened_) {
        opened_ = true;
        const bool shifted =
            epoch_ > 0 && spec.workload != epochs_[epoch_ - 1].workload;
        if (epoch_ == 0 || shifted) LoadSamplers(*spec.workload);
        if (shifted) {
          *op = ScenarioOp{EpochStart(epoch_), ScenarioOpKind::kRateShift, 0, 0,
                           static_cast<uint32_t>(epoch_)};
          clock_.AdvanceTo(op->time);
          return true;
        }
      }
      const double next_request =
          req_i_ < req_counts_[epoch_]
              ? EpochStart(epoch_) + epoch_len_ *
                                         (static_cast<double>(req_i_) + 0.5) /
                                         static_cast<double>(req_counts_[epoch_])
              : kInf;
      const double next_churn =
          churn_i_ < spec.churn.size() ? spec.churn[churn_i_].time : kInf;
      if (next_churn <= next_request && next_churn != kInf) {
        *op = spec.churn[churn_i_++];
        clock_.AdvanceTo(op->time);
        return true;
      }
      if (next_request != kInf) {
        ++req_i_;
        op->time = next_request;
        op->epoch = static_cast<uint32_t>(epoch_);
        op->producer = 0;
        SampleRequest(op);
        clock_.AdvanceTo(op->time);
        return true;
      }
      ++epoch_;
      opened_ = false;
      churn_i_ = 0;
      req_i_ = 0;
    }
    return false;
  }

  void Reset() override {
    epoch_ = 0;
    opened_ = false;
    churn_i_ = 0;
    req_i_ = 0;
    clock_.Reset();
    rng_ = Rng(options_.seed);
    share_sampler_.reset();
    query_sampler_.reset();
  }

 private:
  // Rebuilds the alias tables for the rates now in effect. Deterministic and
  // RNG-free, so splitting a stationary run across epochs cannot perturb the
  // request stream.
  void LoadSamplers(const Workload& w) {
    const double total_p = w.TotalProduction();
    const double total_c = w.TotalConsumption();
    share_sampler_.reset();
    query_sampler_.reset();
    if (total_p > 0) share_sampler_.emplace(w.production);
    if (total_c > 0) query_sampler_.emplace(w.consumption);
    p_share_ = total_p + total_c > 0 ? total_p / (total_p + total_c) : 0;
  }

  // One Bernoulli, then one alias sample. Zero-rate sides skip their
  // (unbuildable) table without consuming extra randomness from the other
  // side's stream.
  void SampleRequest(ScenarioOp* op) {
    if (share_sampler_.has_value() &&
        (!query_sampler_.has_value() || rng_.Bernoulli(p_share_))) {
      op->kind = ScenarioOpKind::kShare;
      op->user = share_sampler_->Sample(rng_);
    } else {
      PIGGY_CHECK(query_sampler_.has_value());
      op->kind = ScenarioOpKind::kQuery;
      op->user = query_sampler_->Sample(rng_);
    }
  }

  ScenarioInfo info_;
  Graph graph_;
  Workload base_;
  ScenarioOptions options_;
  std::vector<EpochSpec> epochs_;
  std::vector<size_t> req_counts_;
  double epoch_len_ = 0;

  // Emission state (rewound by Reset).
  SimClock clock_;
  size_t epoch_ = 0;
  bool opened_ = false;
  size_t churn_i_ = 0;
  size_t req_i_ = 0;
  Rng rng_;
  std::optional<AliasTable> share_sampler_;
  std::optional<AliasTable> query_sampler_;
  double p_share_ = 0;
};

// ---------------------------------------------------------------------------
// Scenario factories. Each derives per-epoch workloads (shared when
// unchanged, so rate-shift markers fire only on real shifts) and churn ops
// from (graph, base workload, options), using an RNG stream independent from
// the request sampler's.
// ---------------------------------------------------------------------------

using WorkloadPtr = std::shared_ptr<const Workload>;

Rng ChurnRng(const ScenarioOptions& options) {
  // Independent from the request sampler's Rng(seed) stream: churn placement
  // must not perturb request sampling.
  return Rng(Mix64(options.seed ^ 0xc4a81e5ce7a11ULL));
}

/// Spreads `ops` churn ops evenly across epochs [first, last), stamping times
/// and epoch indexes. `make` fills user/producer for the i-th op (returns
/// false to skip it). Epoch quotas come from one cumulative split, so times
/// always lie inside the op's own epoch.
void ScheduleChurn(std::vector<EpochSpec>& epochs, size_t first, size_t last,
                   double duration, size_t ops,
                   const std::function<bool(size_t, ScenarioOp*)>& make) {
  if (ops == 0 || first >= last) return;
  const size_t window = last - first;
  const double epoch_len = duration / static_cast<double>(epochs.size());
  size_t emitted = 0;
  for (size_t w = 0; w < window; ++w) {
    const size_t upto = (w + 1) * ops / window;
    const size_t count = upto - emitted;
    const size_t e = first + w;
    for (size_t j = 0; j < count; ++j) {
      ScenarioOp op;
      op.epoch = static_cast<uint32_t>(e);
      if (!make(emitted + j, &op)) continue;
      op.time = epoch_len * (static_cast<double>(e) +
                             (static_cast<double>(j) + 0.5) /
                                 static_cast<double>(count));
      epochs[e].churn.push_back(op);
    }
    emitted = upto;
  }
}

std::vector<EpochSpec> StationaryEpochs(const Workload& base,
                                        const ScenarioOptions& options) {
  auto shared = std::make_shared<const Workload>(base);
  std::vector<EpochSpec> epochs(std::max<size_t>(options.epochs, 1));
  for (EpochSpec& e : epochs) e.workload = shared;
  return epochs;
}

Result<std::unique_ptr<Scenario>> MakeStationary(ScenarioInfo info, const Graph& g,
                                                 Workload base,
                                                 const ScenarioOptions& options) {
  std::vector<EpochSpec> epochs = StationaryEpochs(base, options);
  return std::unique_ptr<Scenario>(new EpochScenario(
      std::move(info), g, std::move(base), options, std::move(epochs)));
}

Result<std::unique_ptr<Scenario>> MakeDiurnal(ScenarioInfo info, const Graph& g,
                                              Workload base,
                                              const ScenarioOptions& options) {
  const size_t num_epochs = std::max<size_t>(options.epochs, 1);
  const double amplitude =
      std::clamp(1.0 - 1.0 / std::max(options.intensity, 1.0), 0.0, 0.95);
  const double cycles = 2.0;
  std::vector<EpochSpec> epochs(num_epochs);
  for (size_t e = 0; e < num_epochs; ++e) {
    auto w = std::make_shared<Workload>(base);
    for (size_t u = 0; u < base.num_users(); ++u) {
      const double phase = 2.0 * M_PI *
                           (cycles * static_cast<double>(e) /
                                static_cast<double>(num_epochs) +
                            static_cast<double>(u % 3) / 3.0);
      const double m = 1.0 + amplitude * std::sin(phase);
      w->production[u] *= m;
      w->consumption[u] *= m;
    }
    epochs[e].workload = std::move(w);
  }
  return std::unique_ptr<Scenario>(new EpochScenario(
      std::move(info), g, std::move(base), options, std::move(epochs)));
}

Result<std::unique_ptr<Scenario>> MakeFlashCrowd(ScenarioInfo info, const Graph& g,
                                                 Workload base,
                                                 const ScenarioOptions& options) {
  const size_t n = g.num_nodes();
  const size_t num_epochs = std::max<size_t>(options.epochs, 4);
  // Hot set: the highest-fanout producers (1 per 200 users, at least one).
  std::vector<NodeId> by_fanout(n);
  for (NodeId u = 0; u < n; ++u) by_fanout[u] = u;
  std::sort(by_fanout.begin(), by_fanout.end(), [&](NodeId a, NodeId b) {
    return g.OutDegree(a) != g.OutDegree(b) ? g.OutDegree(a) > g.OutDegree(b)
                                            : a < b;
  });
  const size_t hot_count = std::max<size_t>(1, n / 200);
  std::vector<bool> hot(n, false), audience(n, false);
  for (size_t i = 0; i < hot_count && i < n; ++i) {
    const NodeId h = by_fanout[i];
    hot[h] = true;
    for (NodeId v : g.OutNeighbors(h)) audience[v] = true;
  }

  const size_t start = num_epochs * 5 / 16;
  const size_t end = std::max(start + 2, num_epochs * 9 / 16);
  auto quiet = std::make_shared<const Workload>(base);
  std::vector<EpochSpec> epochs(num_epochs);
  for (size_t e = 0; e < num_epochs; ++e) {
    if (e < start || e >= end) {
      epochs[e].workload = quiet;
      continue;
    }
    // Spike hits at `start` and decays linearly back to baseline.
    const double progress = static_cast<double>(e - start) /
                            static_cast<double>(end - start);
    const double f = 1.0 + (options.intensity - 1.0) * (1.0 - progress);
    auto w = std::make_shared<Workload>(base);
    for (NodeId u = 0; u < n; ++u) {
      if (hot[u]) w->production[u] *= f;
      if (audience[u]) w->consumption[u] *= f;
    }
    epochs[e].workload = std::move(w);
  }
  return std::unique_ptr<Scenario>(new EpochScenario(
      std::move(info), g, std::move(base), options, std::move(epochs)));
}

Result<std::unique_ptr<Scenario>> MakeCelebrityJoin(ScenarioInfo info, const Graph& g,
                                                    Workload base,
                                                    const ScenarioOptions& options) {
  const size_t n = g.num_nodes();
  if (n < 2) return Status::InvalidArgument("celebrity-join needs >= 2 users");
  const size_t num_epochs = std::max<size_t>(options.epochs, 5);
  // The "joining" celebrity: the least-followed account (fresh profile).
  NodeId celeb = 0;
  for (NodeId u = 1; u < n; ++u) {
    if (g.OutDegree(u) < g.OutDegree(celeb)) celeb = u;
  }

  Rng rng = ChurnRng(options);
  DynamicGraph evolving(g);
  const size_t target = static_cast<size_t>(
      options.churn_level * 0.3 * static_cast<double>(n));
  std::vector<EpochSpec> epochs(num_epochs);
  // The audience piles in fast: a quiet lead-in establishes the baseline,
  // arrivals land in a burst around the first third, and the back half of
  // the run measures the new steady state (and gives an elastic cluster
  // something it can still act on).
  const size_t start = num_epochs / 3;
  const size_t end = std::max(start + 1, start + num_epochs / 4);
  std::vector<size_t> arrivals_by_epoch(num_epochs, 0);
  std::vector<bool> arrived(n, false);
  ScheduleChurn(epochs, start, end, options.duration, target,
                [&](size_t, ScenarioOp* op) {
                  const NodeId fan = static_cast<NodeId>(rng.Uniform(n));
                  if (fan == celeb || evolving.HasEdge(celeb, fan)) return false;
                  evolving.AddEdge(celeb, fan);
                  op->kind = ScenarioOpKind::kFollow;
                  op->user = fan;
                  op->producer = celeb;
                  arrivals_by_epoch[op->epoch] += 1;
                  arrived[fan] = true;
                  return true;
                });

  // Rates track the audience: the celebrity's production ramps with the
  // fraction of the target audience that has arrived; new fans read more.
  // The spike is scaled against the cluster, not the celebrity's own quiet
  // baseline (a fresh account's base rate is near the floor — multiplying it
  // would leave the "celebrity" invisible in sampled traffic): at full
  // audience the account carries about `intensity` percent of the cluster's
  // total share rate.
  double production_mass = 0;
  for (NodeId u = 0; u < n; ++u) production_mass += base.production[u];
  size_t arrived_so_far = 0;
  std::vector<bool> fan_now(n, false);
  for (size_t e = 0; e < num_epochs; ++e) {
    for (const ScenarioOp& op : epochs[e].churn) fan_now[op.user] = true;
    arrived_so_far += arrivals_by_epoch[e];
    if (arrived_so_far == 0) {
      // No arrivals yet: still the base rates (shared with the previous
      // epoch, so no rate-shift marker fires).
      epochs[e].workload = e == 0 ? std::make_shared<const Workload>(base)
                                  : epochs[e - 1].workload;
      continue;
    }
    auto w = std::make_shared<Workload>(base);
    const double growth = target > 0 ? static_cast<double>(arrived_so_far) /
                                           static_cast<double>(target)
                                     : 1.0;
    w->production[celeb] +=
        (options.intensity / 100.0) * growth * production_mass;
    for (NodeId u = 0; u < n; ++u) {
      if (fan_now[u]) w->consumption[u] *= 2.0;
    }
    epochs[e].workload = std::move(w);
  }
  return std::unique_ptr<Scenario>(new EpochScenario(
      std::move(info), g, std::move(base), options, std::move(epochs)));
}

Result<std::unique_ptr<Scenario>> MakeFollowStorm(ScenarioInfo info, const Graph& g,
                                                  Workload base,
                                                  const ScenarioOptions& options) {
  const size_t num_epochs = std::max<size_t>(options.epochs, 4);
  Rng rng = ChurnRng(options);
  DynamicGraph evolving(g);
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  g.ForEachEdge([&](const Edge& e) { edges.push_back(e); });
  rng.Shuffle(edges);

  const size_t target = static_cast<size_t>(
      options.churn_level * 0.25 * static_cast<double>(edges.size()));
  std::vector<EpochSpec> epochs(num_epochs);

  // Follow-back wave: for an existing edge p -> c (c follows p), p follows
  // back, creating c -> p. A quarter of the new edges are regretted later.
  std::vector<Edge> added;
  size_t cursor = 0;
  ScheduleChurn(epochs, num_epochs / 4, num_epochs / 2, options.duration, target,
                [&](size_t, ScenarioOp* op) {
                  while (cursor < edges.size()) {
                    const Edge e = edges[cursor++];
                    if (e.src == e.dst || evolving.HasEdge(e.dst, e.src)) continue;
                    evolving.AddEdge(e.dst, e.src);
                    added.push_back(Edge{e.dst, e.src});
                    op->kind = ScenarioOpKind::kFollow;
                    op->user = e.src;      // follower (was the producer)
                    op->producer = e.dst;  // followed back
                    return true;
                  }
                  return false;
                });
  const size_t regrets = added.size() / 4;
  ScheduleChurn(epochs, num_epochs * 13 / 20, num_epochs * 3 / 4,
                options.duration, regrets, [&](size_t i, ScenarioOp* op) {
                  const Edge e = added[i];
                  evolving.RemoveEdge(e.src, e.dst);
                  op->kind = ScenarioOpKind::kUnfollow;
                  op->user = e.dst;
                  op->producer = e.src;
                  return true;
                });

  // Storm participants stay engaged: once a user follows back, their feed
  // consumption steps up for the rest of the run (follow storms come with
  // activity bursts — exactly the shift a stale-rate replan misprices).
  const double engagement = 1.0 + options.intensity / 8.0;
  std::vector<bool> engaged(g.num_nodes(), false);
  std::shared_ptr<const Workload> current = std::make_shared<Workload>(base);
  for (size_t e = 0; e < num_epochs; ++e) {
    bool changed = false;
    for (const ScenarioOp& op : epochs[e].churn) {
      if (op.kind == ScenarioOpKind::kFollow && !engaged[op.user]) {
        engaged[op.user] = true;
        changed = true;
      }
    }
    if (changed) {
      auto w = std::make_shared<Workload>(base);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (engaged[u]) w->consumption[u] *= engagement;
      }
      current = std::move(w);
    }
    epochs[e].workload = current;
  }
  return std::unique_ptr<Scenario>(new EpochScenario(
      std::move(info), g, std::move(base), options, std::move(epochs)));
}

Result<std::unique_ptr<Scenario>> MakeRegionalEvent(ScenarioInfo info, const Graph& g,
                                                    Workload base,
                                                    const ScenarioOptions& options) {
  const size_t n = g.num_nodes();
  const size_t num_epochs = std::max<size_t>(options.epochs, 4);
  const size_t regions = 4;
  // The region is a connected neighborhood (BFS from the highest-out-degree
  // seed over the undirected skeleton), about a quarter of the graph: a
  // topological community, so the event concentrates on a real locality the
  // way a geographic spike does — and the way a graph-aware placement would
  // have co-located it.
  std::vector<uint8_t> region_member(n, 0);
  {
    const size_t target = std::max<size_t>(1, n / regions);
    NodeId seed = 0;
    for (NodeId u = 1; u < n; ++u) {
      if (g.OutDegree(u) > g.OutDegree(seed)) seed = u;
    }
    std::vector<NodeId> frontier = {seed};
    region_member[seed] = 1;
    size_t grown = 1;
    for (size_t head = 0; head < frontier.size() && grown < target; ++head) {
      const NodeId u = frontier[head];
      auto visit = [&](NodeId v) {
        if (grown >= target || region_member[v]) return;
        region_member[v] = 1;
        frontier.push_back(v);
        ++grown;
      };
      for (NodeId v : g.OutNeighbors(u)) visit(v);
      for (NodeId v : g.InNeighbors(u)) visit(v);
    }
    // Disconnected leftovers top up by id so the region size is stable.
    for (NodeId u = 0; grown < target && u < n; ++u) {
      if (!region_member[u]) {
        region_member[u] = 1;
        ++grown;
      }
    }
  }
  const auto in_region = [&](NodeId u) { return region_member[u] != 0; };

  const size_t start = num_epochs * 2 / 5;
  const size_t end = std::max(start + 2, num_epochs * 7 / 10);
  auto quiet = std::make_shared<const Workload>(base);
  std::vector<EpochSpec> epochs(num_epochs);
  for (size_t e = 0; e < num_epochs; ++e) {
    if (e < start || e >= end) {
      epochs[e].workload = quiet;
      continue;
    }
    // Triangular excursion peaking mid-window; outsiders' attention shifts
    // toward the event (their own rates dip slightly).
    const double progress = (static_cast<double>(e - start) + 0.5) /
                            static_cast<double>(end - start);
    const double tri = 1.0 - std::abs(2.0 * progress - 1.0);
    const double f = 1.0 + (options.intensity - 1.0) * tri;
    const double dim = std::max(0.5, 1.0 - 0.2 * tri);
    auto w = std::make_shared<Workload>(base);
    for (NodeId u = 0; u < n; ++u) {
      const double m = in_region(u) ? f : dim;
      w->production[u] *= m;
      w->consumption[u] *= m;
    }
    epochs[e].workload = std::move(w);
  }

  // Outsiders follow into the region while the event runs.
  Rng rng = ChurnRng(options);
  DynamicGraph evolving(g);
  const size_t follows =
      n < regions ? 0
                  : static_cast<size_t>(options.churn_level * 0.05 *
                                        static_cast<double>(n));
  ScheduleChurn(epochs, start, end, options.duration, follows,
                [&](size_t, ScenarioOp* op) {
                  const NodeId outsider = static_cast<NodeId>(rng.Uniform(n));
                  const NodeId source =
                      static_cast<NodeId>(rng.Uniform(n / regions)) *
                      static_cast<NodeId>(regions);
                  if (outsider == source || in_region(outsider) ||
                      evolving.HasEdge(source, outsider)) {
                    return false;
                  }
                  evolving.AddEdge(source, outsider);
                  op->kind = ScenarioOpKind::kFollow;
                  op->user = outsider;
                  op->producer = source;
                  return true;
                });
  return std::unique_ptr<Scenario>(new EpochScenario(
      std::move(info), g, std::move(base), options, std::move(epochs)));
}

Result<std::unique_ptr<Scenario>> MakeShardFailure(ScenarioInfo info, const Graph& g,
                                                   Workload base,
                                                   const ScenarioOptions& options) {
  // Stationary traffic with scripted outage windows in the middle half of
  // the run: shard slot i fails a quarter into its epoch and restarts three
  // quarters into the next one, so every outage sees live traffic on both
  // sides. churn_level scales the number of fail/restart pairs; slots are
  // mapped onto real shards (modulo the shard count) by the replay driver.
  const size_t num_epochs = std::max<size_t>(options.epochs, 4);
  ScenarioOptions opts = options;
  opts.epochs = num_epochs;
  auto shared = std::make_shared<const Workload>(base);
  std::vector<EpochSpec> epochs(num_epochs);
  for (EpochSpec& e : epochs) e.workload = shared;

  const double epoch_len =
      options.duration / static_cast<double>(num_epochs);
  const size_t pairs = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options.churn_level)));
  const size_t window_first = num_epochs / 4;
  const size_t window_len = std::max<size_t>(1, num_epochs / 2);
  for (size_t i = 0; i < pairs; ++i) {
    const size_t fail_epoch =
        std::min(window_first + (i * window_len) / pairs, num_epochs - 2);
    const size_t restart_epoch = fail_epoch + 1;
    ScenarioOp fail;
    fail.kind = ScenarioOpKind::kShardFail;
    fail.user = static_cast<NodeId>(i);  // shard slot
    fail.epoch = static_cast<uint32_t>(fail_epoch);
    fail.time = epoch_len * (static_cast<double>(fail_epoch) + 0.25);
    epochs[fail_epoch].churn.push_back(fail);
    ScenarioOp restart = fail;
    restart.kind = ScenarioOpKind::kShardRestart;
    restart.epoch = static_cast<uint32_t>(restart_epoch);
    restart.time = epoch_len * (static_cast<double>(restart_epoch) + 0.75);
    epochs[restart_epoch].churn.push_back(restart);
  }
  for (EpochSpec& e : epochs) {
    std::stable_sort(
        e.churn.begin(), e.churn.end(),
        [](const ScenarioOp& a, const ScenarioOp& b) { return a.time < b.time; });
  }
  return MakeCustomScenario(
      std::move(info), g, std::move(base), opts, std::move(epochs));
}

// ---------------------------------------------------------------------------
// Registry: a constant table, like the planner and partitioner registries.
// ---------------------------------------------------------------------------

using ScenarioFactory = Result<std::unique_ptr<Scenario>> (*)(
    ScenarioInfo, const Graph&, Workload, const ScenarioOptions&);

struct RegistryEntry {
  const char* name;
  const char* description;  ///< one line, shown by `piggy_tool scenarios`
  ScenarioFactory make;
};

// The registry, in name order.
constexpr RegistryEntry kScenarios[] = {
    {"celebrity-join",
     "one account gains followers fast while its share rate ramps up",
     MakeCelebrityJoin},
    {"diurnal", "three phase-shifted regional cohorts on a two-cycle sinusoid",
     MakeDiurnal},
    {"flash-crowd",
     "hub producers and their followers spike together, then decay",
     MakeFlashCrowd},
    {"follow-storm",
     "follow-back wave over a quarter of existing edges with an engagement "
     "shift, partial regret",
     MakeFollowStorm},
    {"regional-event",
     "one region's rates spike on a triangular window; outsiders follow in",
     MakeRegionalEvent},
    {"shard-failure",
     "stationary traffic with scripted shard fail/restart windows",
     MakeShardFailure},
    {"stationary", "fixed rates, no churn (the paper's evaluation regime)",
     MakeStationary},
};

}  // namespace

Result<std::unique_ptr<Scenario>> MakeScenario(std::string_view name,
                                               const Graph& graph,
                                               Workload base_workload,
                                               const ScenarioOptions& options) {
  if (base_workload.num_users() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("workload covers %zu users but graph has %zu nodes",
                  base_workload.num_users(), graph.num_nodes()));
  }
  if (options.epochs == 0) {
    return Status::InvalidArgument("scenario needs at least one epoch");
  }
  if (!(options.duration > 0)) {
    return Status::InvalidArgument("scenario duration must be positive");
  }
  std::vector<std::string> names;
  for (const RegistryEntry& entry : kScenarios) {
    if (name == entry.name) {
      return entry.make({entry.name, entry.description}, graph,
                        std::move(base_workload), options);
    }
    names.push_back(entry.name);
  }
  return Status::InvalidArgument(
      StrFormat("unknown scenario \"%.*s\"; valid: %s",
                static_cast<int>(name.size()), name.data(),
                StrJoin(names, ", ").c_str()));
}

Result<std::unique_ptr<Scenario>> MakeCustomScenario(
    ScenarioInfo info, const Graph& graph, Workload base_workload,
    const ScenarioOptions& options, std::vector<CustomEpoch> epochs) {
  if (epochs.empty()) {
    return Status::InvalidArgument("custom scenario needs at least one epoch");
  }
  if (!(options.duration > 0)) {
    return Status::InvalidArgument("scenario duration must be positive");
  }
  if (base_workload.num_users() != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("workload covers %zu users but graph has %zu nodes",
                  base_workload.num_users(), graph.num_nodes()));
  }
  const double epoch_len =
      options.duration / static_cast<double>(epochs.size());
  for (size_t e = 0; e < epochs.size(); ++e) {
    if (epochs[e].workload == nullptr ||
        epochs[e].workload->num_users() != graph.num_nodes()) {
      return Status::InvalidArgument(
          StrFormat("epoch %zu workload missing or not covering the graph", e));
    }
    double last = epoch_len * static_cast<double>(e);
    for (const ScenarioOp& op : epochs[e].churn) {
      const bool is_churn = op.kind == ScenarioOpKind::kFollow ||
                            op.kind == ScenarioOpKind::kUnfollow;
      const bool is_shard_event = op.kind == ScenarioOpKind::kShardFail ||
                                  op.kind == ScenarioOpKind::kShardRestart;
      if (!is_churn && !is_shard_event) {
        return Status::InvalidArgument(
            "scripted churn must be follow/unfollow or a shard event");
      }
      if (op.epoch != e || op.time < last ||
          op.time > epoch_len * static_cast<double>(e + 1)) {
        return Status::InvalidArgument(
            StrFormat("churn op out of order or out of range: %s",
                      op.ToString().c_str()));
      }
      // Shard events carry a shard slot in `user`, not a node id — the
      // replay driver maps slots onto the cluster, so no range check here.
      if (is_churn && (op.user >= graph.num_nodes() ||
                       op.producer >= graph.num_nodes())) {
        return Status::InvalidArgument(
            StrFormat("churn op out of range: %s", op.ToString().c_str()));
      }
      last = op.time;
    }
  }
  return std::unique_ptr<Scenario>(
      new EpochScenario(std::move(info), graph, std::move(base_workload),
                        options, std::move(epochs)));
}

Result<std::unique_ptr<Scenario>> MakeScenario(std::string_view name,
                                               const Graph& graph,
                                               const ScenarioOptions& options) {
  PIGGY_ASSIGN_OR_RETURN(
      Workload base,
      GenerateWorkload(graph, {.read_write_ratio = 5.0, .min_rate = 0.01}));
  return MakeScenario(name, graph, std::move(base), options);
}

std::vector<ScenarioInfo> RegisteredScenarios() {
  std::vector<ScenarioInfo> infos;
  for (const RegistryEntry& entry : kScenarios) {
    infos.push_back({entry.name, entry.description});
  }
  return infos;
}

}  // namespace piggy
