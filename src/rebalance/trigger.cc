#include "rebalance/trigger.h"

#include <algorithm>

namespace piggy {

namespace {

double MaxOverMean(const std::vector<double>& loads) {
  if (loads.empty()) return 0;
  double total = 0, max = 0;
  for (double x : loads) {
    total += x;
    max = std::max(max, x);
  }
  if (total <= 0) return 0;
  return max / (total / static_cast<double>(loads.size()));
}

}  // namespace

double RebalanceTrigger::windowed_imbalance() const {
  return MaxOverMean(work_ema_);
}

double RebalanceTrigger::windowed_send_imbalance() const {
  return MaxOverMean(send_ema_);
}

void RebalanceTrigger::Fold(const ClusterMetrics& m) {
  const size_t shards = m.per_shard_work.size();
  work_ema_.resize(shards, 0.0);
  last_work_.resize(shards, 0);
  send_ema_.resize(shards, 0.0);
  last_sends_.resize(shards, 0);
  // Idle windows (two observations with no work between them) leave the
  // EMAs untouched so they cannot wash a hot shard out.
  uint64_t total_delta = 0;
  for (size_t s = 0; s < shards; ++s) {
    total_delta += m.per_shard_work[s] - last_work_[s];
  }
  if (total_delta == 0) return;
  constexpr double kAlpha = 0.6;  // weight of the newest window
  for (size_t s = 0; s < shards; ++s) {
    const double delta = static_cast<double>(m.per_shard_work[s] - last_work_[s]);
    work_ema_[s] = kAlpha * delta + (1 - kAlpha) * work_ema_[s];
    last_work_[s] = m.per_shard_work[s];
  }
  // Same cadence for the chatter signal: cross messages per routed request
  // over this window, EMA-smoothed.
  const uint64_t cross_now = m.cross_update_messages + m.cross_query_messages;
  uint64_t requests_now = 0;
  for (uint64_t r : m.per_shard_requests) requests_now += r;
  const uint64_t req_delta = requests_now - last_requests_;
  if (req_delta > 0) {
    const double rate = static_cast<double>(cross_now - last_cross_) /
                        static_cast<double>(req_delta);
    cross_rate_ = kAlpha * rate + (1 - kAlpha) * cross_rate_;
  }
  // Advance the baselines even on a request-less window: initial replication
  // and migration rebuilds emit state-transfer messages with no requests
  // attached, and they must not be billed to the next window's rate.
  last_cross_ = cross_now;
  last_requests_ = requests_now;
  // Where the batched sends originate, same cadence: a celebrity's home shard
  // stands out here long before (or without) any work imbalance.
  for (size_t s = 0; s < shards; ++s) {
    const double delta = static_cast<double>(m.per_shard_sends[s] - last_sends_[s]);
    send_ema_[s] = kAlpha * delta + (1 - kAlpha) * send_ema_[s];
    last_sends_[s] = m.per_shard_sends[s];
  }
}

bool RebalanceTrigger::Observe(const ClusterMetrics& m) {
  Fold(m);
  if (warmup_seen_ < options_.warmup_windows) {
    ++warmup_seen_;
    return false;
  }
  // Remember which watch tripped: when several are hot at once the report
  // lists the imbalance watch first (it is the primary signal; the rate
  // watches exist to catch what it misses).
  const char* reason = nullptr;
  bool hot = windowed_imbalance() >= options_.imbalance_threshold;
  if (hot) reason = "imbalance";
  if (options_.send_rise > 0 && !send_ema_.empty()) {
    const size_t shards = send_ema_.size();
    send_floor_.resize(shards, 0);
    double mean = 0;
    for (double v : send_ema_) mean += v;
    mean /= static_cast<double>(shards);
    for (size_t s = 0; s < shards; ++s) {
      const double v = send_ema_[s];
      if (v <= 0) continue;
      if (send_floor_[s] == 0 || v < send_floor_[s]) send_floor_[s] = v;
      if (v >= mean && v >= send_floor_[s] * (1.0 + options_.send_rise)) {
        hot = true;
        if (reason == nullptr) reason = "send_rise";
      }
    }
  }
  if (options_.cross_rate_rise > 0 && cross_rate_ > 0) {
    if (rate_floor_ == 0 || cross_rate_ < rate_floor_) rate_floor_ = cross_rate_;
    if (cross_rate_ >= rate_floor_ * (1.0 + options_.cross_rate_rise)) {
      hot = true;
      if (reason == nullptr) reason = "cross_rate";
    }
  }
  const bool fired = ObserveHot(hot);
  if (fired) last_fire_reason_ = reason != nullptr ? reason : "unknown";
  return fired;
}

bool RebalanceTrigger::ObserveHot(bool hot) {
  if (cooldown_ > 0) {
    --cooldown_;
    // Cooldown observations do not count toward the next streak either way:
    // the EMA still carries the pre-migration hotspot.
    return false;
  }
  if (!hot) {
    hot_streak_ = 0;
    return false;
  }
  ++hot_streak_;
  if (hot_streak_ < options_.consecutive_windows) return false;
  hot_streak_ = 0;
  cooldown_ = options_.cooldown_windows;
  // Firing resets the rise watches' low-water marks: the migration this
  // verdict starts makes whatever rates follow the new normal (a celebrity's
  // ramp is permanent — without the reset the old floor would re-fire the
  // trigger every window forever).
  rate_floor_ = 0;
  std::fill(send_floor_.begin(), send_floor_.end(), 0.0);
  return true;
}

}  // namespace piggy
