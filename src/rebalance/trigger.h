// RebalanceTrigger: decides WHEN the elastic cluster should move users.
//
// The trigger owns the cluster's load windows: each Observe folds the deltas
// of the lifetime counters in ClusterMetrics since the previous Observe into
// EMAs (per-shard work, per-shard fan-out sends, cross-shard messages per
// routed request), so a shard that went hot recently stands out even when
// lifetime counters look even. It fires when the windowed imbalance, or
// optionally a rate watch climbing above its own low-water mark, holds hot
// for a configurable number of consecutive observations. A cooldown then
// suppresses re-firing so one hotspot triggers one migration, not one per
// observation while the just-moved load drains out of the EMA.
//
// The trigger is a pure observer: it never talks to the cluster, and the
// window length is the caller's Observe cadence — GetMetrics reads elsewhere
// do not move it. The MigrationCoordinator (coordinator.h) feeds it metrics
// and acts on the verdict.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_service.h"

namespace piggy {

/// \brief When the rebalancer should wake up.
struct RebalanceTriggerOptions {
  /// Fire when windowed max/mean imbalance is at least this (1 = perfectly
  /// even; 1.5 = the hottest shard carries 50% more than the mean).
  double imbalance_threshold = 1.5;
  /// Also fire when the windowed cross-shard message rate (batched cross
  /// messages per routed request) has risen this far above its low-water
  /// mark (0.15 = 15% above the quietest window seen). The absolute rate
  /// depends on graph and workload, so the watch self-calibrates: it tracks
  /// the minimum windowed rate observed so far and fires on a sustained
  /// climb — the signature of a celebrity whose audience is piling in even
  /// while per-shard load stays flat. 0 disables the watch. Either signal
  /// going hot feeds the same streak.
  double cross_rate_rise = 0;
  /// Also fire when any single shard's windowed fan-out send rate (an EMA
  /// over ClusterMetrics::per_shard_sends deltas) has risen this far above
  /// its own low-water mark AND that shard now sends more than the cluster
  /// mean. This is the celebrity watch: a ramping account barely moves the
  /// work imbalance (its home shard may have been light, and every other
  /// shard receives the fan-out evenly), but the sends *from* its home
  /// shard multiply. Comparing each shard against its own history makes
  /// the watch immune to structural send skew (the shard hosting the most
  /// hubs always sends the most); the above-mean guard keeps a cold
  /// shard's noisy doubling from firing. 0 disables the watch.
  double send_rise = 0;
  /// Observations discarded before any verdict: the metric EMAs start cold
  /// (warm-up replans and replica backfill inflate the first windows), so
  /// the trigger waits for them to settle instead of firing on the descent.
  size_t warmup_windows = 3;
  /// The threshold must hold for this many consecutive observations before
  /// the trigger fires (debounces one-window blips).
  size_t consecutive_windows = 2;
  /// Observations to stay silent after firing, while the moved load drains
  /// out of the EMA window.
  size_t cooldown_windows = 2;
};

/// \brief Threshold-with-hysteresis detector over windowed cluster load.
class RebalanceTrigger {
 public:
  explicit RebalanceTrigger(const RebalanceTriggerOptions& options)
      : options_(options) {}

  /// Folds the lifetime counters' deltas since the previous Observe into the
  /// windows, then returns true when a rebalance should run now. The
  /// observation counts as hot when the windowed imbalance is over its
  /// threshold or a rate watch has climbed above its low-water mark. The
  /// baselines start at zero, so the first window also carries setup work.
  bool Observe(const ClusterMetrics& m);

  /// Same, on a raw imbalance value (unit-testable without a cluster).
  /// Skips the windows, the warm-up gate and the rate watches: this is the
  /// bare streak machine.
  bool ObserveValue(double imbalance) {
    const bool fired = ObserveHot(imbalance >= options_.imbalance_threshold);
    if (fired) last_fire_reason_ = "imbalance";
    return fired;
  }

  const RebalanceTriggerOptions& options() const { return options_; }

  /// Which watch tripped the most recent fire: "imbalance", "send_rise" or
  /// "cross_rate" (ObserveValue fires report "imbalance"). Empty before the
  /// first fire.
  const std::string& last_fire_reason() const { return last_fire_reason_; }

  /// Max/mean of the per-shard work EMA (ClusterMetrics::per_shard_work
  /// deltas per Observe window). Windows in which no work moved are not
  /// folded, so back-to-back observations cannot wash a hot shard out.
  double windowed_imbalance() const;
  /// Max/mean of the per-shard fan-out send EMA (per_shard_sends deltas):
  /// where the batched cross-shard update traffic originates.
  double windowed_send_imbalance() const;
  /// EMA of cross-shard messages per routed request: a placement can be
  /// balanced yet pay for it in chatter.
  double windowed_cross_rate() const { return cross_rate_; }

 private:
  // Folds one window of counter deltas into the EMAs.
  void Fold(const ClusterMetrics& m);

  // The streak machine behind both entry points: consecutive hot
  // observations fire once, then a cooldown suppresses re-firing.
  bool ObserveHot(bool hot);

  RebalanceTriggerOptions options_;
  size_t hot_streak_ = 0;   // consecutive observations above threshold
  size_t cooldown_ = 0;     // observations left to suppress
  size_t warmup_seen_ = 0;  // metric observations discarded so far
  double rate_floor_ = 0;   // low-water mark of the windowed cross rate
  std::vector<double> send_floor_;  // per-shard send-rate low-water marks
  std::string last_fire_reason_;    // watch behind the most recent fire

  // Windows: EMAs and the lifetime counter values at the last fold.
  std::vector<double> work_ema_;
  std::vector<double> send_ema_;
  double cross_rate_ = 0;
  std::vector<uint64_t> last_work_;
  std::vector<uint64_t> last_sends_;
  uint64_t last_cross_ = 0;
  uint64_t last_requests_ = 0;
};

}  // namespace piggy
