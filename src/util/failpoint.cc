#include "util/failpoint.h"

namespace piggy {

FailPointRegistry& FailPointRegistry::Instance() {
  static FailPointRegistry registry;
  return registry;
}

void FailPointRegistry::Arm(const std::string& name, FailPointAction action,
                            uint64_t skip) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = points_.insert_or_assign(name, Armed{action, skip});
  (void)it;
  if (inserted) armed_count_.fetch_add(1, std::memory_order_release);
}

void FailPointRegistry::Disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (points_.erase(name) > 0) {
    armed_count_.fetch_sub(1, std::memory_order_release);
  }
}

void FailPointRegistry::ClearAll() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  for (auto& [name, held] : holds_) held.holding = false;
  armed_count_.store(0, std::memory_order_release);
  crashed_.store(false, std::memory_order_release);
  cv_.notify_all();
}

void FailPointRegistry::Hold(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Held& held = holds_[name];
  if (!held.holding) armed_count_.fetch_add(1, std::memory_order_release);
  held.holding = true;
}

void FailPointRegistry::Release(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = holds_.find(name);
  if (it == holds_.end() || !it->second.holding) return;
  it->second.holding = false;
  armed_count_.fetch_sub(1, std::memory_order_release);
  cv_.notify_all();
}

bool FailPointRegistry::WaitUntilParked(const std::string& name,
                                        std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout,
                      [&] { return holds_[name].parked > 0; });
}

FailPointAction FailPointRegistry::Hit(const std::string& name) {
  if (crashed_.load(std::memory_order_acquire)) {
    return FailPointAction::kCrashHard;
  }
  if (armed_count_.load(std::memory_order_acquire) == 0) {
    return FailPointAction::kOff;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (auto it = holds_.find(name); it != holds_.end() && it->second.holding) {
    Held& held = it->second;  // element references survive a rehash
    ++held.parked;
    cv_.notify_all();
    cv_.wait(lock, [&held] { return !held.holding; });
    --held.parked;
  }
  auto it = points_.find(name);
  if (it == points_.end()) return FailPointAction::kOff;
  if (it->second.skip > 0) {
    --it->second.skip;
    return FailPointAction::kOff;
  }
  FailPointAction action = it->second.action;
  if (action == FailPointAction::kCrashHard ||
      action == FailPointAction::kCrashTornWrite) {
    points_.erase(it);
    armed_count_.fetch_sub(1, std::memory_order_release);
    crashed_.store(true, std::memory_order_release);
  }
  return action;
}

}  // namespace piggy
