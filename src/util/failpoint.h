// Fault-injection registry for the durability layer.
//
// A FailPoint is a named site in the WAL/snapshot write path that a test can
// arm to fail in a controlled way. The production code calls
// `FailPointRegistry::Instance().Hit("wal.append")` before each write and
// interprets the returned action:
//
//   kOff            proceed normally (the fast path: one relaxed atomic load)
//   kError          return an IOError without writing anything
//   kCrashHard      simulate a process kill *before* the write: nothing is
//                   written, the registry enters the crashed state
//   kCrashTornWrite simulate a kill *mid*-write: the caller persists a
//                   partial prefix of the record, then the registry enters
//                   the crashed state
//
// The crashed state models "the process is dead": every subsequent Hit() on
// any point reports kCrashHard, so all later durability I/O fail-stops. The
// in-memory service keeps running (tests still talk to it to learn what was
// acked), but nothing after the crash point reaches disk — exactly the
// SIGKILL contract. Tests call ResetCrash()/ClearAll() before recovering.
//
// Arm(name, action, skip) lets the first `skip` hits pass before triggering,
// which is how the kill-and-recover test sweeps the crash site across every
// record boundary of a storm.
//
// Hold(name) parks every thread that hits the point until Release(name);
// the armed action, if any, applies once the thread resumes. Tests use it
// to freeze a background snapshot writer mid-publish and drive the service
// around it.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace piggy {

enum class FailPointAction : uint8_t {
  kOff = 0,
  kError,
  kCrashHard,
  kCrashTornWrite,
};

class FailPointRegistry {
 public:
  static FailPointRegistry& Instance();

  /// Arms `name` to return `action` after `skip` passing hits. Re-arming
  /// replaces any previous setting for the point.
  void Arm(const std::string& name, FailPointAction action, uint64_t skip = 0);

  /// Disarms a single point (the crashed flag is left untouched).
  void Disarm(const std::string& name);

  /// Disarms every point, releases every hold and clears the crashed flag.
  void ClearAll();

  /// Parks threads that hit `name` until Release(name).
  void Hold(const std::string& name);
  void Release(const std::string& name);
  /// Waits until at least one thread is parked at `name`; false on timeout.
  bool WaitUntilParked(const std::string& name,
                       std::chrono::milliseconds timeout);

  /// Consults the point. Crash actions latch the crashed flag and disarm the
  /// point; once crashed, every point answers kCrashHard.
  FailPointAction Hit(const std::string& name);

  /// True once a crash action has fired (and until ResetCrash/ClearAll).
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  void ResetCrash() { crashed_.store(false, std::memory_order_release); }

  FailPointRegistry(const FailPointRegistry&) = delete;
  FailPointRegistry& operator=(const FailPointRegistry&) = delete;

 private:
  FailPointRegistry() = default;

  struct Armed {
    FailPointAction action = FailPointAction::kOff;
    uint64_t skip = 0;  // hits remaining before the action triggers
  };

  struct Held {
    bool holding = false;
    int parked = 0;  // threads waiting at the point
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Armed> points_;
  std::unordered_map<std::string, Held> holds_;
  std::atomic<int> armed_count_{0};
  std::atomic<bool> crashed_{false};
};

}  // namespace piggy
