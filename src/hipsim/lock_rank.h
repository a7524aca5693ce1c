// sim::LockRank — cheap lock-order (deadlock) detection for the serving
// stack's mutexes (docs/modelcheck.md "lock ranks").
//
// Every participating mutex carries a numeric rank and a name; a thread may
// only acquire mutexes in strictly increasing rank order.  Any run that
// acquires out of order — the precondition of every lock-inversion deadlock
// — is reported immediately with *both* sides of the story: the acquiring
// thread's held-lock stack and the lock stack recorded when the contended
// mutex was last taken.  Unlike a deadlock, which needs two threads to
// collide in time, a rank violation is caught on the first run that merely
// *executes* the bad nesting — which is exactly what SchedCheck's explored
// interleavings provide.
//
// The check runs before the underlying lock() so a true inversion reports
// instead of hanging.  Default response is abort (both stacks on stderr);
// tests switch to throwing LockOrderViolation via LockRank::set_abort(false).
//
// Rank table (docs/modelcheck.md): serve.cycle=10, serve.update=12,
// serve.gcd=40, dyn.store.writer=50, dyn.store.publish=52,
// serve.inflight=64, serve.drain=68, sim.pool=90.  Gaps are deliberate —
// new locks slot in without renumbering.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace xbfs::sim {

/// Thrown (instead of aborting) on inversion when set_abort(false).
class LockOrderViolation : public std::logic_error {
 public:
  explicit LockOrderViolation(const std::string& what)
      : std::logic_error(what) {}
};

class RankedMutex;

class LockRank {
 public:
  /// false => throw LockOrderViolation instead of aborting (tests).
  static void set_abort(bool abort_on_violation);

  /// Pre-lock check: verifies `rank` is strictly above every rank this
  /// thread already holds.  Reports on violation; otherwise returns.
  static void check_acquire(const RankedMutex& mu);
  /// Post-lock bookkeeping: push onto this thread's held stack and record
  /// the holder snapshot inside the mutex.
  static void note_locked(RankedMutex& mu);
  static void note_unlocked(RankedMutex& mu);

  /// "name(rank) -> name(rank)" for this thread, "<none>" when empty.
  static std::string current_stack();
};

/// Drop-in std::mutex replacement with a rank and a name.  Satisfies
/// BasicLockable/Lockable, so std::lock_guard, std::unique_lock and
/// std::condition_variable_any work unchanged.
class RankedMutex {
 public:
  RankedMutex(unsigned rank, const char* name) : rank_(rank), name_(name) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
    LockRank::check_acquire(*this);
    mu_.lock();
    LockRank::note_locked(*this);
  }
  /// try_lock never blocks, so it cannot deadlock and skips the order
  /// check; on success the mutex still joins the held stack so later
  /// blocking acquisitions see it.
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    LockRank::note_locked(*this);
    return true;
  }
  void unlock() {
    LockRank::note_unlocked(*this);
    mu_.unlock();
  }

  unsigned rank() const { return rank_; }
  const char* name() const { return name_; }

  /// Snapshot of the holder's held-lock stack at acquisition time, for the
  /// "other side" of a violation report.  Guarded by its own tiny spinlock —
  /// the violation path reads it without holding mu_.
  struct HolderSnap {
    static constexpr int kMax = 16;
    const char* names[kMax] = {};
    unsigned ranks[kMax] = {};
    int depth = 0;
  };

 private:
  friend class LockRank;
  std::mutex mu_;
  const unsigned rank_;
  const char* const name_;
  std::atomic_flag snap_lock_ = ATOMIC_FLAG_INIT;
  HolderSnap snap_;
};

}  // namespace xbfs::sim
