// ExecCtx: the per-worker handle kernel code uses for every modelled
// global-memory operation and for SIMT issue-slot accounting.
//
// All accesses act on the backing host storage through relaxed
// std::atomic_ref — atomics because they model device atomics, plain
// loads/stores because concurrently executing simulated blocks may touch
// the same word the way concurrently executing real thread blocks do, and
// the *simulator* must stay free of C++ data races (ThreadSanitizer-clean)
// even when the *simulated program* races.  Whether a simulated race is a
// bug is SimSan's job (hipsim/sanitizer.h): when a recorder is attached,
// every access here is bounds/lifetime/init-checked and logged for the
// post-launch cross-block race analyzer.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "hipsim/buffer.h"
#include "hipsim/device_profile.h"
#include "hipsim/mem_model.h"
#include "hipsim/sanitizer.h"

namespace xbfs::sim {

class ExecCtx {
 public:
  ExecCtx(MemProbe* probe, const DeviceProfile* profile,
          SanRecorder* rec = nullptr, unsigned block_id = 0)
      : probe_(probe), profile_(profile), rec_(rec), block_(block_id) {}

  const DeviceProfile& profile() const { return *profile_; }
  unsigned wavefront_size() const { return profile_->wavefront_size; }

  // --- plain loads/stores --------------------------------------------------
  template <typename T>
  T load(dspan<const T> s, std::size_t i) {
    if (rec_ != nullptr &&
        !san(s.shadow(), s.addr_of(i), i, s.size(), sizeof(T),
             AccKind::Read)) {
      return T{};
    }
    probe_->read(s.addr_of(i), sizeof(T));
    return relaxed_load(s[i]);
  }
  template <typename T>
  T load(dspan<T> s, std::size_t i) {
    return load(dspan<const T>(s), i);
  }
  template <typename T>
  void store(dspan<T> s, std::size_t i, T v) {
    if (rec_ != nullptr &&
        !san(s.shadow(), s.addr_of(i), i, s.size(), sizeof(T),
             AccKind::Write)) {
      return;
    }
    probe_->write(s.addr_of(i), sizeof(T));
    relaxed_store(s[i], v);
  }

  /// Non-temporal (streaming) load/store, HIP's __builtin_nontemporal_*:
  /// one-shot traffic that neither allocates L2 lines nor ages them
  /// (L2Model::stream).
  template <typename T>
  T load_nontemporal(dspan<const T> s, std::size_t i) {
    if (rec_ != nullptr &&
        !san(s.shadow(), s.addr_of(i), i, s.size(), sizeof(T),
             AccKind::Read)) {
      return T{};
    }
    probe_->read_nontemporal(s.addr_of(i), sizeof(T));
    return relaxed_load(s[i]);
  }
  template <typename T>
  T load_nontemporal(dspan<T> s, std::size_t i) {
    return load_nontemporal(dspan<const T>(s), i);
  }
  template <typename T>
  void store_nontemporal(dspan<T> s, std::size_t i, T v) {
    if (rec_ != nullptr &&
        !san(s.shadow(), s.addr_of(i), i, s.size(), sizeof(T),
             AccKind::Write)) {
      return;
    }
    probe_->write_nontemporal(s.addr_of(i), sizeof(T));
    relaxed_store(s[i], v);
  }

  // --- atomics ---------------------------------------------------------------
  template <typename T>
  T atomic_add(dspan<T> s, std::size_t i, T v) {
    if (!san_rmw(s, i)) return T{};
    probe_->atomic_rmw(s.addr_of(i), sizeof(T));
    return std::atomic_ref<T>(s[i]).fetch_add(v, std::memory_order_relaxed);
  }
  template <typename T>
  T atomic_or(dspan<T> s, std::size_t i, T v) {
    if (!san_rmw(s, i)) return T{};
    probe_->atomic_rmw(s.addr_of(i), sizeof(T));
    return std::atomic_ref<T>(s[i]).fetch_or(v, std::memory_order_relaxed);
  }
  template <typename T>
  T atomic_min(dspan<T> s, std::size_t i, T v) {
    if (!san_rmw(s, i)) return T{};
    probe_->atomic_rmw(s.addr_of(i), sizeof(T));
    std::atomic_ref<T> ref(s[i]);
    T cur = ref.load(std::memory_order_relaxed);
    while (v < cur &&
           !ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    return cur;
  }
  template <typename T>
  T atomic_exch(dspan<T> s, std::size_t i, T v) {
    if (!san_rmw(s, i)) return T{};
    probe_->atomic_rmw(s.addr_of(i), sizeof(T));
    return std::atomic_ref<T>(s[i]).exchange(v, std::memory_order_relaxed);
  }
  /// atomicCAS semantics: returns the value observed before the operation;
  /// the swap happened iff the return value equals `expected`.
  template <typename T>
  T atomic_cas(dspan<T> s, std::size_t i, T expected, T desired) {
    if (!san_rmw(s, i)) {
      // Skipped unsafe access: report "swap lost" so callers do not act on
      // a phantom success.
      if constexpr (std::is_integral_v<T>) {
        return static_cast<T>(expected + 1);
      } else {
        return T{};
      }
    }
    probe_->atomic_rmw(s.addr_of(i), sizeof(T));
    std::atomic_ref<T> ref(s[i]);
    T cur = expected;
    ref.compare_exchange_strong(cur, desired, std::memory_order_relaxed);
    return cur;
  }
  /// Volatile-style read that bypasses nothing in the model but documents
  /// intent where XBFS re-reads a status word another block may have set.
  template <typename T>
  T atomic_load(dspan<const T> s, std::size_t i) {
    if (rec_ != nullptr &&
        !san(s.shadow(), s.addr_of(i), i, s.size(), sizeof(T),
             AccKind::AtomicRead)) {
      return T{};
    }
    probe_->read(s.addr_of(i), sizeof(T));
    // C++20 atomic_ref requires a non-const referent; the object itself is
    // writable device memory, the span is merely a read-only view.
    return std::atomic_ref<T>(const_cast<T&>(s[i]))
        .load(std::memory_order_relaxed);
  }
  template <typename T>
  T atomic_load(dspan<T> s, std::size_t i) {
    return atomic_load(dspan<const T>(s), i);
  }

  // --- SIMT issue accounting -------------------------------------------------
  /// Record `total` issued lane slots of which `active` did useful work;
  /// divergence/idle lanes show up as total > active.
  void slots(std::uint64_t total, std::uint64_t active) {
    probe_->count_slots(total, active);
  }

  MemProbe& probe() { return *probe_; }

  // --- SimSan wiring ---------------------------------------------------------
  /// True when this launch runs with a sanitizer recorder attached.
  bool san_active() const { return rec_ != nullptr; }
  unsigned block_id() const { return block_; }
  /// Position tracking for access-log attribution; maintained by
  /// BlockCtx/WavefrontCtx phase helpers, best-effort inside hand-rolled
  /// lane loops.
  void set_sim_lane(unsigned wavefront, unsigned lane) {
    wavefront_ = wavefront;
    lane_ = static_cast<std::uint16_t>(lane);
  }
  void set_wavefront(unsigned wavefront) { wavefront_ = wavefront; }
  void set_lane(unsigned lane) { lane_ = static_cast<std::uint16_t>(lane); }
  const char* racy_reason() const { return racy_why_; }
  void set_racy_reason(const char* why) { racy_why_ = why; }
  /// Allowlist-hygiene hook (racy_ok ctor): count the scope entry so the
  /// sanitizer can flag annotations that run but never cover an access.
  void note_annotation(const char* why) {
    if (rec_ != nullptr && rec_->log_races) rec_->ann_entered.push_back(why);
  }

 private:
  /// Relaxed atomic access keeps the simulator itself free of C++ data
  /// races on racy *simulated* accesses; compiles to plain moves on x86.
  template <typename T>
  static T relaxed_load(const T& obj) {
    if constexpr (std::atomic_ref<T>::is_always_lock_free) {
      return std::atomic_ref<T>(const_cast<T&>(obj))
          .load(std::memory_order_relaxed);
    } else {
      return obj;
    }
  }
  template <typename T>
  static void relaxed_store(T& obj, T v) {
    if constexpr (std::atomic_ref<T>::is_always_lock_free) {
      std::atomic_ref<T>(obj).store(v, std::memory_order_relaxed);
    } else {
      obj = v;
    }
  }

  bool san(const BufferShadow* shadow, std::uint64_t addr, std::size_t i,
           std::size_t span_size, std::size_t elem_size, AccKind kind) {
    return san_check(*rec_, shadow, addr, i, span_size, elem_size, kind,
                     block_, wavefront_, lane_, racy_why_);
  }
  template <typename T>
  bool san_rmw(const dspan<T>& s, std::size_t i) {
    return rec_ == nullptr || san(s.shadow(), s.addr_of(i), i, s.size(),
                                  sizeof(T), AccKind::AtomicRmw);
  }

  MemProbe* probe_;
  const DeviceProfile* profile_;
  SanRecorder* rec_ = nullptr;
  unsigned block_ = 0;
  unsigned wavefront_ = 0;
  std::uint16_t lane_ = 0;
  const char* racy_why_ = nullptr;
};

/// Allowlist annotation for *intentional* cross-block races — XBFS's
/// bottom-up look-ahead deliberately lets a block commit `status[v] = level`
/// with a plain store while other blocks concurrently probe v (HPDC'19
/// v7->v8).  Accesses made inside a racy_ok scope still appear in the
/// access log, but the analyzer reports conflicts whose every non-atomic
/// participant is annotated as DataRaceAllowlisted (documented, counted,
/// not fatal) instead of DataRace.  `why` must be a string with static
/// storage duration; it is quoted verbatim in the finding.
class racy_ok {
 public:
  racy_ok(ExecCtx& ctx, const char* why)
      : ctx_(ctx), prev_(ctx.racy_reason()) {
    ctx_.set_racy_reason(why);
    ctx_.note_annotation(why);
  }
  ~racy_ok() { ctx_.set_racy_reason(prev_); }
  racy_ok(const racy_ok&) = delete;
  racy_ok& operator=(const racy_ok&) = delete;

 private:
  ExecCtx& ctx_;
  const char* prev_;
};

}  // namespace xbfs::sim
