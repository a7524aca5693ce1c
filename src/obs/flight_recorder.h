// Always-on lock-free flight recorder: a bounded ring of recent
// structured events from every layer (hipsim faults, breaker transitions,
// scheduler decisions, dynamic-graph epochs), kept cheap enough to leave
// enabled in production and dumped as a post-mortem snapshot when
// something goes wrong.
//
// Recording is wait-free for writers: a slot is claimed with one
// fetch_add on the head sequence, the payload is written (relaxed atomic
// words), and the slot's `ready` word is release-stored with the claiming
// sequence.  Readers (dump/snapshot) copy slots and re-check `ready`
// afterwards — a torn slot (overwritten mid-copy by a lapping writer)
// fails the re-check, or carries another seq, and is discarded,
// seqlock-style.  Old events are overwritten silently; the
// dump reports how many were dropped.
//
// Enabled by XBFS_FLIGHT=<path> (ring capacity via XBFS_FLIGHT_EVENTS,
// default 4096).  trigger(reason) writes the snapshot to the path —
// rate-limited so a fault storm produces one dump, not thousands — and is
// invoked by the serving stack on FaultInjected escalation (a query
// exhausting its resilience budget), Graph500 validation failure and
// deadline misses, by the signal-flush handler, and on demand.  Context
// providers registered by live components (queue depths, breaker states,
// in-flight trace ids) are sampled at dump time and embedded in the
// snapshot.  The destructor writes a final "exit" dump so an enabled run
// always leaves a file behind.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xbfs::obs {

/// One ring entry.  Fixed-size, trivially copyable: the strings are
/// truncating char arrays so recording never allocates.
struct FlightEvent {
  std::uint64_t seq = 0;   ///< 1-based global sequence
  double wall_us = 0.0;    ///< recorder wall clock (steady, since ctor)
  std::uint64_t a = 0;     ///< conventionally: trace/query id
  std::uint64_t b = 0;     ///< conventionally: gcd / slot / epoch
  std::uint64_t c = 0;     ///< free
  char cat[12] = {};       ///< layer: "serve", "sim", "dyn", "flight"
  char name[28] = {};      ///< event name: "kernel_fault", "breaker_open"
  char detail[72] = {};    ///< truncated free-form detail
};

class FlightRecorder {
 public:
  /// Process-wide recorder; reads XBFS_FLIGHT / XBFS_FLIGHT_EVENTS on
  /// first use and dumps an "exit" snapshot at process teardown.
  static FlightRecorder& global();

  FlightRecorder();
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Enable recording.  `path` is where trigger() dumps ("" keeps the
  /// current path; dumps are skipped while it is empty).  `capacity`
  /// resizes the ring (0 keeps current; rounded up to a power of two).
  /// Call before traffic: resizing is not safe under concurrent record().
  void enable(std::string path = "", std::size_t capacity = 0);
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  const std::string& output_path() const { return path_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Record one event.  Wait-free, allocation-free; no-op when disabled.
  void record(const char* cat, const char* name, std::string_view detail = {},
              std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0);

  /// Register a context provider sampled at dump time; the callable must
  /// return a valid JSON fragment (object/array/scalar).  Returns a token
  /// for unregister_context.  Providers must outlive their registration —
  /// components unregister in their shutdown path.
  std::uint64_t register_context(std::string key,
                                 std::function<std::string()> fn);
  void unregister_context(std::uint64_t token);

  /// Write the post-mortem snapshot (ring contents + sampled context).
  void dump(std::ostream& os, const std::string& reason) const;
  /// Dump to output_path(), rate-limited (one dump per `min_dump_gap_ms`,
  /// default 200 ms; the first trigger always fires).  Returns whether a
  /// file was written.
  bool trigger(const char* reason);

  /// Ordered copy of the currently-readable ring contents (tests, dump).
  std::vector<FlightEvent> snapshot() const;
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const;
  std::uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }
  void set_min_dump_gap_ms(double ms);

  /// Forget all recorded events (between independent tests).
  void clear();

  /// Wall-clock microseconds since this recorder was constructed.
  double wall_now_us() const;

 private:
  /// The payload is stored and loaded a word at a time through relaxed
  /// atomics: a reader copying mid-overwrite, or two writers a full ring
  /// apart filling one slot, is a race the `ready` re-check settles, not a
  /// data race.
  static constexpr std::size_t kEventWords =
      sizeof(FlightEvent) / sizeof(std::uint64_t);
  static_assert(sizeof(FlightEvent) % sizeof(std::uint64_t) == 0);
  struct Slot {
    std::atomic<std::uint64_t> ready{0};  ///< seq once the payload is valid
    std::atomic<std::uint64_t> words[kEventWords] = {};  ///< a FlightEvent
  };

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> head_{0};  ///< total events ever claimed
  std::atomic<std::uint64_t> dumps_{0};
  std::vector<Slot> slots_;             ///< power-of-two ring
  std::uint64_t mask_ = 0;
  double wall_epoch_us_ = 0.0;

  mutable std::mutex mu_;  ///< path_, contexts_, dump pacing
  std::string path_;
  double min_dump_gap_ms_ = 200.0;
  double last_dump_ms_ = -1.0;
  std::uint64_t next_ctx_token_ = 1;
  std::map<std::uint64_t, std::pair<std::string, std::function<std::string()>>>
      contexts_;
};

}  // namespace xbfs::obs
