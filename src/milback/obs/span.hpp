// RAII trace spans stamped in SIM time.
//
// A span records an interval [t_begin, t_end] on a named track. Timestamps
// come from the caller's deterministic clock — the event-queue time in the
// cell engine — never from a wall clock, so the collected trace is
// bit-identical at any MILBACK_SIM_THREADS.
//
// Usage (cell engine, sim seconds):
//
//   obs::Span span(sweep_name_id_, now_s, obs::trace_lane(kLaneCell));
//   ... handle the event ...
//   span.end(now_s);   // emitted iff tracing is enabled
//
// A span whose end() is never called is emitted at destruction as a
// zero-length marker at t_begin, so forgotten ends are visible in the trace
// instead of silently dropped. Spans are move-only; a moved-from or
// default-constructed span is inert.
#pragma once

#include <cstdint>
#include <utility>

#include "milback/obs/registry.hpp"

namespace milback::obs {

/// Packs a (track, subtrack) pair into the lane word the Chrome exporter
/// splits back into pid/tid. Track groups related spans (one per subsystem or
/// per node); subtrack separates concurrent rows inside a track.
constexpr std::uint64_t trace_lane(std::uint32_t track,
                                   std::uint32_t subtrack = 0) noexcept {
  return (static_cast<std::uint64_t>(track) << 32) | subtrack;
}

/// Track ids used by the built-in instrumentation (extend freely; the
/// exporter names tracks "track<N>" unless it recognises one of these).
enum : std::uint32_t {
  kLaneCell = 1,  ///< cell engine event loop (sim seconds)
};

/// RAII sim-time span. Construction is a no-op (no allocation, no lock) when
/// tracing is disabled; the record is pushed to the thread-local sink at
/// end()/destruction and merged deterministically at flush.
class Span {
 public:
  Span() = default;

  /// Opens a span named by a Registry::trace_name() id at sim time t_begin.
  // milback-analyze: no-contract(no-op when tracing is disabled; an invalid name id deliberately yields an inactive span)
  Span(std::uint32_t name_id, double t_begin, std::uint64_t lane = 0) noexcept {
    if (!trace_enabled() || name_id == detail::kInvalidId) return;
    active_ = true;
    name_id_ = name_id;
    t_begin_ = t_begin;
    lane_ = lane;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span(Span&& other) noexcept { swap(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      finish(t_begin_);
      swap(other);
    }
    return *this;
  }

  /// Closes the span at sim time t_end and emits it. Idempotent: only the
  /// first end() (or the destructor) emits.
  void end(double t_end) noexcept { finish(t_end); }

  ~Span() { finish(t_begin_); }

  bool active() const noexcept { return active_; }

 private:
  void finish(double t_end) noexcept {
    if (!active_) return;
    active_ = false;
    detail::sink_trace_add(name_id_, t_begin_, t_end, lane_);
  }

  void swap(Span& other) noexcept {
    std::swap(active_, other.active_);
    std::swap(name_id_, other.name_id_);
    std::swap(t_begin_, other.t_begin_);
    std::swap(lane_, other.lane_);
  }

  bool active_ = false;
  std::uint32_t name_id_ = detail::kInvalidId;
  double t_begin_ = 0.0;
  std::uint64_t lane_ = 0;
};

}  // namespace milback::obs
