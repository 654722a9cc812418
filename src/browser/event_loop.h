//===- browser/event_loop.h - Single-threaded browser event loop -*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JavaScript execution model the paper describes in §3.1: programs run
/// as a sequence of finite-duration events on a single thread; an event runs
/// to completion (it cannot be preempted), and events that keep the page
/// unresponsive for too long are killed by the browser's watchdog. This
/// event loop reproduces those semantics over the virtual clock, with
/// per-event latency accounting used to measure page responsiveness in the
/// §7.2 case study.
///
/// The loop owns no queues of its own: it is a run-to-completion facade
/// over doppio::kernel::Kernel's prioritized dispatch lanes. Browser policy
/// lives here (watchdog accounting, input-latency stats, setImmediate
/// availability and cost); ordering, timers, cancellation, and tracing
/// live in the kernel. Scheduling is four calls: post() runs work now (a
/// closure or a reified continuation), postAfter() runs it later and
/// returns a TimerHandle, and trySetImmediate() is the browser's
/// setImmediate (§4.4). Nothing here clamps delays: the 4 ms setTimeout
/// clamp is applied by the Suspender's IE8 fallback, the one caller that
/// models setTimeout.
///
/// The loop also owns the tab's obs::Registry (the simulated tab is the
/// paper's process): every subsystem above it — fs, doppiod, suspender,
/// thread pool — allocates instruments there, and the loop restores each
/// work item's causal span around its dispatch so span ids follow
/// operations across async hops (see obs/span.h). The loop's own event
/// accounting lives in `loop.*` cells, read through cells().
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_BROWSER_EVENT_LOOP_H
#define DOPPIO_BROWSER_EVENT_LOOP_H

#include "browser/profile.h"
#include "browser/virtual_clock.h"
#include "doppio/kernel/kernel.h"
#include "doppio/obs/registry.h"

#include <cstdint>
#include <functional>
#include <utility>

namespace doppio {
namespace browser {

class EventLoop;

/// Handle for a timer from EventLoop::postAfter: the owning loop and the
/// kernel timer handle. Move-only; destruction does NOT cancel (dropping
/// the handle lets the timer fire). The timer stays cancellable until it
/// is dispatched, including after it became due and was promoted into its
/// lane (kernel::Kernel::cancelTimer).
class TimerHandle {
public:
  TimerHandle() = default;
  TimerHandle(TimerHandle &&O) noexcept
      : Loop(std::exchange(O.Loop, nullptr)),
        Handle(std::exchange(O.Handle, 0)) {}
  TimerHandle &operator=(TimerHandle &&O) noexcept {
    Loop = std::exchange(O.Loop, nullptr);
    Handle = std::exchange(O.Handle, 0);
    return *this;
  }
  TimerHandle(const TimerHandle &) = delete;
  TimerHandle &operator=(const TimerHandle &) = delete;

  /// True if this handle was ever bound to a timer.
  explicit operator bool() const { return Loop != nullptr; }

  /// True while the timer is still going to fire: bound, not yet
  /// dispatched, not cancelled.
  bool armed() const;

  /// Cancels the pending fire. Returns true if a fire was actually
  /// prevented; false for unbound, already-fired, or already-cancelled
  /// handles.
  bool cancel();

  /// The underlying kernel timer handle (0 when unbound).
  uint64_t id() const { return Handle; }

private:
  friend class EventLoop;
  TimerHandle(EventLoop *Loop, uint64_t Handle) : Loop(Loop), Handle(Handle) {}

  EventLoop *Loop = nullptr;
  uint64_t Handle = 0;
};

/// The single-threaded, run-to-completion browser event loop: browser
/// semantics over kernel scheduling.
class EventLoop {
public:
  using Event = std::function<void()>;

  /// The loop's registry cells (`loop.*`) over all dispatched events,
  /// resolved once at construction.
  struct Cells {
    obs::Counter *EventsRun = nullptr;
    /// Events whose charged virtual duration exceeded the watchdog limit.
    obs::Counter *WatchdogKills = nullptr;
    obs::Counter *TotalEventNs = nullptr;
    obs::Gauge *MaxEventNs = nullptr;
    /// Worst observed delay between an input event becoming due and its
    /// dispatch. Long-running events inflate this (§3.1).
    obs::Gauge *MaxInputLatencyNs = nullptr;
  };

  EventLoop(VirtualClock &Clock, const Profile &P)
      : Clock(Clock), Prof(P), Reg(Clock), K(Clock, Reg),
        Cells_{&Reg.counter("loop.events_run"),
               &Reg.counter("loop.watchdog_kills"),
               &Reg.counter("loop.event_ns_total"),
               &Reg.gauge("loop.event_ns_max"),
               &Reg.gauge("loop.input_latency_ns_max")} {}

  /// Runs \p Fn now: it is eligible at once and dispatched in \p L's
  /// priority position, FIFO within the lane.
  void post(kernel::Lane L, Event Fn) { K.post(L, std::move(Fn)); }

  /// Posts a reified continuation (DESIGN.md §16) for one-shot dispatch
  /// on lane \p L.
  void post(kernel::Lane L, rt::Continuation Cont) {
    K.post(L, std::move(Cont));
  }

  /// Runs \p Fn on lane \p L exactly \p DelayNs from now (no clamp). The
  /// handle may be dropped; keep it to cancel.
  TimerHandle postAfter(kernel::Lane L, Event Fn, uint64_t DelayNs) {
    return TimerHandle(this, K.postAfter(L, std::move(Fn), DelayNs));
  }

  /// Browser setImmediate: charges its latency and posts \p Fn to the
  /// Resume lane. Returns false (scheduling nothing) if this browser lacks
  /// setImmediate (§4.4).
  bool trySetImmediate(Event Fn);

  /// Dispatches a single event, advancing the virtual clock over idle gaps.
  /// Returns false when no work remains.
  bool runOne();

  /// Horizon-bounded variant for multi-tab driving: dispatches a single
  /// event, but never jumps the clock over an idle gap past \p HorizonNs
  /// (returns false instead). Already-ready work still runs even when the
  /// clock has charged past the horizon.
  bool runOne(uint64_t HorizonNs);

  /// Runs until every lane and the timer heap are empty.
  void run();

  /// Dispatches every event reachable without jumping the clock past
  /// \p HorizonNs; returns the number of events run. The cluster lockstep
  /// driver calls this per tab per round (doppio/cluster/driver.h).
  size_t runReadyUntil(uint64_t HorizonNs);

  /// Virtual time of this loop's earliest runnable work (now for queued
  /// work, a due time for timers, nullopt when fully idle). See
  /// kernel::Kernel::nextEligibleNs.
  std::optional<uint64_t> nextEligibleNs() { return K.nextEligibleNs(); }

  /// True while an event callback is executing.
  bool inEvent() const { return EventDepth > 0; }

  /// Virtual time charged so far by the currently running event.
  uint64_t currentEventElapsedNs() const;

  /// True if the currently running event has already exceeded the watchdog
  /// limit; cooperative VMs poll this to simulate the browser killing the
  /// script (§3.1).
  bool currentEventOverLimit() const;

  /// The loop's event accounting: live handles on its `loop.*` cells.
  const Cells &cells() const { return Cells_; }

  const Profile &profile() const { return Prof; }
  VirtualClock &clock() { return Clock; }

  /// The scheduling core: trace ring, per-lane counters, timer state.
  kernel::Kernel &kernel() { return K; }
  const kernel::Kernel &kernel() const { return K; }

  /// The tab-wide metrics registry + span store. Every subsystem on this
  /// loop allocates its instruments here.
  obs::Registry &metrics() { return Reg; }
  const obs::Registry &metrics() const { return Reg; }

  /// True once any event has overrun the watchdog limit.
  bool watchdogFired() const { return Cells_.WatchdogKills->value() > 0; }

private:
  void dispatch(kernel::Kernel::Work W);

  VirtualClock &Clock;
  const Profile &Prof;
  /// The registry outlives the kernel member, which holds cells in it.
  obs::Registry Reg;
  kernel::Kernel K;
  Cells Cells_;
  int EventDepth = 0;
  uint64_t CurrentEventStartNs = 0;
};

} // namespace browser
} // namespace doppio

#endif // DOPPIO_BROWSER_EVENT_LOOP_H
