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
/// event loop reproduces those semantics over the virtual clock, including
/// the setTimeout 4 ms minimum clamp (§4.4) and per-event latency
/// accounting used to measure page responsiveness in the §7.2 case study.
///
/// Since the unified-kernel refactor the loop no longer owns queues of its
/// own: it is a run-to-completion facade over doppio::kernel::Kernel's
/// prioritized dispatch lanes. Browser policy lives here (the timer clamp,
/// watchdog accounting, input-latency stats); ordering, timers,
/// cancellation, and tracing live in the kernel. The classic browser API
/// (enqueueTask / setTimeout / scheduleAfter / trySetImmediate) maps onto
/// lanes, and lane-aware callers can use post()/postAfter() directly.
///
/// The loop also owns the tab's obs::Registry (the simulated tab is the
/// paper's process): every subsystem above it — fs, doppiod, suspender,
/// thread pool — allocates instruments there, and the loop restores each
/// work item's causal span around its dispatch so span ids follow
/// operations across async hops (see obs/span.h). The loop's own event
/// accounting lives in `loop.*` cells, read through cells().
///
/// Timer ownership is typed: setTimer()/postTimer() return a TimerHandle
/// that can cancel the pending fire even after promotion (handle cancel +
/// CancelToken, the belt-and-braces doppiod's idle sweep pioneered). The
/// integer setTimeout()/clearTimeout() surface survives as a thin shim for
/// the JavaScript-visible API, which hands integer ids to scripts.
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
#include <memory>

namespace doppio {
namespace browser {

/// Classifies events for latency accounting. Input events model user
/// interaction; their queueing delay is the "page responsiveness" metric.
enum class EventKind { Task, Input };

class EventLoop;

/// Owning handle for a pending timer, returned by EventLoop::setTimer /
/// postTimer. Move-only; destruction does NOT cancel (matching the old
/// integer-handle semantics, where dropping the id let the timer fire).
///
/// cancel() beats the raw kernel handle in one way that matters: a timer
/// that is already *due* has been promoted out of the heap into its lane,
/// where cancelTimer() can no longer reach it — but the CancelToken every
/// typed timer carries still stops it at dispatch. Callers that used to
/// keep a (handle, CancelSource, armed-flag) triple keep one object.
class TimerHandle {
public:
  TimerHandle() = default;
  TimerHandle(TimerHandle &&) = default;
  TimerHandle &operator=(TimerHandle &&) = default;
  TimerHandle(const TimerHandle &) = delete;
  TimerHandle &operator=(const TimerHandle &) = delete;

  /// True if this handle was ever bound to a timer.
  explicit operator bool() const { return Loop != nullptr; }

  /// True while the timer is still going to fire: bound, not yet run, not
  /// cancelled.
  bool armed() const { return Loop && Fired && !*Fired && !Src.cancelled(); }

  /// Cancels the pending fire (heap entry in O(1), or via the token if
  /// already promoted). Returns true if a fire was actually prevented;
  /// false for unbound, already-fired, or already-cancelled handles.
  bool cancel();

  /// The underlying kernel timer handle (0 when unbound) — interoperates
  /// with the integer clearTimeout()/cancelTimer() surface.
  uint64_t id() const { return Handle; }

private:
  friend class EventLoop;
  TimerHandle(EventLoop *Loop, uint64_t Handle, kernel::CancelSource Src,
              std::shared_ptr<bool> Fired)
      : Loop(Loop), Handle(Handle), Src(std::move(Src)),
        Fired(std::move(Fired)) {}

  EventLoop *Loop = nullptr;
  uint64_t Handle = 0;
  kernel::CancelSource Src;
  std::shared_ptr<bool> Fired;
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

  /// Places \p Fn at the back of the ready queue (a macrotask). Input
  /// events go to the Input lane (dispatched ahead of everything else);
  /// plain tasks go to the Background lane.
  void enqueueTask(Event Fn, EventKind Kind = EventKind::Task);

  /// Typed JavaScript timer: schedules \p Fn after \p DelayNs, subject to
  /// the profile's minimum timeout clamp, and returns an owning
  /// TimerHandle. Prefer this over setTimeout() in C++ callers.
  TimerHandle setTimer(Event Fn, uint64_t DelayNs,
                       EventKind Kind = EventKind::Task);

  /// Typed lane-aware timer: \p Fn runs on lane \p L after exactly
  /// \p DelayNs (no clamp), with an owning TimerHandle. Prefer this over
  /// postAfter() when the caller may need to cancel.
  TimerHandle postTimer(kernel::Lane L, Event Fn, uint64_t DelayNs);

  /// Schedules \p Fn after \p DelayNs, subject to the profile's minimum
  /// timeout clamp. Returns a handle usable with clearTimeout.
  ///
  /// Deprecated integer surface: kept because the JavaScript-visible API
  /// hands integer ids to scripts (jcl's JS setTimeout). New C++ callers
  /// should use setTimer(); this is now a thin shim over it.
  uint64_t setTimeout(Event Fn, uint64_t DelayNs,
                      EventKind Kind = EventKind::Task);

  /// Cancels a pending timeout. Cancelling an already-fired or unknown
  /// handle is a no-op. Deprecated with setTimeout (TimerHandle::cancel
  /// supersedes it); kept for the JS-visible integer surface.
  void clearTimeout(uint64_t Handle);

  /// Schedules \p Fn exactly \p DelayNs from now with no minimum clamp.
  /// This is not a JavaScript-visible API: it models the completion of
  /// browser-internal asynchronous work (XHR responses, IndexedDB
  /// transactions, network frames) which is not subject to timer clamping;
  /// it lands in the I/O-completion lane.
  void scheduleAfter(Event Fn, uint64_t DelayNs,
                     EventKind Kind = EventKind::Task);

  /// Schedules \p Fn at the back of the queue with no clamp. Returns false
  /// (scheduling nothing) if this browser lacks setImmediate (§4.4).
  bool trySetImmediate(Event Fn);

  /// Lane-aware enqueue: \p Fn is eligible now, dispatched in \p L's
  /// priority position. Work carrying a cancelled token is skipped.
  void post(kernel::Lane L, Event Fn, kernel::CancelToken Cancel = {});

  /// Posts a reified continuation (DESIGN.md §16) for one-shot dispatch
  /// on lane \p L.
  void post(kernel::Lane L, rt::Continuation K, kernel::CancelToken Cancel = {});

  /// Lane-aware timer: \p Fn runs on lane \p L after exactly \p DelayNs
  /// (no clamp). Returns a kernel timer handle for cancelTimer().
  uint64_t postAfter(kernel::Lane L, Event Fn, uint64_t DelayNs,
                     kernel::CancelToken Cancel = {});

  /// Cancels a handle from postAfter()/setTimeout(). Returns false for
  /// already-fired, already-cancelled, or unknown handles.
  bool cancelTimer(uint64_t Handle) { return K.cancelTimer(Handle); }

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
