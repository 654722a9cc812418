//===- browser/event_loop.cpp ---------------------------------------------==//

#include "browser/event_loop.h"

#include <algorithm>
#include <cassert>

using namespace doppio;
using namespace doppio::browser;
using doppio::kernel::Lane;

void EventLoop::enqueueTask(Event Fn, EventKind Kind) {
  K.post(Kind == EventKind::Input ? Lane::Input : Lane::Background,
         std::move(Fn));
}

bool TimerHandle::cancel() {
  if (!armed())
    return false;
  // Belt and braces: the heap entry (O(1) when still pending) and the
  // token (stops a timer already promoted into its lane).
  Loop->cancelTimer(Handle);
  Src.cancel();
  return true;
}

TimerHandle EventLoop::setTimer(Event Fn, uint64_t DelayNs, EventKind Kind) {
  // The HTML timer specification imposes a minimum delay; the paper (§4.4)
  // identifies this 4 ms clamp as what makes setTimeout-based resumption
  // unacceptably slow.
  uint64_t Effective = std::max(DelayNs, Prof.MinTimeoutClampNs);
  return postTimer(Kind == EventKind::Input ? Lane::Input : Lane::Timer,
                   std::move(Fn), Effective);
}

TimerHandle EventLoop::postTimer(kernel::Lane L, Event Fn, uint64_t DelayNs) {
  kernel::CancelSource Src;
  auto Fired = std::make_shared<bool>(false);
  uint64_t Handle = K.postAfter(
      L,
      [Fired, Fn = std::move(Fn)]() {
        *Fired = true;
        Fn();
      },
      DelayNs, Src.token());
  return TimerHandle(this, Handle, std::move(Src), std::move(Fired));
}

uint64_t EventLoop::setTimeout(Event Fn, uint64_t DelayNs, EventKind Kind) {
  // Integer shim kept for the JS-visible surface; the clamp lives in
  // setTimer now. Dropping the TimerHandle does not cancel, so the raw id
  // remains valid for clearTimeout.
  return setTimer(std::move(Fn), DelayNs, Kind).id();
}

void EventLoop::clearTimeout(uint64_t Handle) { K.cancelTimer(Handle); }

void EventLoop::scheduleAfter(Event Fn, uint64_t DelayNs, EventKind Kind) {
  K.postAfter(Kind == EventKind::Input ? Lane::Input : Lane::IoCompletion,
              std::move(Fn), DelayNs);
}

bool EventLoop::trySetImmediate(Event Fn) {
  if (!Prof.HasSetImmediate)
    return false;
  Clock.chargeNs(Prof.Costs.ImmediateLatencyNs);
  K.post(Lane::Resume, std::move(Fn));
  return true;
}

void EventLoop::post(kernel::Lane L, Event Fn, kernel::CancelToken Cancel) {
  K.post(L, std::move(Fn), std::move(Cancel));
}

void EventLoop::post(kernel::Lane L, rt::Continuation Cont,
                     kernel::CancelToken Cancel) {
  K.post(L, std::move(Cont), std::move(Cancel));
}

uint64_t EventLoop::postAfter(kernel::Lane L, Event Fn, uint64_t DelayNs,
                              kernel::CancelToken Cancel) {
  return K.postAfter(L, std::move(Fn), DelayNs, std::move(Cancel));
}

bool EventLoop::runOne() {
  std::optional<kernel::Kernel::Work> W = K.next();
  if (!W)
    return false;
  dispatch(std::move(*W));
  return true;
}

bool EventLoop::runOne(uint64_t HorizonNs) {
  std::optional<kernel::Kernel::Work> W = K.next(HorizonNs);
  if (!W)
    return false;
  dispatch(std::move(*W));
  return true;
}

void EventLoop::run() {
  while (runOne()) {
  }
}

size_t EventLoop::runReadyUntil(uint64_t HorizonNs) {
  size_t N = 0;
  while (runOne(HorizonNs))
    ++N;
  return N;
}

void EventLoop::dispatch(kernel::Kernel::Work W) {
  assert(EventDepth == 0 && "browser events never nest");
  uint64_t Start = Clock.nowNs();
  if (W.L == Lane::Input) {
    uint64_t Latency = Start > W.ReadyNs ? Start - W.ReadyNs : 0;
    Cells_.MaxInputLatencyNs->noteMax(static_cast<int64_t>(Latency));
  }
  // Attribute the scheduler wait to the causal span *before* running the
  // callback: the callback may be the one that closes the span, and a
  // closed span no longer accepts queue delay.
  if (W.Span)
    Reg.spans().addQueueDelay(W.Span, Start > W.ReadyNs ? Start - W.ReadyNs
                                                        : 0);
  CurrentEventStartNs = Start;
  ++EventDepth;
  {
    // Restore the span that was current when the work was posted, so the
    // causal id follows the operation across the async hop.
    obs::SpanStore::Scope SpanScope(Reg.spans(), W.Span);
    W.Fn();
  }
  --EventDepth;
  uint64_t End = Clock.nowNs();
  uint64_t DurationNs = End - Start;
  Cells_.EventsRun->inc();
  Cells_.TotalEventNs->inc(DurationNs);
  Cells_.MaxEventNs->noteMax(static_cast<int64_t>(DurationNs));
  if (DurationNs > Prof.WatchdogLimitNs)
    Cells_.WatchdogKills->inc();
  K.noteDispatched(W, Start, End);
}

uint64_t EventLoop::currentEventElapsedNs() const {
  assert(EventDepth > 0 && "no event is running");
  return Clock.nowNs() - CurrentEventStartNs;
}

bool EventLoop::currentEventOverLimit() const {
  return currentEventElapsedNs() > Prof.WatchdogLimitNs;
}
