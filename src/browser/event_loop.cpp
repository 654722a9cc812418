//===- browser/event_loop.cpp ---------------------------------------------==//

#include "browser/event_loop.h"

#include <cassert>

using namespace doppio;
using namespace doppio::browser;
using doppio::kernel::Lane;

bool TimerHandle::armed() const {
  return Loop && Loop->kernel().timerPending(Handle);
}

bool TimerHandle::cancel() {
  return Loop && Loop->kernel().cancelTimer(Handle);
}

bool EventLoop::trySetImmediate(Event Fn) {
  if (!Prof.HasSetImmediate)
    return false;
  Clock.chargeNs(Prof.Costs.ImmediateLatencyNs);
  K.post(Lane::Resume, std::move(Fn));
  return true;
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
