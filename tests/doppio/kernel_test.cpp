//===- tests/doppio/kernel_test.cpp ---------------------------------------==//
//
// Tests for the unified scheduling kernel: lane priority, FIFO-within-lane
// ordering, the (DueNs, Seq) timer min-heap, timer-handle cancellation
// (also after promotion), cancelled timer reaping, the trace ring buffer,
// and the exported counters. Run with `ctest -L kernel`.
//
//===----------------------------------------------------------------------===//

#include "doppio/kernel/kernel.h"

#include "browser/env.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace doppio;
using namespace doppio::kernel;

namespace {

/// Drains the kernel the way the event-loop facade does, recording each
/// dispatch so traces and counters are populated.
void drain(Kernel &K, browser::VirtualClock &Clock) {
  while (auto W = K.next()) {
    uint64_t Start = Clock.nowNs();
    W->Fn();
    K.noteDispatched(*W, Start, Clock.nowNs());
  }
}

/// Dispatches across every lane, summed from the lane cells.
uint64_t totalDispatched(const Kernel &K) {
  uint64_t N = 0;
  for (const LaneCells &L : K.cells().Lanes)
    N += L.Dispatched->value();
  return N;
}

TEST(Kernel, LanesDrainInStrictPriorityOrder) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<std::string> Order;
  // Posted in reverse-priority order; dispatch must follow lane priority.
  K.post(Lane::Background, [&] { Order.push_back("background"); });
  K.post(Lane::Timer, [&] { Order.push_back("timer"); });
  K.post(Lane::Resume, [&] { Order.push_back("resume"); });
  K.post(Lane::IoCompletion, [&] { Order.push_back("io"); });
  K.post(Lane::Input, [&] { Order.push_back("input"); });
  drain(K, Clock);
  EXPECT_EQ(Order, (std::vector<std::string>{"input", "io", "resume",
                                             "timer", "background"}));
}

TEST(Kernel, QueuedInputBeatsPendingBackgroundCompletions) {
  // The acceptance scenario: a flood of background completions is already
  // queued when an input event arrives — the input still dispatches first.
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<std::string> Order;
  for (int I = 0; I < 100; ++I)
    K.post(Lane::Background, [&] { Order.push_back("completion"); });
  K.post(Lane::Input, [&] { Order.push_back("input"); });
  drain(K, Clock);
  ASSERT_EQ(Order.size(), 101u);
  EXPECT_EQ(Order.front(), "input");
}

TEST(Kernel, FifoWithinLane) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<int> Order;
  for (int I = 0; I < 5; ++I)
    K.post(Lane::Resume, [&Order, I] { Order.push_back(I); });
  drain(K, Clock);
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, TimersFireInDueOrderThenInsertionOrder) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<int> Order;
  K.postAfter(Lane::Timer, [&] { Order.push_back(1); }, browser::msToNs(20));
  K.postAfter(Lane::Timer, [&] { Order.push_back(2); }, browser::msToNs(10));
  K.postAfter(Lane::Timer, [&] { Order.push_back(3); }, browser::msToNs(10));
  drain(K, Clock);
  EXPECT_EQ(Order, (std::vector<int>{2, 3, 1}));
}

TEST(Kernel, IdleGapsAdvanceTheVirtualClock) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  uint64_t FiredAt = 0;
  K.postAfter(Lane::Timer, [&] { FiredAt = Clock.nowNs(); },
              browser::msToNs(50));
  drain(K, Clock);
  EXPECT_EQ(FiredAt, browser::msToNs(50));
}

TEST(Kernel, CancelTokenCoversTimers) {
  // The timer handle is the kernel's one cancellation token: it stays
  // good until dispatch, also once the timer is due and promoted into its
  // lane. Both timers here are due together, so the first one's callback
  // cancels a second that already left the heap.
  browser::VirtualClock Clock;
  Kernel K(Clock);
  bool Ran = false;
  uint64_t Victim = 0;
  K.postAfter(
      Lane::Timer,
      [&] {
        EXPECT_EQ(K.pendingTimers(), 0u);
        EXPECT_TRUE(K.timerPending(Victim));
        EXPECT_TRUE(K.cancelTimer(Victim));
      },
      browser::msToNs(5));
  Victim = K.postAfter(Lane::Timer, [&] { Ran = true; }, browser::msToNs(5));
  drain(K, Clock);
  EXPECT_FALSE(Ran);
  EXPECT_FALSE(K.timerPending(Victim));
  EXPECT_FALSE(K.cancelTimer(Victim)) << "a skipped timer stays cancelled";
  EXPECT_EQ(K.lane(Lane::Timer).CancelledSkipped->value(), 1u);
  EXPECT_EQ(K.lane(Lane::Timer).Dispatched->value(), 1u);
}

TEST(Kernel, CancelTimerByHandle) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  bool Ran = false;
  uint64_t H = K.postAfter(Lane::Timer, [&] { Ran = true; },
                           browser::msToNs(10));
  EXPECT_TRUE(K.timerPending(H));
  EXPECT_TRUE(K.cancelTimer(H));
  EXPECT_FALSE(K.timerPending(H));
  EXPECT_FALSE(K.cancelTimer(H)) << "second cancel is a no-op";
  EXPECT_FALSE(K.cancelTimer(9999)) << "unknown handle is a no-op";
  drain(K, Clock);
  EXPECT_FALSE(Ran);
  EXPECT_EQ(K.cells().TimersCancelled->value(), 1u);
}

TEST(Kernel, CancelledEntriesDoNotAccumulate) {
  // A server arming and cancelling far-future timers must not grow the
  // heap without bound (an event loop that kept cancelled entries until
  // their due time did). The kernel reaps on promotion and compacts when
  // cancelled entries outnumber live ones.
  browser::VirtualClock Clock;
  Kernel K(Clock);
  for (int I = 0; I < 10000; ++I) {
    // Far-future due times: the old implementation never discarded these.
    uint64_t H = K.postAfter(Lane::Timer, [] {},
                             browser::msToNs(1000 + I));
    EXPECT_TRUE(K.cancelTimer(H));
  }
  EXPECT_EQ(K.pendingTimers(), 0u);
  EXPECT_LT(K.cancelledTimers(), 64u)
      << "lazy deletion must be bounded by compaction";
  EXPECT_GE(K.cells().HeapCompactions->value(), 1u);
  EXPECT_TRUE(K.idle());
  // And the loop terminates immediately: no spinning over dead timers.
  EXPECT_FALSE(K.next().has_value());
}

TEST(Kernel, MixedCancelledAndLiveTimersStayOrdered) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  std::vector<int> Order;
  std::vector<uint64_t> ToCancel;
  for (int I = 0; I < 100; ++I) {
    uint64_t H = K.postAfter(Lane::Timer, [&Order, I] { Order.push_back(I); },
                             browser::msToNs(1 + I));
    if (I % 2)
      ToCancel.push_back(H);
  }
  for (uint64_t H : ToCancel)
    K.cancelTimer(H);
  drain(K, Clock);
  ASSERT_EQ(Order.size(), 50u);
  for (size_t I = 0; I + 1 < Order.size(); ++I) {
    EXPECT_LT(Order[I], Order[I + 1]);
    EXPECT_EQ(Order[I] % 2, 0);
  }
}

TEST(Kernel, TraceRecordsQueueDelayAndRunTime) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  // A 10 ms event queued ahead of a 1 ms event: the second entry must
  // show 10 ms of queue delay and 1 ms of run time.
  K.post(Lane::Background, [&] { Clock.chargeNs(browser::msToNs(10)); });
  K.post(Lane::Background, [&] { Clock.chargeNs(browser::msToNs(1)); });
  drain(K, Clock);
  std::vector<TraceEntry> T = K.trace().snapshot();
  ASSERT_EQ(T.size(), 2u);
  EXPECT_EQ(T[0].QueueDelayNs, 0u);
  EXPECT_EQ(T[0].RunNs, browser::msToNs(10));
  EXPECT_EQ(T[1].QueueDelayNs, browser::msToNs(10));
  EXPECT_EQ(T[1].RunNs, browser::msToNs(1));
  EXPECT_EQ(T[1].StartNs, T[1].ReadyNs + T[1].QueueDelayNs);
  EXPECT_EQ(T[0].L, Lane::Background);
  EXPECT_LT(T[0].Id, T[1].Id);
}

TEST(Kernel, TraceRingRetainsLast4096Dispatches) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  constexpr int Total = 5000;
  for (int I = 0; I < Total; ++I)
    K.post(Lane::Background, [] {});
  drain(K, Clock);
  const TraceRing &T = K.trace();
  EXPECT_EQ(T.capacity(), Kernel::DefaultTraceCapacity);
  EXPECT_GE(T.capacity(), 4096u);
  EXPECT_EQ(T.recorded(), uint64_t(Total));
  std::vector<TraceEntry> Snap = T.snapshot();
  ASSERT_EQ(Snap.size(), 4096u);
  // Oldest-first, contiguous, ending at the final dispatch.
  for (size_t I = 0; I + 1 < Snap.size(); ++I)
    EXPECT_EQ(Snap[I].Id + 1, Snap[I + 1].Id);
  EXPECT_EQ(Snap.back().Id, totalDispatched(K));
}

TEST(Kernel, CountersAggregatePerLane) {
  browser::VirtualClock Clock;
  Kernel K(Clock);
  K.post(Lane::Input, [&] { Clock.chargeNs(browser::usToNs(100)); });
  K.post(Lane::Input, [&] { Clock.chargeNs(browser::usToNs(300)); });
  K.postAfter(Lane::Timer, [] {}, browser::msToNs(1));
  drain(K, Clock);
  const LaneCells &In = K.lane(Lane::Input);
  EXPECT_EQ(In.Posted->value(), 2u);
  EXPECT_EQ(In.Dispatched->value(), 2u);
  EXPECT_EQ(In.RunNsTotal->value(), browser::usToNs(400));
  EXPECT_EQ(In.RunNsMax->value(), int64_t(browser::usToNs(300)));
  EXPECT_EQ(In.QueueDelayNsMax->value(), int64_t(browser::usToNs(100)));
  EXPECT_EQ(K.lane(Lane::Timer).Posted->value(), 1u);
  EXPECT_EQ(K.cells().TimersScheduled->value(), 1u);
  EXPECT_EQ(totalDispatched(K), 3u);
  EXPECT_STREQ(laneName(Lane::Input), "input");
  EXPECT_STREQ(laneName(Lane::Background), "background");
}

// --- Facade integration: the browser event loop over kernel lanes. ------===//

TEST(EventLoopFacade, ClearTimeoutReapsFarFutureTimers) {
  // The same bound at the EventLoop level, cancelling through
  // TimerHandles: cancelled far-future timers are reaped eagerly instead
  // of lingering until their due time.
  browser::BrowserEnv Env(browser::chromeProfile());
  for (int I = 0; I < 10000; ++I) {
    browser::TimerHandle H = Env.loop().postAfter(
        Lane::Timer, [] {}, browser::msToNs(100000 + I));
    EXPECT_TRUE(H.cancel());
  }
  const kernel::Kernel &K = Env.loop().kernel();
  EXPECT_EQ(K.pendingTimers(), 0u);
  EXPECT_LT(K.cancelledTimers(), 64u);
  uint64_t Before = Env.clock().nowNs();
  Env.loop().run(); // Must return immediately, not spin to t=100s.
  EXPECT_EQ(Env.clock().nowNs(), Before);
}

TEST(EventLoopFacade, InputLanePreemptsQueuedBackgroundTasks) {
  browser::BrowserEnv Env(browser::chromeProfile());
  std::vector<std::string> Order;
  for (int I = 0; I < 10; ++I)
    Env.loop().post(Lane::Background, [&] { Order.push_back("task"); });
  Env.loop().post(Lane::Input, [&] { Order.push_back("input"); });
  Env.loop().run();
  ASSERT_EQ(Order.size(), 11u);
  EXPECT_EQ(Order.front(), "input");
}

TEST(EventLoopFacade, StatsShapePreservedAndTraceExported) {
  browser::BrowserEnv Env(browser::chromeProfile());
  Env.loop().post(Lane::Background,
                  [&] { Env.clock().chargeNs(browser::msToNs(10)); });
  Env.loop().run();
  const browser::EventLoop::Cells &S = Env.loop().cells();
  EXPECT_EQ(S.EventsRun->value(), 1u);
  EXPECT_EQ(S.MaxEventNs->value(), int64_t(browser::msToNs(10)));
  EXPECT_EQ(S.TotalEventNs->value(), browser::msToNs(10));
  EXPECT_EQ(S.WatchdogKills->value(), 0u);
  // Every facade dispatch reaches the kernel trace.
  EXPECT_EQ(Env.loop().kernel().trace().recorded(), 1u);
  EXPECT_EQ(totalDispatched(Env.loop().kernel()), 1u);
}

} // namespace
