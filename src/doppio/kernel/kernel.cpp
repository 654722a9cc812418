//===- doppio/kernel/kernel.cpp - Unified scheduling kernel ---------------==//

#include "doppio/kernel/kernel.h"

#include <algorithm>
#include <cassert>

using namespace doppio;
using namespace doppio::kernel;

const char *doppio::kernel::laneName(Lane L) {
  switch (L) {
  case Lane::Input:
    return "input";
  case Lane::IoCompletion:
    return "io";
  case Lane::Resume:
    return "resume";
  case Lane::Timer:
    return "timer";
  case Lane::Background:
    return "background";
  }
  return "?";
}

Kernel::Kernel(browser::VirtualClock &Clock, size_t TraceCapacity)
    : Clock(Clock), OwnedReg(std::make_unique<obs::Registry>(Clock)),
      Reg(*OwnedReg), Trace(TraceCapacity) {
  bindCells();
}

Kernel::Kernel(browser::VirtualClock &Clock, obs::Registry &Reg,
               size_t TraceCapacity)
    : Clock(Clock), Reg(Reg), Trace(TraceCapacity) {
  bindCells();
}

void Kernel::bindCells() {
  // claimPrefix so a second kernel on a shared registry (not a
  // configuration the tree builds today, but claimPrefix makes it safe)
  // gets "kernel2.*" cells instead of corrupting the first one's.
  std::string P = Reg.claimPrefix("kernel");
  for (size_t I = 0; I < NumLanes; ++I) {
    std::string Base = P + ".lane." + laneName(static_cast<Lane>(I)) + ".";
    LaneCells &LC = Cells_.Lanes[I];
    LC.Posted = &Reg.counter(Base + "posted");
    LC.Dispatched = &Reg.counter(Base + "dispatched");
    LC.CancelledSkipped = &Reg.counter(Base + "cancelled_skipped");
    LC.QueueDelayNsTotal = &Reg.counter(Base + "queue_delay_ns_total");
    LC.RunNsTotal = &Reg.counter(Base + "run_ns_total");
    LC.QueueDelayNsMax = &Reg.gauge(Base + "queue_delay_ns_max");
    LC.RunNsMax = &Reg.gauge(Base + "run_ns_max");
  }
  Cells_.TimersScheduled = &Reg.counter(P + ".timer.scheduled");
  Cells_.TimersCancelled = &Reg.counter(P + ".timer.cancelled");
  Cells_.TimersReaped = &Reg.counter(P + ".timer.reaped");
  Cells_.HeapCompactions = &Reg.counter(P + ".timer.heap_compactions");
}

std::vector<TraceEntry> TraceRing::snapshot() const {
  std::vector<TraceEntry> Out;
  size_t N = size();
  Out.reserve(N);
  size_t Start = Total < Buf.size() ? 0 : Next;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(Buf[(Start + I) % Buf.size()]);
  return Out;
}

uint64_t Kernel::post(Lane L, WorkFn Fn) {
  assert(Fn && "posting empty work");
  size_t Idx = static_cast<size_t>(L);
  uint64_t Id = NextWorkId++;
  Lanes[Idx].push_back(
      {std::move(Fn), Id, Clock.nowNs(), /*Timer=*/0, Reg.spans().current()});
  Cells_.Lanes[Idx].Posted->inc();
  return Id;
}

uint64_t Kernel::post(Lane L, rt::Continuation K) {
  // WorkFn is a copyable std::function; the move-only continuation rides
  // in a shared_ptr. One-shot enforcement lives in the continuation, so
  // even a pathological double-dispatch is accounted, not undefined.
  auto Held = std::make_shared<rt::Continuation>(std::move(K));
  return post(L, [Held] {
    if (Held->armed())
      Held->resume();
  });
}

uint64_t Kernel::postAfter(Lane L, WorkFn Fn, uint64_t DelayNs) {
  assert(Fn && "scheduling empty work");
  auto Rec = std::make_unique<TimerRec>();
  Rec->DueNs = Clock.nowNs() + DelayNs;
  Rec->Seq = NextSeq++;
  Rec->Handle = NextHandle++;
  Rec->L = L;
  Rec->Fn = std::move(Fn);
  Rec->Span = Reg.spans().current();
  uint64_t Handle = Rec->Handle;
  LiveTimers.emplace(Handle, Rec.get());
  heapPush(std::move(Rec));
  Cells_.TimersScheduled->inc();
  Cells_.Lanes[static_cast<size_t>(L)].Posted->inc();
  return Handle;
}

bool Kernel::cancelTimer(uint64_t Handle) {
  auto It = LiveTimers.find(Handle);
  if (It == LiveTimers.end())
    return false;
  // A promoted timer (null record) already sits in its lane; dropping its
  // handle is what makes next() skip it.
  if (TimerRec *Rec = It->second) {
    Rec->Cancelled = true;
    Rec->Fn = nullptr; // Drop captured state eagerly.
    ++CancelledInHeap;
  }
  LiveTimers.erase(It);
  Cells_.TimersCancelled->inc();
  compactIfNeeded();
  return true;
}

bool Kernel::heapLater(const std::unique_ptr<TimerRec> &A,
                       const std::unique_ptr<TimerRec> &B) {
  // std::push_heap builds a max-heap; invert so the earliest (DueNs, Seq)
  // surfaces at Heap.front().
  if (A->DueNs != B->DueNs)
    return A->DueNs > B->DueNs;
  return A->Seq > B->Seq;
}

void Kernel::heapPush(std::unique_ptr<TimerRec> Rec) {
  Heap.push_back(std::move(Rec));
  std::push_heap(Heap.begin(), Heap.end(), heapLater);
}

std::unique_ptr<Kernel::TimerRec> Kernel::heapPop() {
  std::pop_heap(Heap.begin(), Heap.end(), heapLater);
  std::unique_ptr<TimerRec> Rec = std::move(Heap.back());
  Heap.pop_back();
  return Rec;
}

void Kernel::dropCancelledTop() {
  while (!Heap.empty() && Heap.front()->Cancelled) {
    heapPop();
    --CancelledInHeap;
    Cells_.TimersReaped->inc();
  }
}

void Kernel::promoteDue() {
  uint64_t NowNs = Clock.nowNs();
  for (;;) {
    dropCancelledTop();
    if (Heap.empty() || Heap.front()->DueNs > NowNs)
      break;
    std::unique_ptr<TimerRec> Rec = heapPop();
    // The handle stays live (cancellable) until dispatch.
    LiveTimers.find(Rec->Handle)->second = nullptr;
    // A promoted timer's ReadyNs is its due time, not the promotion
    // moment: queue-delay accounting should charge the wait behind other
    // work, and input-latency tracking in the facade depends on it.
    Lanes[static_cast<size_t>(Rec->L)].push_back(
        {std::move(Rec->Fn), NextWorkId++, Rec->DueNs, Rec->Handle,
         Rec->Span});
  }
}

void Kernel::compactIfNeeded() {
  // Lazy deletion keeps cancelTimer O(1), but a server that arms and
  // cancels an idle-sweep timer per connection forever would grow the
  // heap without bound. Rebuild once cancelled entries dominate.
  if (Heap.size() < 64 || CancelledInHeap * 2 <= Heap.size())
    return;
  Cells_.TimersReaped->inc(CancelledInHeap);
  Cells_.HeapCompactions->inc();
  std::erase_if(Heap, [](const std::unique_ptr<TimerRec> &Rec) {
    return Rec->Cancelled;
  });
  std::make_heap(Heap.begin(), Heap.end(), heapLater);
  CancelledInHeap = 0;
}

std::optional<Kernel::Work> Kernel::next(std::optional<uint64_t> HorizonNs) {
  for (;;) {
    promoteDue();
    bool Popped = false;
    for (size_t Idx = 0; Idx < NumLanes; ++Idx) {
      std::deque<ReadyItem> &Q = Lanes[Idx];
      if (Q.empty())
        continue;
      ReadyItem Item = std::move(Q.front());
      Q.pop_front();
      Popped = true;
      // A promoted timer dispatches only while its handle is live; the
      // erase also ends timerPending() for it.
      if (Item.Timer && LiveTimers.erase(Item.Timer) == 0) {
        Cells_.Lanes[Idx].CancelledSkipped->inc();
        break; // Re-promote and re-scan from the top lane.
      }
      return Work{std::move(Item.Fn), static_cast<Lane>(Idx), Item.Id,
                  Item.ReadyNs, Item.Span};
    }
    if (Popped)
      continue;
    // Every lane empty. If live timers remain, the system is idle until
    // the earliest due time: advance the virtual clock over the gap —
    // unless a horizon forbids jumping that far (lockstep cluster
    // driving: traffic from another tab may still be due earlier).
    dropCancelledTop();
    if (Heap.empty())
      return std::nullopt;
    if (HorizonNs && Heap.front()->DueNs > *HorizonNs)
      return std::nullopt;
    Clock.advanceTo(Heap.front()->DueNs);
  }
}

std::optional<uint64_t> Kernel::nextEligibleNs() {
  // Queued lane work (even cancelled promoted timers: popping them is
  // still a dispatch step) is eligible immediately.
  for (const std::deque<ReadyItem> &Q : Lanes)
    if (!Q.empty())
      return Clock.nowNs();
  dropCancelledTop();
  if (Heap.empty())
    return std::nullopt;
  return Heap.front()->DueNs;
}

void Kernel::noteDispatched(const Work &W, uint64_t StartNs,
                            uint64_t EndNs) {
  assert(EndNs >= StartNs);
  uint64_t QueueDelayNs = StartNs > W.ReadyNs ? StartNs - W.ReadyNs : 0;
  uint64_t RunNs = EndNs - StartNs;
  const LaneCells &LC = Cells_.Lanes[static_cast<size_t>(W.L)];
  LC.Dispatched->inc();
  LC.QueueDelayNsTotal->inc(QueueDelayNs);
  LC.QueueDelayNsMax->noteMax(static_cast<int64_t>(QueueDelayNs));
  LC.RunNsTotal->inc(RunNs);
  LC.RunNsMax->noteMax(static_cast<int64_t>(RunNs));
  Trace.push({W.Id, W.L, W.ReadyNs, StartNs, QueueDelayNs, RunNs});
}

bool Kernel::idle() const {
  return queuedWork() == 0 && pendingTimers() == 0;
}

size_t Kernel::queuedWork() const {
  size_t N = 0;
  for (const std::deque<ReadyItem> &Q : Lanes)
    N += Q.size();
  return N;
}
