#include "simcore/simulation.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace shoremt::simcore {

namespace {
// Safety valve: a factory that emits only zero-duration steps would spin
// the event loop forever; after this many instantaneous steps in a row the
// thread is retired instead.
constexpr int kMaxInstantSteps = 1 << 20;
}  // namespace

Simulation::Simulation(const MachineConfig& machine, uint64_t seed)
    : machine_(machine), seed_(seed) {}

int Simulation::AddLock(const SimLockSpec& spec, std::string name) {
  LockState l;
  l.spec = spec;
  l.name = std::move(name);
  locks_.push_back(std::move(l));
  return static_cast<int>(locks_.size()) - 1;
}

int Simulation::AddThread(TxnFactory factory) {
  ThreadCtx t;
  t.id = static_cast<int>(threads_.size());
  t.core = t.id % machine_.cores;
  t.factory = std::move(factory);
  t.rng = Rng(seed_ * 0x9e3779b9ULL + 0x1234567ULL * (t.id + 1));
  threads_.push_back(std::move(t));
  return static_cast<int>(threads_.size()) - 1;
}

bool Simulation::NextStep(ThreadCtx& t, Step* out) {
  if (!t.pending.empty()) {
    *out = t.pending.front();
    t.pending.pop_front();
    return true;
  }
  if (t.program_pos >= t.program.steps().size()) {
    t.program.Clear();
    t.program_pos = 0;
    if (t.factory) t.factory(t.rng, &t.program);
    if (t.program.Empty()) return false;
  }
  *out = t.program.steps()[t.program_pos++];
  return true;
}

int Simulation::SpinnerCount(const LockState& l) const {
  int n = 0;
  for (const Waiter& w : l.waiters) {
    if (threads_[w.thread].state == ThreadState::kSpinning) ++n;
  }
  return n;
}

bool Simulation::TryGrant(LockState& l, ThreadCtx& t, SimMode mode,
                          bool contended_path) {
  const bool is_latch = l.spec.type == SimLockType::kRwLatch;
  // Unfair locks let newcomers barge past queued waiters: raw spinlocks,
  // and adaptive OS mutexes (a releasing pthread mutex is simply marked
  // free; whoever reaches the word first wins).
  const bool unfair = l.spec.type == SimLockType::kTatas ||
                      l.spec.type == SimLockType::kTtas ||
                      l.spec.type == SimLockType::kBlocking;
  // FIFO locks make newcomers queue behind existing waiters.
  if (!contended_path && !l.waiters.empty() && !unfair) return false;

  if (mode == SimMode::kSharedOp && is_latch) {
    if (l.exclusive_holder != -1) return false;
    ++l.reader_count;
  } else {
    if (l.exclusive_holder != -1 || l.reader_count != 0) return false;
    l.exclusive_holder = t.id;
  }

  // Charge acquisition cost as a synthetic compute step executed before the
  // thread's next real work.
  uint64_t cost = l.spec.uncontended_ns;
  if (contended_path) {
    uint64_t line = machine_.cacheline_transfer_ns;
    int spinners = SpinnerCount(l);
    switch (l.spec.type) {
      case SimLockType::kBlocking:
        // Adaptive mutex granted to a *spinning* waiter: spin handoff.
        // (Parked waiters are never granted directly — GrantWaiters wakes
        // them to re-compete, so their context-switch latency overlaps
        // with other threads' use of the lock.)
        cost += line * (1 + spinners / 2);
        break;
      case SimLockType::kTatas:
        cost += line * (1 + spinners);  // Full invalidation storm.
        break;
      case SimLockType::kTtas:
        cost += line * (1 + spinners / 2);  // Storm only at release race.
        break;
      case SimLockType::kMcs:
        cost += line;  // Single line handoff to the successor.
        break;
      case SimLockType::kTicket:
        cost += line * (1 + spinners / 2);  // Shared grant line.
        break;
      case SimLockType::kRwLatch:
        cost += line;  // Latch word transfer.
        break;
    }
  }
  if (cost > 0) {
    t.pending.push_front({StepKind::kCompute, cost, -1, {}});
  }
  return true;
}

void Simulation::GrantWaiters(LockState& l, uint64_t now) {
  const bool unfair = l.spec.type == SimLockType::kTatas ||
                      l.spec.type == SimLockType::kTtas;
  const bool blocking = l.spec.type == SimLockType::kBlocking;
  for (;;) {
    if (l.waiters.empty()) return;
    // Winner selection: FIFO locks take the head; unfair spinlocks hand
    // the lock to a random spinner (whoever wins the storm); adaptive
    // mutexes grant to a spinning waiter if there is one, else wake the
    // front parked waiter to come back and re-compete.
    size_t pick = 0;
    if (unfair && l.waiters.size() > 1) {
      ThreadCtx& anyone = threads_[l.waiters.front().thread];
      pick = anyone.rng.Uniform(l.waiters.size());
    } else if (blocking) {
      bool found_spinner = false;
      for (size_t i = 0; i < l.waiters.size(); ++i) {
        if (threads_[l.waiters[i].thread].state == ThreadState::kSpinning) {
          pick = i;
          found_spinner = true;
          break;
        }
      }
      if (!found_spinner) {
        // Everyone is parked: wake the head. The wakeup latency runs on
        // the waiter's own time (the lock stays free meanwhile — barging
        // newcomers may take it first, exactly like a real adaptive
        // mutex).
        Waiter w = l.waiters.front();
        l.waiters.pop_front();
        ThreadCtx& t = threads_[w.thread];
        l.wait_ns += now - t.wait_started;
        t.waiting_on = -1;
        t.state = ThreadState::kRunning;
        t.remaining_ns = 0.0;
        t.pending.push_front(
            {StepKind::kAcquire, 0, /*resource=*/-1, w.mode});
        // Fix up the resource id (push_front built a template step).
        t.pending.front().resource = static_cast<int>(&l - locks_.data());
        t.pending.push_front({StepKind::kCompute,
                              machine_.context_switch_ns, -1, {}});
        AdvanceThread(t, now);
        return;  // Lock may have been claimed inside AdvanceThread.
      }
    }
    Waiter w = l.waiters[pick];
    ThreadCtx& t = threads_[w.thread];
    if (!TryGrant(l, t, w.mode, /*contended_path=*/true)) return;
    l.waiters.erase(l.waiters.begin() + static_cast<long>(pick));
    l.wait_ns += now - t.wait_started;
    t.waiting_on = -1;
    t.state = ThreadState::kRunning;
    t.remaining_ns = 0.0;
    AdvanceThread(t, now);
    // Shared grants cascade (all compatible readers drain); an exclusive
    // grant blocks further grants and the next TryGrant returns false.
  }
}

void Simulation::AdvanceThread(ThreadCtx& t, uint64_t now) {
  int instant_steps = 0;
  for (;;) {
    if (++instant_steps > kMaxInstantSteps) {
      t.state = ThreadState::kDone;
      return;
    }
    Step s;
    if (!NextStep(t, &s)) {
      t.state = ThreadState::kDone;
      return;
    }
    switch (s.kind) {
      case StepKind::kCompute:
        if (s.duration_ns == 0) continue;
        t.state = ThreadState::kRunning;
        t.remaining_ns = static_cast<double>(s.duration_ns);
        return;
      case StepKind::kIo:
        t.state = ThreadState::kIoWait;
        t.io_done_at = now + s.duration_ns;
        return;
      case StepKind::kTxnEnd:
        ++t.txns;
        continue;
      case StepKind::kAcquire: {
        LockState& l = locks_[s.resource];
        ++l.acquires;
        if (TryGrant(l, t, s.mode, /*contended_path=*/false)) continue;
        ++l.contended;
        l.waiters.push_back({t.id, s.mode});
        t.waiting_on = s.resource;
        t.waiting_mode = s.mode;
        t.wait_started = now;
        if (l.spec.type == SimLockType::kBlocking) {
          // Adaptive: the first couple of waiters spin; the rest park.
          t.state = SpinnerCount(l) < 1 ? ThreadState::kSpinning
                                         : ThreadState::kParked;
        } else {
          t.state = ThreadState::kSpinning;
        }
        return;
      }
      case StepKind::kRelease: {
        LockState& l = locks_[s.resource];
        if (l.exclusive_holder == t.id) {
          l.exclusive_holder = -1;
        } else if (l.reader_count > 0) {
          --l.reader_count;
        }
        GrantWaiters(l, now);
        continue;
      }
    }
  }
}

void Simulation::RefreshSpeeds() {
  core_load_.assign(machine_.cores, 0);
  for (const ThreadCtx& t : threads_) {
    if (Consuming(t.state)) ++core_load_[t.core];
  }
  speed_.assign(threads_.size(), 0.0);
  for (const ThreadCtx& t : threads_) {
    if (Consuming(t.state)) {
      speed_[t.id] = machine_.PerThreadSpeed(core_load_[t.core]);
    }
  }
}

SimResult Simulation::Run(uint64_t duration_ns, uint64_t warmup_ns) {
  assert(!ran_ && "Simulation::Run may only be called once");
  ran_ = true;

  uint64_t now = 0;
  for (ThreadCtx& t : threads_) AdvanceThread(t, now);
  RefreshSpeeds();

  bool warmup_done = warmup_ns == 0;
  uint64_t warmup_actual = 0;
  if (warmup_done) {
    for (ThreadCtx& t : threads_) t.txns_at_warmup = t.txns;
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (now < duration_ns) {
    // Find the earliest completion among running and IO-waiting threads.
    double dt = kInf;
    for (const ThreadCtx& t : threads_) {
      if (t.state == ThreadState::kRunning && speed_[t.id] > 0.0) {
        dt = std::min(dt, t.remaining_ns / speed_[t.id]);
      } else if (t.state == ThreadState::kIoWait) {
        dt = std::min(dt, static_cast<double>(t.io_done_at - now));
      }
    }
    if (dt == kInf) break;  // Everything parked/spinning/done: quiescent.
    dt = std::max(dt, 0.0);
    // Round up so the loop always makes progress; overshooting a completion
    // by <1ns is absorbed by the 0.5ns completion threshold below.
    auto step_ns = static_cast<uint64_t>(dt) + 1;
    if (now + step_ns > duration_ns) {
      step_ns = duration_ns - now;
      // Still settle partial progress before exiting.
    }

    for (ThreadCtx& t : threads_) {
      if (t.state == ThreadState::kRunning) {
        t.remaining_ns -= static_cast<double>(step_ns) * speed_[t.id];
      }
    }
    now += step_ns;

    if (!warmup_done && now >= warmup_ns) {
      warmup_done = true;
      warmup_actual = now;
      for (ThreadCtx& t : threads_) t.txns_at_warmup = t.txns;
    }

    for (ThreadCtx& t : threads_) {
      if (t.state == ThreadState::kRunning && t.remaining_ns <= 0.5) {
        t.remaining_ns = 0.0;
        AdvanceThread(t, now);
      } else if (t.state == ThreadState::kIoWait && t.io_done_at <= now) {
        AdvanceThread(t, now);
      }
    }
    RefreshSpeeds();
  }

  SimResult r;
  r.sim_ns = duration_ns - warmup_actual;
  for (const ThreadCtx& t : threads_) {
    r.txns += t.txns - t.txns_at_warmup;
  }
  for (const LockState& l : locks_) {
    r.lock_waits += l.contended;
    r.total_wait_ns += l.wait_ns;
  }
  if (r.sim_ns > 0) {
    r.tps = static_cast<double>(r.txns) * 1e9 / static_cast<double>(r.sim_ns);
  }
  if (!threads_.empty()) {
    r.tps_per_thread = r.tps / static_cast<double>(threads_.size());
  }
  return r;
}

std::vector<SimLockStats> Simulation::LockStats() const {
  std::vector<SimLockStats> out;
  out.reserve(locks_.size());
  for (const LockState& l : locks_) {
    out.push_back({l.name, l.acquires, l.contended, l.wait_ns});
  }
  return out;
}

}  // namespace shoremt::simcore
