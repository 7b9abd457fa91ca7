#ifndef SHOREMT_SIMCORE_SIMULATION_H_
#define SHOREMT_SIMCORE_SIMULATION_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/random.h"
#include "simcore/machine.h"
#include "simcore/step.h"

namespace shoremt::simcore {

/// Synchronization primitive archetypes with distinct contention physics.
enum class SimLockType : uint8_t {
  /// OS (pthread) mutex: waiters park (free the pipeline); each wakeup
  /// costs a context switch. FIFO.
  kBlocking,
  /// Test-and-set spinlock: waiters burn pipeline slots; release triggers a
  /// coherence storm proportional to the number of spinners. Unfair.
  kTatas,
  /// Test-and-test-and-set: spinning reads are local until release, but the
  /// race at release still costs ~half a storm. Unfair.
  kTtas,
  /// MCS queue lock: waiters spin on a private line; handoff is one cache
  /// line transfer regardless of queue length. FIFO.
  kMcs,
  /// Ticket lock: FIFO, but all waiters share the grant line, so handoff
  /// cost grows (mildly) with the waiter count.
  kTicket,
  /// Reader-writer latch: shared holders proceed together, but every
  /// acquisition serializes on the latch word (one line transfer each) —
  /// hot read-mostly latches still bottleneck (§6.2 principle 3).
  kRwLatch,
};

/// Specification of one simulated lock instance.
struct SimLockSpec {
  SimLockType type = SimLockType::kMcs;
  /// Base cost of an uncontended acquisition (atomic op + bookkeeping).
  uint64_t uncontended_ns = 60;
};

/// Aggregate outcome of a simulation run.
struct SimResult {
  uint64_t txns = 0;          ///< Transactions completed after warmup.
  uint64_t sim_ns = 0;        ///< Measured virtual-time window.
  double tps = 0.0;           ///< txns / sim seconds.
  double tps_per_thread = 0.0;
  uint64_t lock_waits = 0;    ///< Contended acquisitions across all locks.
  uint64_t total_wait_ns = 0; ///< Summed virtual wait time.
};

/// Per-lock contention accounting exposed for reporting.
struct SimLockStats {
  std::string name;
  uint64_t acquires = 0;
  uint64_t contended = 0;
  uint64_t wait_ns = 0;
};

/// Discrete-event simulation of N software threads on a multicore machine.
///
/// Threads run transaction step-programs produced by their TxnFactory. The
/// engine uses processor-sharing within each core (see MachineConfig's SMT
/// model): spinning waiters *consume* pipeline slots while parked waiters do
/// not, which is exactly the mechanism that separates TATAS from MCS from
/// blocking mutexes on the paper's Niagara.
///
/// Usage:
///   Simulation sim(machine);
///   int log_mutex = sim.AddLock({SimLockType::kBlocking, 80}, "log");
///   sim.AddThread([&](Rng& rng, StepProgram* p) { ... });
///   SimResult r = sim.Run(50'000'000 /*50ms*/, 5'000'000 /*warmup*/);
class Simulation {
 public:
  explicit Simulation(const MachineConfig& machine, uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Registers a lock/latch; returns its resource id for step programs.
  int AddLock(const SimLockSpec& spec, std::string name);

  /// Adds a worker thread; threads are assigned to cores round-robin
  /// (thread i runs on core i % cores, matching the OS spreading threads).
  int AddThread(TxnFactory factory);

  /// Runs for `duration_ns` of virtual time; statistics cover only the
  /// portion after `warmup_ns`. Can be called once per Simulation.
  SimResult Run(uint64_t duration_ns, uint64_t warmup_ns = 0);

  /// Post-run per-lock statistics.
  std::vector<SimLockStats> LockStats() const;

  const MachineConfig& machine() const { return machine_; }

 private:
  enum class ThreadState : uint8_t {
    kRunning,   // Consuming CPU to finish current work.
    kSpinning,  // Waiting on a lock, consuming CPU.
    kParked,    // Waiting on a lock, not consuming CPU.
    kIoWait,    // Waiting on IO completion, not consuming CPU.
    kDone,      // No more work (factory returned empty program).
  };

  struct Waiter {
    int thread;
    SimMode mode;
  };

  struct LockState {
    SimLockSpec spec;
    std::string name;
    int exclusive_holder = -1;
    int reader_count = 0;
    std::deque<Waiter> waiters;
    uint64_t acquires = 0;
    uint64_t contended = 0;
    uint64_t wait_ns = 0;
  };

  struct ThreadCtx {
    int id = 0;
    int core = 0;
    ThreadState state = ThreadState::kRunning;
    double remaining_ns = 0.0;   // Work left in current consuming step.
    std::deque<Step> pending;    // Synthetic steps + current transaction.
    size_t program_pos = 0;      // Cursor into `program`.
    StepProgram program;
    TxnFactory factory;
    Rng rng;
    uint64_t io_done_at = 0;
    int waiting_on = -1;
    SimMode waiting_mode = SimMode::kExclusiveOp;
    uint64_t wait_started = 0;
    uint64_t txns = 0;
    uint64_t txns_at_warmup = 0;

    ThreadCtx() : rng(1) {}
  };

  /// True while `t` occupies pipeline issue slots.
  static bool Consuming(ThreadState s) {
    return s == ThreadState::kRunning || s == ThreadState::kSpinning;
  }

  /// Pops the next step for `t`, refilling from the factory at txn end.
  bool NextStep(ThreadCtx& t, Step* out);
  /// Executes instantaneous steps for `t` until it starts consuming work,
  /// parks, spins, or finishes.
  void AdvanceThread(ThreadCtx& t, uint64_t now);
  /// Attempts to grant `mode` on lock `l` to thread `t`. Returns true and
  /// charges handoff/acquire costs if granted.
  bool TryGrant(LockState& l, ThreadCtx& t, SimMode mode, bool contended_path);
  /// On release: hands the lock to the next compatible waiter(s).
  void GrantWaiters(LockState& l, uint64_t now);
  /// Recomputes the per-thread speeds from per-core consuming counts.
  void RefreshSpeeds();

  int SpinnerCount(const LockState& l) const;

  MachineConfig machine_;
  std::vector<LockState> locks_;
  std::vector<ThreadCtx> threads_;
  std::vector<double> speed_;       // Per-thread current speed factor.
  std::vector<int> core_load_;      // Consuming threads per core.
  uint64_t seed_;
  bool ran_ = false;
};

}  // namespace shoremt::simcore

#endif  // SHOREMT_SIMCORE_SIMULATION_H_
