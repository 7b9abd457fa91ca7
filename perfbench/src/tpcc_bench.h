#ifndef PERFBENCH_TPCC_BENCH_H_
#define PERFBENCH_TPCC_BENCH_H_

// TPC-C New-Order and Payment (50/50) issued by the benchmark itself
// through sm::Session, so every engine call can be timed, with the
// benchmark's own tallies of what committed and the TPC-C consistency
// checks computed against them.

#include <string>
#include <vector>

#include "common/random.h"
#include "workload/tpcc.h"

namespace perfbench {

class TpccClients {
 public:
  /// Terminal t runs on home warehouse t + 1; `db` must have at least
  /// `terminals` warehouses. Ids are drawn from `seed`.
  TpccClients(shoremt::workload::TpccDatabase db, int terminals,
              uint64_t seed);

  /// One transaction on `terminal` (New-Order or Payment, 50/50);
  /// returns true when it committed.
  bool Run(shoremt::sm::Session* session, int terminal);

  /// Checks the database against the tallies and the TPC-C consistency
  /// conditions. Runs with no client active. Returns false and appends to
  /// `errors` on a mismatch.
  bool Check(shoremt::sm::Session* session, std::string* errors);

  /// Re-binds the table handles after a restart (looked up by name).
  shoremt::Status Reopen(shoremt::sm::Session* session);

  std::vector<shoremt::sm::TableInfo> tables() const;

 private:
  struct Terminal {
    shoremt::Rng rng;
    uint64_t payments = 0;
    uint64_t new_orders = 0;
    uint64_t order_lines = 0;
    double amount = 0;         ///< Sum of committed Payment amounts.
    uint64_t history_seq = 0;  ///< Last HISTORY key suffix used.
  };

  uint64_t committed_new_orders() const;
  bool Payment(shoremt::sm::Session* s, Terminal* t, uint32_t w);
  bool NewOrder(shoremt::sm::Session* s, Terminal* t, uint32_t w);

  shoremt::workload::TpccDatabase db_;
  std::vector<Terminal> terminals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TPCC_BENCH_H_
