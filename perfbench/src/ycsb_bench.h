#ifndef PERFBENCH_YCSB_BENCH_H_
#define PERFBENCH_YCSB_BENCH_H_

// YCSB single-operation transactions (reads and updates) issued through
// sm::Session, with per-client tallies of the last image each client
// committed to each key, and the checks computed against them.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "workload/ycsb.h"

namespace perfbench {

class YcsbClients {
 public:
  /// `read_fraction` of the transactions read one row, the rest update
  /// one row; keys come from a YcsbWorker per client seeded from `seed`.
  YcsbClients(shoremt::workload::YcsbDatabase* db, double read_fraction,
              int clients, uint64_t seed);

  /// One transaction by `client`, committed with CommitAsync; returns
  /// true when it committed and, for a read, the image was well formed.
  bool Run(shoremt::sm::Session* session, int client);

  /// Reads that returned a malformed image.
  uint64_t bad_reads() const;

  /// Scans the table: every key loaded is present exactly once, and each
  /// row holds its loaded image or the last image some client committed
  /// for it. Runs with no client active.
  bool Check(shoremt::sm::Session* session, std::string* errors);

  shoremt::Status Reopen(shoremt::sm::Session* session);

  std::vector<shoremt::sm::TableInfo> tables() const {
    return {db_->usertable};
  }

 private:
  struct Client {
    std::unique_ptr<shoremt::workload::YcsbWorker> worker;
    /// Sequence number of the client's last issued update (published
    /// before the update so a reader can bound what it may observe).
    std::atomic<uint32_t> issued{0};
    /// Per key: sequence number of this client's last committed update
    /// (0 = never updated).
    std::vector<uint32_t> last;
    std::vector<uint8_t> payload;
    std::vector<uint8_t> expect;
    uint64_t bad_reads = 0;
  };

  /// The update image counter: client c's n-th update writes
  /// (c + 1) << 32 | n; loaded rows hold 0.
  static uint64_t Counter(size_t client, uint32_t seq) {
    return (static_cast<uint64_t>(client) + 1) << 32 | seq;
  }
  /// True when `image` is the key's payload for a counter that is 0 or
  /// names a client and an update it has issued.
  bool WellFormed(uint64_t key, std::span<const uint8_t> image,
                  std::vector<uint8_t>* expected) const;

  shoremt::workload::YcsbDatabase* db_;
  double read_fraction_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_YCSB_BENCH_H_
