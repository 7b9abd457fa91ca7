#include "ycsb_bench.h"

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

using shoremt::Status;
using shoremt::sm::Session;
using namespace shoremt::workload;

YcsbClients::YcsbClients(YcsbDatabase* db, double read_fraction, int clients,
                         uint64_t seed)
    : db_(db), read_fraction_(read_fraction) {
  for (int c = 0; c < clients; ++c) {
    auto cl = std::make_unique<Client>();
    cl->worker = std::make_unique<YcsbWorker>(
        db, seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(c) + 1);
    cl->last.assign(db->config.record_count, 0);
    clients_.push_back(std::move(cl));
  }
}

bool YcsbClients::WellFormed(uint64_t key, std::span<const uint8_t> image,
                             std::vector<uint8_t>* expected) const {
  uint64_t counter = ReadYcsbCounter(image);
  if (counter != 0) {
    uint64_t c = (counter >> 32) - 1;
    auto seq = static_cast<uint32_t>(counter);
    if (c >= clients_.size() || seq == 0 ||
        seq > clients_[c]->issued.load(std::memory_order_acquire)) {
      return false;
    }
  }
  FillYcsbPayload(key, db_->config.field_size, counter, expected);
  return std::equal(image.begin(), image.end(), expected->begin(),
                    expected->end());
}

bool YcsbClients::Run(Session* s, int client) {
  Client* cl = clients_[client].get();
  YcsbWorker* w = cl->worker.get();
  bool read = w->rng().NextDouble() < read_fraction_;
  uint64_t key = w->NextKey();
  if (!Timed(SpanKind::kBegin, [&] { return s->Begin(); }).ok()) return false;
  uint32_t seq = 0;
  if (read) {
    auto r = Timed(SpanKind::kRead,
                   [&] { return s->Read(db_->usertable, key); });
    if (!r.ok()) {
      (void)s->Abort();
      return false;
    }
    if (!WellFormed(key, *r, &cl->expect)) ++cl->bad_reads;
  } else {
    seq = cl->issued.load(std::memory_order_relaxed) + 1;
    cl->issued.store(seq, std::memory_order_release);
    FillYcsbPayload(key, db_->config.field_size, Counter(client, seq),
                    &cl->payload);
    Status st = Timed(SpanKind::kUpdate, [&] {
      return s->Update(db_->usertable, key, cl->payload);
    });
    if (!st.ok()) {
      (void)s->Abort();
      return false;
    }
  }
  if (!TimedCommitAsync(s).ok()) {
    return false;
  }
  if (!read) cl->last[key] = seq;
  return true;
}

uint64_t YcsbClients::bad_reads() const {
  uint64_t n = 0;
  for (const auto& c : clients_) n += c->bad_reads;
  return n;
}

Status YcsbClients::Reopen(Session* s) {
  SHOREMT_ASSIGN_OR_RETURN(db_->usertable, s->OpenTable("usertable"));
  return Status::Ok();
}

bool YcsbClients::Check(Session* s, std::string* errors) {
  const uint64_t n = db_->config.record_count;
  uint64_t next = 0, missing = 0, extra = 0, wrong = 0;
  std::vector<uint8_t> expected;
  if (!s->Begin().ok()) {
    *errors += "check: Begin failed; ";
    return false;
  }
  shoremt::sm::Cursor cur = s->OpenCursor(db_->usertable);
  Status st = cur.Seek(0);
  for (; st.ok() && cur.Valid(); st = cur.Next()) {
    uint64_t key = cur.key();
    if (key >= n || key < next) {
      ++extra;
      continue;
    }
    missing += key - next;
    next = key + 1;
    // The row must hold the last image of one client that updated the
    // key, or the loaded image if none did.
    uint64_t counter = ReadYcsbCounter(cur.value());
    bool updated = false, match = false;
    for (size_t c = 0; c < clients_.size(); ++c) {
      uint32_t last = clients_[c]->last[key];
      updated |= last != 0;
      match |= last != 0 && counter == Counter(c, last);
    }
    if (!updated) match = counter == 0;
    if (!match || !WellFormed(key, cur.value(), &expected)) ++wrong;
  }
  missing += n - std::min(n, next);
  if (!st.ok()) {
    *errors += "check: scan: " + st.ToString() + "; ";
    (void)s->Abort();
    return false;
  }
  (void)s->Commit();
  uint64_t bad = bad_reads();
  if (missing + extra + wrong + bad != 0) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "usertable: %llu missing, %llu never inserted, %llu with "
                  "an image no client committed last, %llu malformed reads; ",
                  static_cast<unsigned long long>(missing),
                  static_cast<unsigned long long>(extra),
                  static_cast<unsigned long long>(wrong),
                  static_cast<unsigned long long>(bad));
    *errors += buf;
    return false;
  }
  return true;
}

}  // namespace perfbench
